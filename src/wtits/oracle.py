"""Numerical ground truth on SO(n) for the SL(n,R) presets.

The maximal compact subgroup of SL(n,R) is SO(n) and the relevant isotropy
component M_0 is trivial, so the extended flag manifold is SO(n) itself and
a point of it is just a special orthogonal matrix.  This module provides:

  * the Iwasawa projection (QR with positive upper factor),
  * the rank-one cell maps psi (block rotations, and the sphere version
    used by non-split groups),
  * the characteristic maps Psi_u that parametrize Schubert cells,
  * a sampling-based incidence test between cells,
  * translation flows x -> K-part(g x) and recovery of their minimal
    Morse components, and
  * the contraction estimate for conjugated unipotents.

Everything random is driven by named integer seeds; per-cell sampling
derives its substream from (seed, cell index) so reports are reproducible
and order-independent.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product as iter_product

import numpy as np

from .utits import (
    GroupPreset,
    UElement,
    canonical_form,
    cosets,
    coset_label,
    display_word,
    enumerate_U,
    project_to_W,
    subgroup_U_H,
)
from .xorder import extended_leq

ORTHO_TOL = 1e-10


def _as_float(mat) -> np.ndarray:
    if isinstance(mat, UElement):
        mat = mat.matrix
    return np.array(mat, dtype=float)


def require_flag_point(k: np.ndarray, tol: float = ORTHO_TOL) -> np.ndarray:
    """Validate a point of the flag manifold SO(n)."""
    k = np.asarray(k, dtype=float)
    n = k.shape[0]
    if k.shape != (n, n):
        raise ValueError("flag point must be a square matrix")
    if np.linalg.norm(k.T @ k - np.eye(n)) >= tol:
        raise ValueError("flag point is not orthogonal")
    if np.linalg.det(k) < 0:
        raise ValueError("flag point must have determinant +1")
    return k


def iwasawa_K(g) -> np.ndarray:
    """K-factor of the Iwasawa decomposition g = k a n, computed as the QR
    factorization normalized to a positive-diagonal upper factor."""
    g = np.asarray(g, dtype=float)
    if g.ndim != 2 or g.shape[0] != g.shape[1]:
        raise ValueError("expected a square matrix")
    det = np.linalg.det(g)
    if not np.isfinite(det) or det <= 0:
        raise ValueError("Iwasawa projection needs det g > 0")
    q, r = np.linalg.qr(g)
    signs = np.sign(np.diag(r))
    if np.any(signs == 0):
        raise ValueError("matrix is numerically singular")
    k = q * signs  # flip columns so the upper factor has positive diagonal
    residual = np.linalg.norm(k @ (signs[:, None] * r) - g)
    if residual >= ORTHO_TOL * max(1.0, np.linalg.norm(g)):
        raise ArithmeticError("QR reconstruction residual too large")
    return k


def _rotation_block_of(gen: UElement) -> tuple[int, int, int]:
    """Locate the 2x2 quarter-turn block of a split rank-one generator:
    returns (p, q, orientation) with p < q, gen[p][q] = -orientation."""
    mat = gen.matrix
    n = len(mat)
    off = [
        (i, j) for i in range(n) for j in range(n)
        if i != j and mat[i][j] != 0
    ]
    if len(off) != 2:
        raise ValueError("generator is not a single rotation block")
    (i, j), (i2, j2) = off
    if {i, j} != {i2, j2}:
        raise ValueError("generator is not a single rotation block")
    p, q = min(i, j), max(i, j)
    orientation = -mat[p][q]
    if mat[q][p] != orientation or abs(orientation) != 1:
        raise ValueError("generator block is not a quarter turn")
    for k in range(n):
        if k not in (p, q) and mat[k][k] != 1:
            raise ValueError("generator is not a single rotation block")
    if mat[p][p] != 0 or mat[q][q] != 0:
        raise ValueError("generator block is not a quarter turn")
    return p, q, orientation


def psi_split(alpha_block, t: float) -> np.ndarray:
    """Rank-one cell map for a split (multiplicity one) simple root: the
    rotation by angle pi*t in the generator's 2x2 block, so psi(0) = 1,
    psi(1/2) = s and psi(1) = s^2."""
    return psi_split_batch(alpha_block, np.array([t], dtype=float))[0]


def psi_split_batch(alpha_block, ts: np.ndarray) -> np.ndarray:
    if not isinstance(alpha_block, UElement):
        raise TypeError("alpha_block must be a generator element")
    p, q, orientation = _rotation_block_of(alpha_block)
    n = alpha_block.preset.n
    ts = np.asarray(ts, dtype=float)
    angles = np.pi * ts * orientation
    out = np.broadcast_to(np.eye(n), (len(ts), n, n)).copy()
    c, s = np.cos(angles), np.sin(angles)
    out[:, p, p] = c
    out[:, q, q] = c
    out[:, p, q] = -s
    out[:, q, p] = s
    return out


def psi_rank_one(z: float, v, t: float) -> np.ndarray:
    """Sphere cell map for a rank-one group over the reals:
    exp(t A(z,v)) w = (I - J) w + cos(t) J w + sin(t) A w, where w is the
    nontrivial Weyl representative diag(-1,-1,1,...,1).

    The orthogonal-group case forces z = 0 (z would live in the imaginary
    part of C or H for the unitary cases, which are out of scope here).
    """
    v = np.asarray(v, dtype=float).reshape(-1)
    if v.shape[0] < 1 or not np.any(v != 0):
        raise ValueError("v must be a nonzero vector")
    if z != 0.0:
        raise ValueError("the real (orthogonal) rank-one map needs z = 0")
    norm_sq = z * z + float(v @ v)
    if abs(norm_sq - 1.0) > 1e-9:
        raise ValueError("(z, v) must sit on the unit sphere")
    a, j = rank_one_generators(z, v)
    n = v.shape[0] + 1
    w = np.eye(n)
    w[0, 0] = w[1, 1] = -1.0
    exp_ta = np.eye(n) - j + np.cos(t) * j + np.sin(t) * a
    return exp_ta @ w


def rank_one_generators(z: float, v) -> tuple[np.ndarray, np.ndarray]:
    """The matrices A(z, v) and J_v of the sphere cell map."""
    v = np.asarray(v, dtype=float).reshape(-1, 1)
    m = v.shape[0]
    vv = (v @ v.T) / float(v[:, 0] @ v[:, 0])
    a = np.zeros((m + 1, m + 1))
    a[0, 0] = z
    a[1:, 0] = v[:, 0]
    a[0, 1:] = -v[:, 0]
    a[1:, 1:] = -vv * z
    j = np.zeros((m + 1, m + 1))
    j[0, 0] = 1.0
    j[1:, 1:] = vv
    return a, j


# -- Schubert cell sampling ----------------------------------------------------


@dataclass
class CellSample:
    """Points Psi_u(t) of one closed Schubert cell, with their parameters.

    The first rows of `parameters` are the distinguished grid {0, 1/2, 1}^d
    (whose images are exactly the group elements lying in the closed cell,
    the all-halves point giving u itself); the remainder are the uniform
    draws.
    """

    u: UElement
    points: np.ndarray  # (N, n, n)
    parameters: np.ndarray  # (N, d)


def _reduced_lift_data(u: UElement) -> tuple[tuple[int, ...], np.ndarray]:
    word, c = canonical_form(u)
    return word, _as_float(c)


def sample_schubert(u: UElement, count: int, seed: int) -> CellSample:
    """Sample the closed cell of u: the distinguished {0, 1/2, 1}^d grid
    followed by `count` uniform parameter draws, pushed through
    Psi_u(t) = psi_1(t_1) ... psi_d(t_d) c."""
    preset = u.preset
    if any(m != 1 for m in preset.root_datum.multiplicities):
        raise ValueError("cell sampling requires a split preset (all multiplicities 1)")
    word, c_float = _reduced_lift_data(u)
    d = len(word)
    grid = np.array(list(iter_product((0.0, 0.5, 1.0), repeat=d)), dtype=float)
    interior = np.full((1, d), 0.5)
    rng = np.random.default_rng([seed, *u_cell_key(u)])
    uniforms = rng.random((count, d))
    ts = np.vstack([interior, grid, uniforms]) if d else np.zeros((1, 0))
    n = preset.n
    points = np.broadcast_to(np.eye(n), (ts.shape[0], n, n)).copy()
    for col, letter in enumerate(word):
        points = points @ psi_split_batch(preset.generator(letter), ts[:, col])
    points = points @ c_float
    return CellSample(u=u, points=points, parameters=ts)


def u_cell_key(u: UElement) -> tuple[int, ...]:
    """Deterministic nonnegative substream key, one entry per matrix entry.

    Entries -1, 0, 1 map to 0, 1, 2, which fixes the seeded streams of
    signed-permutation groups; larger entries x map to 2x - 1 and smaller
    ones to -2x, so distinct matrices of one size get distinct keys."""
    return tuple(
        x + 1 if -1 <= x <= 1 else (2 * x - 1 if x > 1 else -2 * x)
        for row in u.matrix
        for x in row
    )


def min_distance(u_lo: UElement, sample: CellSample) -> float:
    target = _as_float(u_lo)
    diffs = sample.points - target
    return float(np.sqrt((diffs * diffs).sum(axis=(1, 2))).min())


def incidence_test(u_lo: UElement, sample: CellSample, tol: float) -> bool:
    """Numerical surrogate for cell incidence: some sampled point of the
    closed cell lies within `tol` of u_lo's matrix.  Only ever used through
    agreement reports against the combinatorial order, never as its
    definition."""
    if sample.points.shape[0] == 0:
        raise ValueError("empty cell sample")
    return min_distance(u_lo, sample) < tol


def schubert_agreement_report(
    preset: GroupPreset,
    count: int = 100_000,
    seed: int = 42,
    tol: float = 1e-2,
    reject_margin: float = 5e-2,
) -> dict:
    """Compare the sampled incidence test against the combinatorial order on
    every ordered pair of elements.

    Returns a JSON-ready report; `agree` is True when the two verdicts match
    on all pairs, `margin_ok` when every negative pair also clears the
    rejection margin.
    """
    table = enumerate_U(preset)
    pairs = []
    agree = True
    margin_ok = True
    for hi in table:
        sample = sample_schubert(hi, count, seed)
        for lo in table:
            dist = min_distance(lo, sample)
            numerical = dist < tol
            combinatorial = extended_leq(lo, hi)
            if numerical != combinatorial:
                agree = False
            if not combinatorial and dist <= reject_margin:
                margin_ok = False
            pairs.append(
                {
                    "lo": display_word(lo),
                    "hi": display_word(hi),
                    "combinatorial": combinatorial,
                    "numerical": numerical,
                    "min_distance": dist,
                }
            )
    pairs.sort(key=lambda p: (p["hi"], p["lo"]))
    return {
        "preset": preset.name,
        "seed": seed,
        "count": count,
        "tol": tol,
        "reject_margin": reject_margin,
        "pairs": pairs,
        "agree": agree,
        "margin_ok": margin_ok,
    }


# -- translation flows ---------------------------------------------------------


def _exp_nilpotent(n_mat: np.ndarray) -> np.ndarray:
    """exp of a nilpotent matrix by its (finite) power series."""
    n = n_mat.shape[0]
    out = np.eye(n)
    term = np.eye(n)
    for k in range(1, n + 1):
        term = term @ n_mat / k
        if not term.any():
            break
        out = out + term
    return out


@dataclass
class FlowSpec:
    """A translation flow datum g = elliptic * exp(step H) * exp(step N).

    H is the diagonal hyperbolic direction (nonincreasing, trace zero, i.e.
    in the closed positive chamber), `elliptic` an orthogonal matrix and
    `nilpotent` a strictly upper triangular matrix; the three parts must
    pairwise commute, as in a multiplicative Jordan decomposition.
    """

    H: np.ndarray
    elliptic: np.ndarray | None = None
    nilpotent: np.ndarray | None = None
    time_step: float = 1.0
    flow_matrix: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        self.H = np.asarray(self.H, dtype=float).reshape(-1)
        n = self.H.shape[0]
        if abs(self.H.sum()) > 1e-9:
            raise ValueError("H must have zero trace")
        if np.any(np.diff(self.H) > 1e-12):
            raise ValueError("H must be nonincreasing (closed positive chamber)")
        if self.time_step <= 0:
            raise ValueError("time_step must be positive")
        self.elliptic = (
            np.eye(n) if self.elliptic is None else np.asarray(self.elliptic, dtype=float)
        )
        self.nilpotent = (
            np.zeros((n, n)) if self.nilpotent is None else np.asarray(self.nilpotent, dtype=float)
        )
        if np.linalg.norm(self.elliptic.T @ self.elliptic - np.eye(n)) > ORTHO_TOL:
            raise ValueError("elliptic part must be orthogonal")
        if np.any(np.tril(self.nilpotent) != 0):
            raise ValueError("nilpotent part must be strictly upper triangular")
        h = np.diag(np.exp(self.time_step * self.H))
        u = _exp_nilpotent(self.time_step * self.nilpotent)
        for a, b, names in (
            (self.elliptic, h, "elliptic/hyperbolic"),
            (self.elliptic, u, "elliptic/unipotent"),
            (h, u, "hyperbolic/unipotent"),
        ):
            if np.linalg.norm(a @ b - b @ a) > ORTHO_TOL * max(1.0, np.linalg.norm(a @ b)):
                raise ValueError(f"{names} parts do not commute")
        self.flow_matrix = self.elliptic @ h @ u


def flow_step(spec: FlowSpec, x) -> np.ndarray:
    """One step of the induced flow on K = G/AN: x -> K-part of g x."""
    return iwasawa_K(spec.flow_matrix @ np.asarray(x, dtype=float))


def _h_blocks(H: np.ndarray) -> list[tuple[int, int]]:
    """Index ranges of equal consecutive entries of H (the block structure
    of the centralizer K_H^0)."""
    blocks = []
    start = 0
    for i in range(1, len(H) + 1):
        if i == len(H) or abs(H[i] - H[start]) > 1e-9:
            blocks.append((start, i))
            start = i
    return blocks


def component_distance(x: np.ndarray, u_rep: UElement, blocks) -> float:
    """Frobenius distance from x to the component K_H^0 u: per-block special
    orthogonal Procrustes on M = x u^T."""
    m = x @ _as_float(u_rep).T
    n = m.shape[0]
    trace_max = 0.0
    for lo, hi in blocks:
        sub = m[lo:hi, lo:hi]
        if hi - lo == 1:
            trace_max += sub[0, 0]
            continue
        uu, sv, vt = np.linalg.svd(sub)
        if np.linalg.det(uu @ vt) < 0:
            sv = sv.copy()
            sv[-1] = -sv[-1]
        trace_max += sv.sum()
    return float(np.sqrt(max(0.0, 2 * n - 2 * trace_max)))


@dataclass
class MorseReport:
    """Outcome of the flow-based Morse component recovery."""

    preset: str
    theta: tuple[int, ...]
    degenerate: bool
    recurrent_points: tuple[UElement, ...]
    component_labels: tuple[str, ...]
    recurrent_per_component: tuple[int, ...]
    attractor_components: tuple[int, ...]
    start_count: int
    component_assignment: tuple[int | None, ...]
    limit_distances: tuple[float, ...]
    non_convergent: tuple[int, ...]
    seed: int

    def components_found(self) -> int:
        return len({a for a in self.component_assignment if a is not None})


def recover_morse(
    preset: GroupPreset,
    spec: FlowSpec,
    grid: int = 48,
    iters: int = 2000,
    seed: int = 42,
    converge_tol: float = 1e-4,
) -> MorseReport:
    """Recover the minimal Morse components of the flow on SO(n).

    Fixed points of the step map are detected exactly among the group
    matrices; components are the circles/tori K_H^0 u indexed by U_H \\ U,
    and every trajectory limit is matched to its nearest component.  Limits
    farther than `converge_tol` from every component are flagged and
    excluded rather than force-classified.
    """
    if any(m != 1 for m in preset.root_datum.multiplicities):
        raise ValueError("flow recovery requires a split preset")
    datum = preset.root_datum
    if len(spec.H) != preset.n:
        raise ValueError("H dimension does not match the preset")
    simple_values = [
        float(np.dot([float(x) for x in root], spec.H)) for root in datum.simple_roots
    ]
    if any(val < -1e-9 for val in simple_values):
        raise ValueError("H is not in the closed positive chamber of the preset")
    theta = tuple(i + 1 for i, val in enumerate(simple_values) if abs(val) <= 1e-9)

    table = enumerate_U(preset)
    u_h = subgroup_U_H(preset, theta)
    classes = cosets(table, u_h)
    blocks = _h_blocks(spec.H)
    degenerate = len(theta) == datum.rank and not np.any(spec.nilpotent)

    recurrent = tuple(
        u
        for u in table
        if np.linalg.norm(flow_step(spec, _as_float(u)) - _as_float(u)) < 1e-9
    )
    per_component = tuple(
        sum(1 for u in recurrent if u in coset) for coset in classes
    )
    attractors = tuple(
        sorted(
            {
                k
                for k, coset in enumerate(classes)
                if any(project_to_W(m).is_identity() for m in coset.members)
            }
        )
    )

    rng = np.random.default_rng(seed)
    starts = [_as_float(u) for u in table]
    for _ in range(grid):
        gauss = rng.standard_normal((preset.n, preset.n))
        if np.linalg.det(gauss) < 0:
            gauss[:, [0, 1]] = gauss[:, [1, 0]]
        starts.append(iwasawa_K(gauss))
    assignment: list[int | None] = []
    distances: list[float] = []
    non_convergent: list[int] = []
    for idx, start in enumerate(starts):
        x = start
        for _ in range(iters):
            x = flow_step(spec, x)
        dists = [component_distance(x, coset.representative, blocks) for coset in classes]
        best = int(np.argmin(dists))
        distances.append(dists[best])
        if dists[best] <= converge_tol:
            assignment.append(best)
        else:
            assignment.append(None)
            non_convergent.append(idx)
    labels = tuple(coset_label(coset) for coset in classes)
    return MorseReport(
        preset=preset.name,
        theta=theta,
        degenerate=degenerate,
        recurrent_points=recurrent,
        component_labels=labels,
        recurrent_per_component=per_component,
        attractor_components=attractors,
        start_count=len(starts),
        component_assignment=tuple(assignment),
        limit_distances=tuple(distances),
        non_convergent=tuple(non_convergent),
        seed=seed,
    )


def contraction_check(H_vec, n_mat, k_max: int = 20, step: float = 1.0) -> list[float]:
    """Residuals ||h^{-k} exp(N) h^{k} - I||_F for k = 0..k_max, where
    h = exp(step * diag(H)).  Requires every nonzero entry of N to sit on a
    root strictly positive on H, which is exactly what makes the conjugates
    contract to the identity."""
    H = np.asarray(H_vec, dtype=float).reshape(-1)
    n_mat = np.asarray(n_mat, dtype=float)
    n = H.shape[0]
    if n_mat.shape != (n, n):
        raise ValueError("nilpotent matrix dimension mismatch")
    if np.any(np.tril(n_mat) != 0):
        raise ValueError("n_mat must be strictly upper triangular")
    rows, cols = np.nonzero(n_mat)
    for i, j in zip(rows, cols):
        if H[i] - H[j] <= 0:
            raise ValueError(
                f"entry ({i + 1},{j + 1}) sits on a root with alpha(H) = "
                f"{H[i] - H[j]:g} <= 0; conjugation does not contract it"
            )
    exp_n = _exp_nilpotent(n_mat)
    gaps = H[:, None] - H[None, :]
    residuals = []
    for k in range(k_max + 1):
        conj = exp_n * np.exp(-k * step * gaps)
        residuals.append(float(np.linalg.norm(conj - np.eye(n))))
    return residuals
