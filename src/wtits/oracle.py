"""Numerical ground truth on SO(n) for the SL(n,R) presets.

The maximal compact subgroup of SL(n,R) is SO(n) and the relevant isotropy
component M_0 is trivial, so the extended flag manifold is SO(n) itself and
a point of it is just a special orthogonal matrix.  This module provides:

  * the Iwasawa projection (QR with positive upper factor), for one matrix
    or a stack of them,
  * the rank-one cell maps psi (block rotations, and the sphere version
    used by non-split groups),
  * the characteristic maps Psi_u that parametrize Schubert cells,
  * a sampling-based incidence test between cells,
  * translation flows x -> K-part(g x) and recovery of their minimal
    Morse components, and
  * the contraction estimate for conjugated unipotents.

A cell sample starts with the exact {0, 1/2, 1}^d grid rows, whose images
are the group elements of the closed cell, so every positive incidence
verdict comes from those rows (distance at rounding level).  The uniform
draws after them only bound the negative-pair margin: how close the closed
cell comes to an element outside it.  Incidence is tested per cell, not
per pair: one Gram product per block of sample rows approximates every
squared distance to every target, and the rows near each target's minimum
are recomputed exactly, so each distance equals the direct minimum.

A flow advances all of its starts (the group points, then the random
ones) as one (starts, n, n) stack: each step is one product with the flow
matrix and one batched QR, with every check applied to each matrix.
Sample and start stacks are refused from their predicted size, before any
allocation, above MAX_STACK_FLOATS.

This is the package's only numpy user.  `wtits` resolves the names it
re-exports from here on first access, so the exact commands never import
it.

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
MAX_STACK_FLOATS = 1 << 25  # 256 MiB of float64: the largest cell sample or flow stack


def _require_nonnegative(name: str, value: int) -> None:
    if value < 0:
        raise ValueError(f"{name} must be nonnegative, got {value}")


def _require_stack_size(floats: int, what: str) -> None:
    """Refuse a stack from its predicted size, before it is allocated."""
    if floats > MAX_STACK_FLOATS:
        raise ValueError(
            f"{what} needs {floats} floats, over the cap of {MAX_STACK_FLOATS}"
        )


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
    factorization normalized to a positive-diagonal upper factor.

    `g` is one matrix or a stack (..., n, n); a stack is factored in one
    batched QR and every matrix of it must pass every check."""
    g = np.asarray(g, dtype=float)
    if g.ndim < 2 or g.shape[-1] != g.shape[-2]:
        raise ValueError("expected a square matrix")
    det = np.linalg.det(g)
    if not (np.isfinite(det) & (det > 0)).all():
        raise ValueError("Iwasawa projection needs det g > 0")
    q, r = np.linalg.qr(g)
    signs = np.sign(np.diagonal(r, axis1=-2, axis2=-1))
    if (signs == 0).any():
        raise ValueError("matrix is numerically singular")
    k = q * signs[..., None, :]  # flip columns so the upper factor has positive diagonal
    residual = _frobenius(k @ (signs[..., :, None] * r) - g)
    if (residual >= ORTHO_TOL * np.maximum(1.0, _frobenius(g))).any():
        raise ArithmeticError("QR reconstruction residual too large")
    return k


def _frobenius(x: np.ndarray) -> np.ndarray:
    """Frobenius norm of each matrix of a stack (a scalar for one matrix)."""
    return np.sqrt(np.einsum("...ij,...ij->...", x, x))


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
    _require_nonnegative("count", count)
    word, c_float = _reduced_lift_data(u)
    d = len(word)
    n = preset.n
    _require_stack_size((count + 3**d + 1) * n * n, f"a cell sample with count={count}")
    grid = np.array(list(iter_product((0.0, 0.5, 1.0), repeat=d)), dtype=float)
    interior = np.full((1, d), 0.5)
    rng = np.random.default_rng([seed, *u_cell_key(u)])
    uniforms = rng.random((count, d))
    ts = np.vstack([interior, grid, uniforms]) if d else np.zeros((1, 0))
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


GRAM_BLOCK = 2048  # sample rows per Gram product of the sequence form
GRAM_SLACK = 1e-6  # squared-distance slack of the exact recheck


def min_distance(u_lo, sample: CellSample) -> float | np.ndarray:
    """Smallest Frobenius distance from u_lo's matrix to a sample point.

    `u_lo` is one element, or a sequence of elements for which the array
    of their distances is returned from one pass over the sample: for each
    block of GRAM_BLOCK rows, one Gram product x @ T.T with the row and
    target norms gives every squared distance approximately, and every row
    within GRAM_SLACK of a target's block minimum is recomputed exactly, as
    the one-element form computes all rows.  The Gram form is off by at
    most about 4 n^3 eps for orthogonal points and targets (|x|^2 = n;
    2.4e-14 for n = 3), far below the slack, so the row of the exact
    minimum is always rechecked and each distance equals the one-element
    result bit for bit."""
    points = sample.points
    if points.shape[0] == 0:
        raise ValueError("empty cell sample")
    if isinstance(u_lo, UElement):
        diffs = points - _as_float(u_lo)
        diffs *= diffs
        return float(np.sqrt(diffs.sum(axis=(1, 2)).min()))
    targets = np.array([_as_float(u) for u in u_lo]).reshape(-1, *points.shape[1:])
    flat_t = targets.reshape(len(targets), points[0].size)
    t_norms = np.einsum("ij,ij->i", flat_t, flat_t)
    best = np.full(len(targets), np.inf)
    for start in range(0, len(points), GRAM_BLOCK):
        block = points[start : start + GRAM_BLOCK]
        x = block.reshape(len(block), -1)
        approx = np.einsum("ij,ij->i", x, x)[:, None] + t_norms - 2 * (x @ flat_t.T)
        rows, cols = np.nonzero(approx <= approx.min(axis=0) + GRAM_SLACK)
        diffs = block[rows]
        diffs -= targets[cols]
        diffs *= diffs
        np.minimum.at(best, cols, diffs.sum(axis=(1, 2)))
    return np.sqrt(best)


def incidence_test(u_lo: UElement, sample: CellSample, tol: float) -> bool:
    """Numerical surrogate for cell incidence: some sampled point of the
    closed cell lies within `tol` of u_lo's matrix.  Only ever used through
    agreement reports against the combinatorial order, never as its
    definition."""
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
        for lo, dist in zip(table, min_distance(table, sample).tolist()):
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
    """One step of the induced flow on K = G/AN: x -> K-part of g x, for one
    point or a stack (..., n, n) of points."""
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


def component_distance(x: np.ndarray, u_rep: UElement, blocks) -> float | np.ndarray:
    """Frobenius distance from x to the component K_H^0 u: per-block special
    orthogonal Procrustes on M = x u^T.  For a stack (..., n, n) of points it
    returns the array of their distances."""
    m = x @ _as_float(u_rep).T
    n = m.shape[-1]
    trace_max = 0.0
    for lo, hi in blocks:
        sub = m[..., lo:hi, lo:hi]
        if hi - lo == 1:
            trace_max += sub[..., 0, 0]
            continue
        uu, sv, vt = np.linalg.svd(sub)
        improper = np.linalg.det(uu @ vt) < 0
        sv[..., -1] = np.where(improper, -sv[..., -1], sv[..., -1])
        trace_max += sv.sum(axis=-1)
    return np.sqrt(np.maximum(0.0, 2 * n - 2 * trace_max))


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
    _require_nonnegative("grid", grid)
    _require_nonnegative("iters", iters)
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
    n = preset.n
    _require_stack_size((len(table) + grid) * n * n, f"a flow stack with grid={grid}")
    u_h = subgroup_U_H(preset, theta)
    classes = cosets(table, u_h)
    blocks = _h_blocks(spec.H)
    degenerate = len(theta) == datum.rank and not np.any(spec.nilpotent)

    points = np.array([_as_float(u) for u in table])
    moved = _frobenius(flow_step(spec, points) - points)
    recurrent = tuple(u for u, dist in zip(table, moved) if dist < 1e-9)
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

    # one draw of `grid` matrices is the same stream as `grid` single draws
    gauss = np.random.default_rng(seed).standard_normal((grid, n, n))
    flip = np.linalg.det(gauss) < 0
    gauss[flip, :, :2] = gauss[flip][..., [1, 0]]
    limits = np.concatenate([points, iwasawa_K(gauss)])
    for _ in range(iters):
        limits = flow_step(spec, limits)
    dists = np.stack(
        [component_distance(limits, coset.representative, blocks) for coset in classes],
        axis=-1,
    )
    nearest = dists.argmin(axis=-1)
    distances = dists.min(axis=-1)
    converged = distances <= converge_tol
    assignment = [int(k) if ok else None for k, ok in zip(nearest, converged)]
    non_convergent = np.flatnonzero(~converged)
    labels = tuple(coset_label(coset) for coset in classes)
    return MorseReport(
        preset=preset.name,
        theta=theta,
        degenerate=degenerate,
        recurrent_points=recurrent,
        component_labels=labels,
        recurrent_per_component=per_component,
        attractor_components=attractors,
        start_count=len(limits),
        component_assignment=tuple(assignment),
        limit_distances=tuple(distances.tolist()),
        non_convergent=tuple(non_convergent.tolist()),
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
