"""Paper formulas that the oracle checks but no engine path runs.

The Schubert oracle samples split groups only, through block rotations
(`wtits.oracle._cell_block`), and the flow oracle never conjugates its
unipotent part.  The functions here write out the two other formulas the
acceptance suite checks:

* `rank_one_generators` and `psi_rank_one`: the sphere cell map
  exp(t A(z, v)) w of a real rank-one group, with its identities
  A^2 = -J and A^3 = -A,
* `contraction_check`: the residuals of h^{-k} exp(N) h^k -> 1 for a
  unipotent N on roots positive on H.
"""

import numpy as np

from wtits.oracle import _exp_nilpotent


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
