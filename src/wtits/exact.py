"""Exact linear algebra over the integers and rationals.

Matrices are immutable tuples of row tuples, so they hash and compare by
value and can serve as canonical dictionary keys for group elements.
Integer matrices carry the group elements themselves; Fraction matrices
appear wherever reflection coefficients or change-of-basis data can leave
the integers.  No floating point enters here.
"""

from __future__ import annotations

from fractions import Fraction
from operator import mul
from typing import Iterable, Sequence

IntMatrix = tuple[tuple[int, ...], ...]
FracMatrix = tuple[tuple[Fraction, ...], ...]
FracVector = tuple[Fraction, ...]


def as_int_matrix(rows: Iterable[Iterable[int]]) -> IntMatrix:
    """Freeze an iterable of rows into a square integer matrix."""
    mat = tuple(tuple(row) for row in rows)
    n = len(mat)
    for row in mat:
        if len(row) != n:
            raise ValueError("matrix must be square")
        for x in row:
            if not isinstance(x, int):
                raise ValueError(f"matrix entries must be plain integers, got {x!r}")
    return mat


def identity_matrix(n: int) -> IntMatrix:
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def mat_mul(a: IntMatrix, b: IntMatrix) -> IntMatrix:
    bt = tuple(zip(*b))
    return tuple(tuple(sum(map(mul, row, col)) for col in bt) for row in a)


def mat_pow(a: IntMatrix, k: int) -> IntMatrix:
    if k < 0:
        return mat_pow(mat_inverse(a), -k)
    result = identity_matrix(len(a))
    base = a
    while k:
        if k & 1:
            result = mat_mul(result, base)
        base = mat_mul(base, base)
        k >>= 1
    return result


def is_signed_permutation(a: IntMatrix) -> bool:
    """Exactly one entry of modulus 1 per row and per column, rest zero."""
    n = len(a)
    col_hits = [0] * n
    for row in a:
        hits = [j for j, x in enumerate(row) if x != 0]
        if len(hits) != 1 or abs(row[hits[0]]) != 1:
            return False
        col_hits[hits[0]] += 1
    return all(c == 1 for c in col_hits)


def determinant(a: IntMatrix) -> int:
    """Determinant via fraction-free Gaussian elimination."""
    n = len(a)
    m = [[Fraction(x) for x in row] for row in a]
    det = Fraction(1)
    for col in range(n):
        pivot = next((r for r in range(col, n) if m[r][col] != 0), None)
        if pivot is None:
            return 0
        if pivot != col:
            m[col], m[pivot] = m[pivot], m[col]
            det = -det
        det *= m[col][col]
        inv = 1 / m[col][col]
        for r in range(col + 1, n):
            factor = m[r][col] * inv
            if factor:
                m[r] = [x - factor * y for x, y in zip(m[r], m[col])]
    if det.denominator != 1:
        raise ArithmeticError("integer determinant came out fractional")
    return int(det)


def mat_inverse(a: IntMatrix) -> IntMatrix:
    """Exact inverse of an integer matrix with determinant +-1.

    Orthogonal matrices (all preset group elements) invert by transpose,
    verified by a multiplication; anything else goes through rational
    elimination with an integrality check.
    """
    n = len(a)
    t = tuple(zip(*a))
    if mat_mul(a, t) == identity_matrix(n):
        return t
    # column i of the inverse solves a x = e_i
    columns = [solve_in_span(t, unit) for unit in frac_identity(n)]
    if None in columns or any(x.denominator != 1 for col in columns for x in col):
        raise ValueError("matrix is not invertible over the integers")
    return tuple(tuple(int(col[i]) for col in columns) for i in range(n))


# -- rational matrices -------------------------------------------------------


def frac_identity(n: int) -> FracMatrix:
    one, zero = Fraction(1), Fraction(0)
    return tuple(tuple(one if i == j else zero for j in range(n)) for i in range(n))


def frac_mat_mul(a: FracMatrix, b: FracMatrix) -> FracMatrix:
    bt = tuple(zip(*b))
    return tuple(
        tuple(sum(x * y for x, y in zip(row, col)) for col in bt) for row in a
    )


def frac_vec_mat(v: FracVector, m: FracMatrix) -> FracVector:
    """Row vector times matrix; the natural action on covectors."""
    return tuple(sum(v[i] * m[i][j] for i in range(len(v))) for j in range(len(m[0])))


def solve_in_span(columns: Sequence[FracVector], target: FracVector) -> FracVector | None:
    """Coefficients expressing `target` in the span of `columns`, or None.

    Solves the (possibly overdetermined) system by elimination and verifies
    the reconstruction, so a None really means "not in the span".
    """
    if not columns:
        return () if all(x == 0 for x in target) else None
    rows = len(target)
    k = len(columns)
    aug = [[Fraction(columns[j][i]) for j in range(k)] + [Fraction(target[i])] for i in range(rows)]
    pivots: list[tuple[int, int]] = []
    r = 0
    for c in range(k):
        pivot = next((i for i in range(r, rows) if aug[i][c] != 0), None)
        if pivot is None:
            continue
        aug[r], aug[pivot] = aug[pivot], aug[r]
        inv = 1 / aug[r][c]
        aug[r] = [x * inv for x in aug[r]]
        for i in range(rows):
            if i != r and aug[i][c]:
                factor = aug[i][c]
                aug[i] = [x - factor * y for x, y in zip(aug[i], aug[r])]
        pivots.append((r, c))
        r += 1
        if r == rows:
            break
    for i in range(r, rows):
        if aug[i][k] != 0:
            return None
    coeffs = [Fraction(0)] * k
    for row, col in pivots:
        coeffs[col] = aug[row][k]
    # verify (guards against rank-deficient column sets)
    for i in range(rows):
        if sum(coeffs[j] * columns[j][i] for j in range(k)) != target[i]:
            return None
    return tuple(coeffs)
