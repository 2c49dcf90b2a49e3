"""Exact linear algebra over the integers and rationals.

Matrices are immutable tuples of row tuples, so they hash and compare by
value and can serve as canonical dictionary keys for group elements.
Integer matrices carry the group elements themselves; Fraction matrices
appear wherever reflection coefficients or change-of-basis data can leave
the integers.  No floating point enters here.

The matrices met at load time (Weyl reflections, signed permutations,
flattened Cartan basis matrices) are mostly zeros, so the rational kernels
never multiply by a zero entry: `frac_mat_mul` and `frac_vec_mat` skip zero
factors and start every sum at `Fraction(0)`, and `solve_many` eliminates
with the pivot row's nonzero entries only.  `solve_many` also reduces one
basis once for any number of right-hand sides, and still verifies every
reconstruction.  `determinant` is integer Bareiss elimination.
"""

from __future__ import annotations

from fractions import Fraction
from operator import mul
from typing import Iterable, Sequence

IntMatrix = tuple[tuple[int, ...], ...]
FracMatrix = tuple[tuple[Fraction, ...], ...]
FracVector = tuple[Fraction, ...]

_ZERO = Fraction(0)


def as_int_matrix(rows: Iterable[Iterable[int]]) -> IntMatrix:
    """Freeze an iterable of rows into a square integer matrix."""
    mat = tuple(tuple(row) for row in rows)
    n = len(mat)
    for row in mat:
        if len(row) != n:
            raise ValueError("matrix must be square")
        for x in row:
            if isinstance(x, bool) or not isinstance(x, int):  # bool is an int subclass
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


def determinant(a: IntMatrix) -> int:
    """Determinant via fraction-free (Bareiss) elimination on integers:
    each step's division by the previous pivot is exact, and a remainder
    would raise ArithmeticError."""
    n = len(a)
    m = [list(row) for row in a]
    sign, prev = 1, 1
    for col in range(n):
        pivot = next((r for r in range(col, n) if m[r][col] != 0), None)
        if pivot is None:
            return 0
        if pivot != col:
            m[col], m[pivot] = m[pivot], m[col]
            sign = -sign
        top = m[col]
        p = top[col]
        for r in range(col + 1, n):
            row = m[r]
            f = row[col]
            for j in range(col + 1, n):
                q, rem = divmod(row[j] * p - f * top[j], prev)
                if rem:
                    raise ArithmeticError("integer determinant came out fractional")
                row[j] = q
        prev = p
    return sign * m[n - 1][n - 1] if n else 1


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
    columns = solve_many(t, frac_identity(n))
    if None in columns or any(x.denominator != 1 for col in columns for x in col):
        raise ValueError("matrix is not invertible over the integers")
    return tuple(tuple(int(col[i]) for col in columns) for i in range(n))


# -- rational matrices -------------------------------------------------------


def frac_identity(n: int) -> FracMatrix:
    one, zero = Fraction(1), Fraction(0)
    return tuple(tuple(one if i == j else zero for j in range(n)) for i in range(n))


def frac_mat_mul(a: FracMatrix, b: FracMatrix) -> FracMatrix:
    """a b, summing only the products of two nonzero entries; the first
    product of an entry is stored, not added to zero."""
    width = len(b[0]) if b else 0
    out = []
    for row in a:
        acc = [_ZERO] * width
        for x, b_row in zip(row, b):
            if x:
                for j, y in enumerate(b_row):
                    if y:
                        acc[j] = x * y if acc[j] is _ZERO else acc[j] + x * y
        out.append(tuple(acc))
    return tuple(out)


def frac_vec_mat(v: FracVector, m: FracMatrix) -> FracVector:
    """Row vector times matrix; the natural action on covectors.  Only the
    products of two nonzero entries are summed."""
    acc = [_ZERO] * len(m[0])
    for x, m_row in zip(v, m):
        if x:
            for j, y in enumerate(m_row):
                if y:
                    acc[j] += x * y
    return tuple(acc)


def solve_many(
    columns: Sequence[FracVector], targets: Sequence[FracVector]
) -> list[FracVector | None]:
    """For each target, the coefficients expressing it in the span of
    `columns`, or None when it lies outside.

    One Gauss-Jordan elimination of [columns | targets] serves every target.
    Pivots are chosen in the column block alone, so each answer is the one
    a separate elimination of [columns | target] gives: the pivot variables
    solved, the free ones zero.  Each reconstruction is then verified, so a
    None really means "not in the span".
    """
    if not columns:
        return [() if all(x == 0 for x in t) else None for t in targets]
    rows = len(columns[0])
    k = len(columns)
    aug = [
        [Fraction(col[i]) for col in columns] + [Fraction(t[i]) for t in targets]
        for i in range(rows)
    ]
    pivots: list[int] = []  # pivots[r] is the column of row r's pivot
    r = 0
    for c in range(k):
        if r == rows:
            break
        pivot = next((i for i in range(r, rows) if aug[i][c]), None)
        if pivot is None:
            continue
        aug[r], aug[pivot] = aug[pivot], aug[r]
        inv = 1 / aug[r][c]
        top = aug[r] = [x * inv if x else x for x in aug[r]]
        nonzero = [(j, x) for j, x in enumerate(top) if x]
        for i, row in enumerate(aug):
            factor = row[c]
            if i != r and factor:
                for j, x in nonzero:
                    row[j] -= factor * x
        pivots.append(c)
        r += 1
    solutions: list[FracVector | None] = []
    for t, target in enumerate(targets, start=k):
        if any(aug[i][t] for i in range(r, rows)):
            solutions.append(None)
            continue
        coeffs = [_ZERO] * k
        for row, col in enumerate(pivots):
            coeffs[col] = aug[row][t]
        # verify the reconstruction (guards against rank-deficient columns)
        rebuilt = [_ZERO] * rows
        for coeff, column in zip(coeffs, columns):
            if coeff:
                for i, x in enumerate(column):
                    if x:
                        rebuilt[i] += coeff * x
        solutions.append(tuple(coeffs) if rebuilt == list(target) else None)
    return solutions
