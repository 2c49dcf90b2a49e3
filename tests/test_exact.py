"""Exact arithmetic layer: integer matrices, rational elimination."""

from fractions import Fraction
from itertools import permutations
from math import prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wtits.exact import (
    as_int_matrix,
    determinant,
    frac_mat_mul,
    frac_vec_mat,
    identity_matrix,
    mat_inverse,
    mat_mul,
    mat_pow,
    solve_many,
)


def test_as_int_matrix_validation():
    assert as_int_matrix([[1, 0], [0, 1]]) == identity_matrix(2)
    with pytest.raises(ValueError):
        as_int_matrix([[1, 0], [0]])
    with pytest.raises(ValueError):
        as_int_matrix([[1.5, 0], [0, 1]])
    with pytest.raises(ValueError, match="plain integers, got True"):
        as_int_matrix([[True, 0], [0, 1]])


def test_determinant_known_values():
    assert determinant(identity_matrix(4)) == 1
    assert determinant(((0, 1), (1, 0))) == -1
    assert determinant(((2, 0, 0), (0, 3, 0), (0, 0, 4))) == 24
    assert determinant(((1, 2), (2, 4))) == 0


def test_mat_inverse_orthogonal_and_unimodular():
    rot = ((0, -1), (1, 0))
    assert mat_inverse(rot) == tuple(zip(*rot))
    shear = ((1, 5), (0, 1))
    inv = mat_inverse(shear)
    assert inv == ((1, -5), (0, 1))
    assert mat_mul(shear, inv) == identity_matrix(2)
    with pytest.raises(ValueError):
        mat_inverse(((2, 0), (0, 1)))  # determinant 2: no integer inverse
    with pytest.raises(ValueError):
        mat_inverse(((1, 2), (2, 4)))  # singular


def test_mat_pow():
    rot = ((0, -1), (1, 0))
    assert mat_pow(rot, 0) == identity_matrix(2)
    assert mat_pow(rot, 4) == identity_matrix(2)
    assert mat_pow(rot, -1) == tuple(zip(*rot))
    shear = ((1, 1), (0, 1))
    assert mat_pow(shear, 7) == ((1, 7), (0, 1))
    assert mat_pow(shear, -3) == ((1, -3), (0, 1))


def leibniz(a):
    """det a = sum over permutations p of sign(p) * prod_i a[i][p(i)]."""
    n = len(a)
    total = 0
    for p in permutations(range(n)):
        inversions = sum(p[i] > p[j] for i in range(n) for j in range(i + 1, n))
        total += (-1) ** inversions * prod(a[i][p[i]] for i in range(n))
    return total


@st.composite
def square_int_matrices(draw):
    """1x1 to 5x5 integer matrices; a third of them made singular by
    repeating a row (or a zero row when n = 1)."""
    n = draw(st.integers(min_value=1, max_value=5))
    rows = [
        draw(st.lists(st.integers(min_value=-4, max_value=4), min_size=n, max_size=n))
        for _ in range(n)
    ]
    if draw(st.integers(min_value=0, max_value=2)) == 0:
        i = draw(st.integers(min_value=0, max_value=n - 1))
        j = draw(st.integers(min_value=0, max_value=n - 1))
        rows[i] = list(rows[j]) if i != j else [0] * n
    return tuple(tuple(row) for row in rows)


@settings(max_examples=200, deadline=None)
@given(square_int_matrices())
def test_determinant_matches_leibniz_expansion(a):
    det = determinant(a)
    assert type(det) is int
    assert det == leibniz(a)


def test_determinant_singular_and_row_swaps():
    assert determinant(((0,),)) == 0
    assert determinant(((0, 0), (0, 0))) == 0
    assert determinant(((0, 0, 1), (0, 1, 0), (1, 0, 0))) == -1
    assert determinant(((0, 2, 1), (3, 0, 1), (1, 1, 0))) == leibniz(((0, 2, 1), (3, 0, 1), (1, 1, 0)))
    assert determinant(()) == 1


# -- the rational kernels against their dense definitions ---------------------

def dense_mat_mul(a, b):
    return tuple(tuple(sum(x * y for x, y in zip(row, col)) for col in zip(*b)) for row in a)


def dense_vec_mat(v, m):
    return tuple(sum(v[i] * m[i][j] for i in range(len(v))) for j in range(len(m[0])))


def eliminate_one(columns, target):
    """Per-target Gauss-Jordan elimination on [columns | target], every
    entry touched, then a reconstruction check: the definition that
    `solve_many` must match."""
    rows, k = len(target), len(columns)
    if not k:
        return () if all(x == 0 for x in target) else None
    aug = [[Fraction(columns[j][i]) for j in range(k)] + [Fraction(target[i])] for i in range(rows)]
    pivots, r = [], 0
    for c in range(k):
        pivot = next((i for i in range(r, rows) if aug[i][c] != 0), None)
        if pivot is None:
            continue
        aug[r], aug[pivot] = aug[pivot], aug[r]
        aug[r] = [x / aug[r][c] for x in aug[r]]
        for i in range(rows):
            if i != r:
                aug[i] = [x - aug[i][c] * y for x, y in zip(aug[i], aug[r])]
        pivots.append((r, c))
        r += 1
        if r == rows:
            break
    if any(aug[i][k] != 0 for i in range(r, rows)):
        return None
    coeffs = [Fraction(0)] * k
    for row, col in pivots:
        coeffs[col] = aug[row][k]
    if any(sum(coeffs[j] * columns[j][i] for j in range(k)) != target[i] for i in range(rows)):
        return None
    return tuple(coeffs)


# mostly zeros, as in the reflection and signed-permutation matrices of a load
sparse_entries = st.one_of(
    st.just(Fraction(0)),
    st.just(Fraction(0)),
    st.just(Fraction(0)),
    st.builds(Fraction, st.integers(-3, 3), st.integers(1, 4)),
)


@st.composite
def sparse_matrix(draw, rows, cols):
    m = [draw(st.lists(sparse_entries, min_size=cols, max_size=cols)) for _ in range(rows)]
    if rows and draw(st.booleans()):  # an all-zero row
        m[draw(st.integers(0, rows - 1))] = [Fraction(0)] * cols
    if cols and draw(st.booleans()):  # an all-zero column
        j = draw(st.integers(0, cols - 1))
        for row in m:
            row[j] = Fraction(0)
    return tuple(tuple(row) for row in m)


@st.composite
def sparse_products(draw):
    p, q, r = (draw(st.integers(1, 5)) for _ in range(3))
    return draw(sparse_matrix(p, q)), draw(sparse_matrix(q, r))


def all_fractions(values):
    return all(type(x) is Fraction for x in values)


@settings(max_examples=100, deadline=None)
@given(sparse_products())
def test_sparse_kernels_match_dense_definitions(ab):
    a, b = ab
    product_ab = frac_mat_mul(a, b)
    assert product_ab == dense_mat_mul(a, b)
    assert all(all_fractions(row) for row in product_ab)
    for v in a:
        image = frac_vec_mat(v, b)
        assert image == dense_vec_mat(v, b)
        assert all_fractions(image)


def test_sparse_kernels_on_zero_matrices():
    zero = ((Fraction(0),) * 3,) * 2
    eye = tuple(tuple(Fraction(int(i == j)) for j in range(3)) for i in range(3))
    assert frac_mat_mul(zero, eye) == zero
    assert all(all_fractions(row) for row in frac_mat_mul(zero, eye))
    assert frac_vec_mat(zero[0], eye) == zero[0]
    assert all_fractions(frac_vec_mat(zero[0], eye))


@st.composite
def rational_systems(draw):
    """Columns with dependent members (rank-deficient on purpose) and
    targets inside and outside their span; sometimes no columns at all."""
    rows = draw(st.integers(1, 5))
    k = draw(st.integers(0, 4))
    columns = [draw(st.lists(sparse_entries, min_size=rows, max_size=rows)) for _ in range(k)]
    if k >= 2 and draw(st.booleans()):  # a dependent column
        c = draw(st.builds(Fraction, st.integers(-2, 2), st.integers(1, 3)))
        columns[-1] = [x + c * y for x, y in zip(columns[0], columns[1])]
    targets = []
    for _ in range(draw(st.integers(1, 4))):
        if k and draw(st.booleans()):  # a combination of the columns
            coeffs = [draw(st.builds(Fraction, st.integers(-3, 3), st.integers(1, 3))) for _ in range(k)]
            targets.append(tuple(sum((a * col[i] for a, col in zip(coeffs, columns)), Fraction(0)) for i in range(rows)))
        else:
            targets.append(tuple(draw(st.lists(sparse_entries, min_size=rows, max_size=rows))))
    return [tuple(col) for col in columns], targets


@settings(max_examples=150, deadline=None)
@given(rational_systems())
def test_solve_many_matches_per_target_elimination(system):
    columns, targets = system
    solutions = solve_many(columns, targets)
    assert len(solutions) == len(targets)
    for target, solution in zip(targets, solutions):
        assert solution == eliminate_one(columns, target)
        if solution is not None:
            assert all_fractions(solution)
            rebuilt = [sum((a * col[i] for a, col in zip(solution, columns)), Fraction(0)) for i in range(len(target))]
            assert rebuilt == list(target)


def test_solve_many_rank_deficient_and_out_of_span():
    one, zero = Fraction(1), Fraction(0)
    columns = [(one, zero, zero), (2 * one, zero, zero), (zero, one, zero)]
    solutions = solve_many(columns, [(3 * one, 5 * one, zero), (zero, zero, one), (zero, zero, zero)])
    assert solutions == [(3 * one, zero, 5 * one), None, (zero, zero, zero)]
    assert all(all_fractions(x) for x in solutions if x is not None)
    assert solve_many([], [(zero, zero), (one, zero)]) == [(), None]
    assert solve_many(columns, []) == []


@st.composite
def unimodular(draw):
    """Random products of elementary shears and swaps: determinant +-1."""
    n = draw(st.integers(min_value=2, max_value=4))
    m = identity_matrix(n)
    for _ in range(draw(st.integers(min_value=0, max_value=6))):
        kind = draw(st.sampled_from(["shear", "swap"]))
        i = draw(st.integers(min_value=0, max_value=n - 1))
        j = draw(st.integers(min_value=0, max_value=n - 1).filter(lambda x: x != i))
        e = [list(row) for row in identity_matrix(n)]
        if kind == "shear":
            e[i][j] = draw(st.integers(min_value=-3, max_value=3))
        else:
            e[i][i] = e[j][j] = 0
            e[i][j] = 1
            e[j][i] = draw(st.sampled_from([1, -1]))
        m = mat_mul(m, tuple(tuple(row) for row in e))
    return m


@settings(max_examples=80, deadline=None)
@given(unimodular())
def test_inverse_roundtrip_on_unimodular(m):
    assert abs(determinant(m)) == 1
    inv = mat_inverse(m)
    assert mat_mul(m, inv) == identity_matrix(len(m))
    assert mat_mul(inv, m) == identity_matrix(len(m))


def test_derived_positive_roots():
    from wtits.rootsys import RootDatum

    b2 = RootDatum.create([(1, -1), (0, 1)], multiplicities=(1, 2))
    assert sorted(tuple(map(int, r)) for r in b2.positive_roots) == [
        (0, 1),
        (1, -1),
        (1, 0),
        (1, 1),
    ]
    a2 = RootDatum.create([(0, 1, -1), (1, -1, 0)])
    assert len(a2.positive_roots) == 3
