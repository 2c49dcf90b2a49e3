"""Exact arithmetic layer: integer matrices, rational elimination."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wtits.exact import (
    as_int_matrix,
    determinant,
    identity_matrix,
    is_signed_permutation,
    mat_inverse,
    mat_mul,
    mat_pow,
    solve_in_span,
)


def test_as_int_matrix_validation():
    assert as_int_matrix([[1, 0], [0, 1]]) == identity_matrix(2)
    with pytest.raises(ValueError):
        as_int_matrix([[1, 0], [0]])
    with pytest.raises(ValueError):
        as_int_matrix([[1.5, 0], [0, 1]])


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


def test_is_signed_permutation():
    assert is_signed_permutation(((0, -1), (1, 0)))
    assert not is_signed_permutation(((1, 1), (0, 1)))
    assert not is_signed_permutation(((1, 0), (1, 0)))
    assert not is_signed_permutation(((2, 0), (0, 1)))


def test_solve_in_span():
    cols = [(Fraction(1), Fraction(0), Fraction(1)), (Fraction(0), Fraction(1), Fraction(1))]
    assert solve_in_span(cols, (Fraction(2), Fraction(3), Fraction(5))) == (
        Fraction(2),
        Fraction(3),
    )
    assert solve_in_span(cols, (Fraction(1), Fraction(1), Fraction(3))) is None
    assert solve_in_span([], (Fraction(0), Fraction(0))) == ()
    assert solve_in_span([], (Fraction(1),)) is None


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
