"""The closure of U against an independent reference: the breadth-first
search over integer matrix products that the signed-column codes replace.

Both must give the same elements in the same discovery order, the same
right-multiplication table and the same generator words, so element
indices, key order and every output stay the same."""

from pathlib import Path

import pytest
from test_utits import SHEAR_SL2

from wtits import load_config, load_preset, subgroup_U_H, subgroup_closure
from wtits import utits
from wtits.exact import identity_matrix, mat_mul
from wtits.utits import FiniteGroupTable, UElement, _closure, _code_matrices, _signed_code

CUSTOM_O3 = Path(__file__).resolve().parent.parent / "benchmarks" / "custom_o3.json"


def reference_closure(identity, generators):
    """Breadth-first closure keyed by the matrices themselves, one integer
    matrix product per (element, generator)."""
    mats = [identity]
    found = {identity: 0}
    words = [()]
    right = [[] for _ in generators]
    k = 0
    while k < len(mats):
        for g, (gen, row) in enumerate(zip(generators, right)):
            prod = mat_mul(mats[k], gen)
            j = found.get(prod)
            if j is None:
                j = found[prod] = len(mats)
                mats.append(prod)
                words.append(words[k] + (g,))
            row.append(j)
        k += 1
    return mats, right, words


def _load(name):
    if name == "custom":
        return load_config(str(CUSTOM_O3))
    if name == "shear":
        return load_config(SHEAR_SL2)
    return load_preset(name)


def _counting_mat_mul(monkeypatch):
    calls = []

    def counted(a, b):
        calls.append(1)
        return mat_mul(a, b)

    monkeypatch.setattr(utits, "mat_mul", counted)
    return calls


@pytest.mark.parametrize(
    "name,signed",
    [("sl3", True), ("so24", True), ("custom", True), ("sl4", True), ("sl5", True), ("shear", False)],
)
def test_closure_matches_matrix_product_reference(name, signed, monkeypatch):
    preset = _load(name)
    identity = identity_matrix(preset.n)
    generators = preset.generators + preset.c_generators
    expected = reference_closure(identity, generators)
    calls = _counting_mat_mul(monkeypatch)
    assert _closure(identity, generators, utits.DEFAULT_CLOSURE_BOUND) == expected
    # signed permutations step on codes; anything else multiplies matrices
    assert (not calls) == signed
    assert all(_signed_code(g) is not None for g in generators) == signed


def _table_of(preset, generators):
    mats, _, _ = reference_closure(identity_matrix(preset.n), [g.matrix for g in generators])
    return FiniteGroupTable(UElement(m, preset) for m in mats)


def test_subgroup_tables_match_reference(sl4):
    s1, s3 = sl4.generator(1), sl4.generator(3)
    cases = [
        (subgroup_U_H(sl4, {1}), [s1]),  # U_H with Theta = {1}
        (subgroup_U_H(sl4, {1, 3}), [s1, s3]),
        (subgroup_closure(sl4, [s1]), [s1]),  # U(S) = <s1>
    ]
    for table, gens in cases:
        expected = _table_of(sl4, gens)
        assert [u.matrix for u in table] == [u.matrix for u in expected]
        assert table.index == expected.index


def test_signed_code_round_trip(sl3):
    s1 = sl3.generator(1).matrix  # ((1, 0, 0), (0, 0, -1), (0, 1, 0))
    assert _signed_code(s1) == (1, 3, -2)
    assert _signed_code(identity_matrix(3)) == (1, 2, 3)
    assert _signed_code(((1, 1), (0, 1))) is None
    assert _signed_code(((2, 0), (0, 1))) is None
    codes = [(1, 3, -2), (-1, -2, 3), (2, -1, 3)]
    _code_matrices(codes, 3)
    assert codes == [s1, ((-1, 0, 0), (0, -1, 0), (0, 0, 1)), ((0, -1, 0), (1, 0, 0), (0, 0, 1))]
