"""The closures of U, C and U's subgroups against independent references.

U: the breadth-first search over integer matrix products that the closure
on orbit-of-rows codes replaces.  Both must give the same elements in the
same discovery order, the same right-multiplication table and the same
generator words, so element indices, key order and every output stay the
same, whether or not the generators are signed permutations.

C: a level-by-level loop over U's table that sorts each level by its token
spellings and composes generator rows along each spelling.  The closure on
U's table must give the same spellings (the display words of C parts), and
right multiplication by each c through `at` and C's own table `c_mul` must
give the composed tables.

U_H and U(S): matrix-product closures of their generators, against the
closures on U's table.

Inverses and key order: each `inverse[k]` against the exact matrix
inverse, and U's and C's tables, which are built without sorting again,
against a sort of the reference closure."""

from pathlib import Path

import pytest
from test_utits import SHEAR_SL2, SL3_CONFIG, is_signed_permutation

from wtits import (
    display_word,
    enumerate_C,
    enumerate_U,
    load_config,
    load_preset,
    subgroup_U_H,
    subgroup_closure,
)
from wtits import exact, utits
from wtits.cli import hasse_json
from wtits.exact import identity_matrix, mat_inverse, mat_mul
from wtits.utits import GroupPreset, UElement, _closure, compile_group

CUSTOM_O3 = Path(__file__).resolve().parent.parent / "benchmarks" / "custom_o3.json"

# the sl3 config with an extra C generator c1 = diag(1, -1, -1) = s1^2: two
# steps of C's closure are one element, and the spelling keeps s1^2
C1_IS_S1_SQUARED = dict(
    SL3_CONFIG, name="c1-is-s1-squared", c_generators=[[[1, 0, 0], [0, -1, 0], [0, 0, -1]]]
)

# the sl3 config with every generator and Cartan basis matrix conjugated,
# g -> P^-1 g P, by P = ((1, 1, 0), (0, 1, 1), (0, 0, 1)): the same group,
# none of whose generators is a signed permutation
SHEAR_P = ((1, 1, 0), (0, 1, 1), (0, 0, 1))


def _sheared(mat):
    return mat_mul(mat_mul(mat_inverse(SHEAR_P), mat), SHEAR_P)


SHEARED_SL3 = dict(
    SL3_CONFIG,
    name="sheared-sl3",
    generators=[_sheared(g) for g in SL3_CONFIG["generators"]],
    a_basis=[_sheared(h) for h in SL3_CONFIG["a_basis"]],
)


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


def reference_close_c(tables):
    """C level by level on U's table: each level is reached from the last
    one, sorted by spelling, through the s_i^2 and then the c_j in generator
    order; a new element takes the first spelling that reaches it, and its
    right-multiplication table is composed row by row along its letters."""
    rank = tables.preset.rank
    ops = [(f"s{i}^2", (i - 1, i - 1)) for i in range(1, rank + 1)]
    ops += [(f"c{j}", (rank + j - 1,)) for j in range(1, len(tables.preset.c_generators) + 1)]
    e = tables.identity
    c_tokens = {e: ()}
    c_right = {e: tuple(range(len(tables.pi)))}
    frontier = [e]
    while frontier:
        found = []
        for x in frontier:
            for token, letters in ops:
                y = tables.walk(x, letters)
                if y not in c_tokens:
                    c_tokens[y] = c_tokens[x] + (token,)
                    table = c_right[x]
                    for g in letters:
                        row = tables.right[g]
                        table = tuple(row[z] for z in table)
                    c_right[y] = table
                    found.append(y)
        found.sort(key=c_tokens.__getitem__)
        frontier = found
    return c_tokens, c_right


def _load(name):
    if name == "custom":
        return load_config(str(CUSTOM_O3))
    if name == "shear":
        return load_config(SHEAR_SL2)
    if name == "c1":
        return load_config(C1_IS_S1_SQUARED)
    if name == "sheared-sl3":
        return load_config(SHEARED_SL3)
    return load_preset(name)


def _counting_mat_mul(monkeypatch):
    calls = []

    def counted(a, b):
        calls.append(1)
        return mat_mul(a, b)

    monkeypatch.setattr(exact, "mat_mul", counted)
    monkeypatch.setattr(utits, "mat_mul", counted)
    return calls


@pytest.mark.parametrize(
    "name,signed",
    [
        ("sl3", True), ("so24", True), ("custom", True), ("c1", True), ("sl4", True),
        ("sl5", True), ("shear", False), ("sheared-sl3", False),
    ],
)
def test_closure_matches_matrix_product_reference(name, signed, monkeypatch):
    preset = _load(name)
    identity = identity_matrix(preset.n)
    generators = preset.generators + preset.c_generators
    expected = reference_closure(identity, generators)
    calls = _counting_mat_mul(monkeypatch)
    rows, codes, right, words = _closure(identity, generators, utits.DEFAULT_CLOSURE_BOUND)
    assert rows == sorted(set(rows))
    assert ([tuple(map(rows.__getitem__, code)) for code in codes], right, words) == expected
    # every group closes on row codes, whether or not its generators are signed permutations
    assert not calls
    assert all(map(is_signed_permutation, generators)) == signed


def test_sheared_sl3_has_the_order_of_sl3():
    sheared, plain = load_config(SHEARED_SL3), load_config(SL3_CONFIG)
    table = enumerate_U(sheared)
    assert len(table) == 24 and len(enumerate_C(sheared)) == 4
    got, want = hasse_json(table), hasse_json(enumerate_U(plain))
    assert [e["word"] for e in got["elements"]] == [e["word"] for e in want["elements"]]
    assert got["covers"] == want["covers"]


def _sorted_closure(preset, generators):
    mats, _, _ = reference_closure(identity_matrix(preset.n), generators)
    return sorted(mats)


@pytest.mark.parametrize("name", ["sl3", "so24", "custom", "shear", "c1", "sl4", "sl5"])
def test_c_closure_matches_level_reference(name):
    tables = compile_group(_load(name))
    expected_tokens, expected_right = reference_close_c(tables)
    assert tables._close_c() == expected_tokens
    assert tables.c_tokens == tuple(map(expected_tokens.__getitem__, tables.c_ids))
    # right multiplication by every c through `at` and C's own table
    everything = range(len(tables.pi))
    assert sorted(expected_right) == list(tables.c_ids)
    for t, c in enumerate(tables.c_ids):
        assert tuple(tables.times_c(everything, t)) == expected_right[c]


def test_c_words_keep_the_earlier_of_equal_steps():
    # c1 = s1^2 is spelled s1^2, the earlier generator, although "c1" < "s1^2"
    preset = _load("c1")
    tables = compile_group(preset)
    assert sorted(tables.c_tokens) == [(), ("s1^2",), ("s1^2", "s2^2"), ("s2^2",)]
    words = sorted(display_word(c) for c in enumerate_C(preset))
    assert words == ["1", "s1^2", "s1^2 s2^2", "s2^2"]


def test_subgroup_tables_match_reference(sl4):
    s1, s3 = sl4.generator(1), sl4.generator(3)
    custom, shear = _load("custom"), _load("shear")
    c1 = UElement(custom.c_generators[0], custom)
    cases = [
        (subgroup_U_H(sl4, {1}), [s1]),  # U_H with Theta = {1}
        (subgroup_U_H(sl4, {1, 3}), [s1, s3]),
        (subgroup_closure(sl4, [s1]), [s1]),  # U(S) = <s1>
        (subgroup_closure(custom, [c1]), [c1]),  # an extra C generator
        (subgroup_closure(shear, [shear.generator(1)]), [shear.generator(1)]),  # not signed
    ]
    for table, gens in cases:
        expected = _sorted_closure(table.preset, [g.matrix for g in gens])
        assert [u.matrix for u in table] == expected
        assert list(table.ids) == sorted(table.ids)
        assert [table.tables.position(UElement(m, table.preset)) for m in expected] == list(table.ids)


@pytest.mark.parametrize("name", ["sl3", "so24", "custom", "shear", "sl4"])
def test_inverse_table_matches_matrix_inverse(name):
    tables = compile_group(_load(name))
    preset = tables.preset
    for k, u in enumerate(tables.U):
        assert tables.inverse[k] == tables.position(UElement(mat_inverse(u.matrix), preset))


def test_every_element_times_its_inverse_is_the_identity_on_sl5():
    tables = compile_group(load_preset("sl5"))
    assert {tables.mul(k, tables.inverse[k]) for k in range(len(tables.U))} == {tables.identity}


@pytest.mark.parametrize("name", ["sl3", "so24", "custom", "shear", "sl4"])
def test_group_tables_keep_key_order_and_index(name):
    # U's indices follow its sorted codes: element k is the k-th matrix of
    # the sorted reference closure, and `position` finds each one back
    tables = compile_group(_load(name))
    preset = tables.preset
    expected = _sorted_closure(preset, preset.generators + preset.c_generators)
    assert [tables.element(k).matrix for k in range(len(expected))] == expected
    assert [tables.position(UElement(m, preset)) for m in expected] == list(range(len(expected)))
    assert list(tables.U.ids) == list(range(len(expected)))
    assert list(tables.C.ids) == list(tables.c_ids) == sorted(tables.c_ids)
    assert [u.matrix for u in tables.C] == [expected[c] for c in tables.c_ids]


def test_compile_builds_no_elements(monkeypatch):
    # compiling sl5 builds its tables alone: no UElement, until one is asked for
    sl5 = load_preset("sl5")
    fresh = GroupPreset(
        sl5.name, sl5.n, sl5.generators, sl5.c_generators, sl5.root_datum, sl5.a_basis, sl5.label
    )
    built = []
    init = UElement.__init__

    def counted(self, matrix, preset):
        built.append(matrix)
        init(self, matrix, preset)

    monkeypatch.setattr(UElement, "__init__", counted)
    tables = compile_group(fresh)
    assert len(tables.pi) == 1920 and built == []
    assert tables.element(5) is tables.element(5) and len(built) == 1
