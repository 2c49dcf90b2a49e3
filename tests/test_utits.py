"""Group layer: preset data, enumeration, projection, canonical lifts,
subgroups and cosets.  Expected matrices are frozen from the defining data
of the groups (independent hand multiplication where derived)."""

import math
import re

import pytest

import weyl_reference as ref
from wtits import (
    ClosureBoundExceeded,
    Coset,
    GroupPreset,
    InvariantViolation,
    PresetError,
    RootDatum,
    UElement,
    WeylElement,
    check_quotient_isomorphism,
    control_quotient_order,
    cosets,
    display_word,
    enumerate_C,
    enumerate_U,
    load_config,
    load_preset,
    pair_status,
    project_to_W,
    subgroup_U_H,
    subgroup_closure,
)
from wtits.exact import identity_matrix, mat_mul
from wtits.rootsys import length, simple_reflection, weyl_group
from wtits.utits import QuotientReport, _closure, canonical_form, compile_group
from wtits.xorder import PairVerdict

S1_SL3 = ((1, 0, 0), (0, 0, -1), (0, 1, 0))
S2_SL3 = ((0, -1, 0), (1, 0, 0), (0, 0, 1))
C_SL3 = {
    ((1, 0, 0), (0, 1, 0), (0, 0, 1)),
    ((-1, 0, 0), (0, -1, 0), (0, 0, 1)),
    ((1, 0, 0), (0, -1, 0), (0, 0, -1)),
    ((-1, 0, 0), (0, 1, 0), (0, 0, -1)),
}


def test_sl3_generators_exact(sl3):
    assert sl3.generator(1).matrix == S1_SL3
    assert sl3.generator(2).matrix == S2_SL3
    # s2^2 is one of the diagonal C matrices
    assert (sl3.generator(2) ** 2).matrix == ((-1, 0, 0), (0, -1, 0), (0, 0, 1))


def test_so24_generators_exact(so24):
    k1 = ((0, 1), (-1, 0))
    k2 = ((1, 0), (0, -1))
    s1 = so24.generator(1).matrix
    s2 = so24.generator(2).matrix
    for r in range(2):
        for c in range(2):
            assert s1[r][c] == k1[r][c]
            assert s1[2 + r][2 + c] == k1[r][c]
            assert s1[4 + r][4 + c] == int(r == c)
            assert s2[r][c] == int(r == c)
            assert s2[2 + r][2 + c] == k2[r][c]
            assert s2[4 + r][4 + c] == k2[r][c]
    assert (so24.generator(2) ** 2).matrix == identity_matrix(6)
    s1_sq = (so24.generator(1) ** 2).matrix
    assert s1_sq == tuple(
        tuple((-1 if i == j and i < 4 else (1 if i == j else 0)) for j in range(6))
        for i in range(6)
    )


@pytest.mark.parametrize(
    "name,u_size,w_size,c_size",
    [("sl3", 24, 6, 4), ("so24", 16, 8, 2), ("sl2", 4, 2, 2)],
)
def test_group_sizes(name, u_size, w_size, c_size):
    preset = load_preset(name)
    assert len(enumerate_U(preset)) == u_size
    assert len(weyl_group(preset.root_datum)) == w_size
    assert len(enumerate_C(preset)) == c_size
    assert u_size == w_size * c_size


def test_sl2_elements_exact(sl2):
    s1 = sl2.generator(1)
    expected = {s1.matrix, (s1**2).matrix, (s1**3).matrix, identity_matrix(2)}
    assert {u.matrix for u in enumerate_U(sl2)} == expected
    assert {u.matrix for u in enumerate_C(sl2)} == {identity_matrix(2), (s1**2).matrix}


def test_enumerate_C_sl3_exact(sl3):
    assert {u.matrix for u in enumerate_C(sl3)} == C_SL3


def test_group_axioms_exhaustive(sl3, so24):
    ref.validate_group_table(enumerate_U(sl3))
    ref.validate_group_table(enumerate_U(so24))
    ref.validate_group_table(enumerate_C(sl3))


def test_projection_is_homomorphism_with_kernel_C(sl3):
    table = enumerate_U(sl3)
    c_table = enumerate_C(sl3)
    for i in (1, 2):
        assert project_to_W(sl3.generator(i)).matrix == simple_reflection(
            sl3.root_datum, i
        ).matrix
    for u in table:
        for v in table:
            assert project_to_W(u * v).matrix == (project_to_W(u) * project_to_W(v)).matrix
    kernel = {u.matrix for u in table if project_to_W(u).is_identity()}
    assert kernel == {c.matrix for c in c_table}
    # surjectivity, onto the Fraction route's closure of the reflections
    assert {project_to_W(u).matrix for u in table} == {
        w.matrix for w in ref.weyl_group(sl3.root_datum)
    }


def test_projection_of_word(sl3):
    s1, s2 = sl3.generator(1), sl3.generator(2)
    datum = sl3.root_datum
    r1, r2 = simple_reflection(datum, 1), simple_reflection(datum, 2)
    assert project_to_W(s1 * s2 * s1).matrix == (r1 * r2 * r1).matrix


def test_lift_word(sl3, so24):
    # the engine lifts a word by walking its generator tables; the
    # reference multiplies the generator matrices
    for preset, word in ((sl3, []), (sl3, [1, 2]), (so24, [1, 2, 1, 2]), (so24, [2, 1, 2, 1])):
        tables = compile_group(preset)
        walked = tables.U.elements[tables.walk(tables.identity, [i - 1 for i in word])]
        assert walked == ref.lift_word(preset, word)
    assert ref.lift_word(sl3, []).is_identity()
    s1, s2 = sl3.generator(1), sl3.generator(2)
    assert ref.lift_word(sl3, [1, 2]).matrix == mat_mul(s1.matrix, s2.matrix)
    a = ref.lift_word(so24, [1, 2, 1, 2])
    b = ref.lift_word(so24, [2, 1, 2, 1])
    assert a.matrix == b.matrix


def test_c_part(sl3):
    def c_part(u):
        return canonical_form(u)[1]

    s1, s2 = sl3.generator(1), sl3.generator(2)
    assert c_part(s1**3).matrix == (s1**2).matrix
    for c in enumerate_C(sl3):
        assert c_part(c).matrix == c.matrix
    # s2 s1^3 = (s2 s1) s1^2, and [2, 1] is reduced, so the C part is s1^2
    assert c_part(s2 * s1**3).matrix == ((1, 0, 0), (0, -1, 0), (0, 0, -1))
    # every element recomposes
    for u in enumerate_U(sl3):
        word, c = canonical_form(u)
        assert (ref.lift_word(sl3, word) * c).matrix == u.matrix
        assert len(word) == length(project_to_W(u))


def test_subgroup_U_H(sl3):
    s1 = sl3.generator(1)
    u_h = subgroup_U_H(sl3, {1})
    assert {u.matrix for u in u_h} == {
        identity_matrix(3),
        s1.matrix,
        (s1**2).matrix,
        (s1**3).matrix,
    }
    assert len(subgroup_U_H(sl3, set())) == 1
    assert len(subgroup_U_H(sl3, {1, 2})) == 24
    with pytest.raises(IndexError):
        subgroup_U_H(sl3, {7})
    foreign = UElement(((0, 1, 0), (1, 0, 0), (0, 0, 1)), sl3)  # det -1, not in U
    with pytest.raises(ValueError):
        subgroup_U_H(sl3, {1}, extra_gens=[foreign])


def test_subgroup_closure(sl3):
    s1, s2 = sl3.generator(1), sl3.generator(2)
    assert len(subgroup_closure(sl3, [s1])) == 4
    assert len(subgroup_closure(sl3, [])) == 1
    c_gen = subgroup_closure(sl3, [s1**2, s2**2])
    assert {u.matrix for u in c_gen} == C_SL3


def test_cosets(sl3):
    table = enumerate_U(sl3)
    trivial = subgroup_closure(sl3, [])
    singletons = cosets(table, trivial)
    assert len(singletons) == 24 and all(len(c) == 1 for c in singletons)
    by_c = cosets(table, enumerate_C(sl3))
    assert len(by_c) == 6
    # each C-coset carries one Weyl element
    for coset in by_c:
        assert len({project_to_W(m).matrix for m in coset.members}) == 1
    with pytest.raises(ValueError):
        cosets(trivial, table)


def test_check_quotient_isomorphism(sl3):
    c_table = enumerate_C(sl3)
    u_s = subgroup_closure(sl3, [sl3.generator(1)])
    report = check_quotient_isomorphism(u_s, c_table)
    assert report.classes_in_U == 6
    assert report.classes_in_W == 3 and report.classes_in_C == 2
    assert report.identity_holds
    assert {c.matrix for c in report.C_S} == {
        identity_matrix(3),
        (sl3.generator(1) ** 2).matrix,
    }
    datum = sl3.root_datum
    identity_w = next(w for w in weyl_group(datum) if w.is_identity())
    assert {w.matrix for w in report.W_S} == {
        identity_w.matrix,
        simple_reflection(datum, 1).matrix,
    }

    full = check_quotient_isomorphism(enumerate_U(sl3), c_table)
    assert full.classes_in_U == 1 and full.identity_holds
    trivial = check_quotient_isomorphism(subgroup_closure(sl3, []), c_table)
    assert trivial.classes_in_U == 24 and trivial.identity_holds


def is_signed_permutation(a) -> bool:
    """Exactly one entry of modulus 1 per row and per column, rest zero."""
    n = len(a)
    col_hits = [0] * n
    for row in a:
        hits = [j for j, x in enumerate(row) if x != 0]
        if len(hits) != 1 or abs(row[hits[0]]) != 1:
            return False
        col_hits[hits[0]] += 1
    return all(c == 1 for c in col_hits)


def test_is_signed_permutation():
    assert is_signed_permutation(((0, -1), (1, 0)))
    assert not is_signed_permutation(((1, 1), (0, 1)))
    assert not is_signed_permutation(((1, 0), (1, 0)))
    assert not is_signed_permutation(((2, 0), (0, 1)))


def test_all_elements_unimodular_signed_permutations(sl3, so24):
    from wtits.exact import determinant

    for u in enumerate_U(sl3):
        assert determinant(u.matrix) == 1
        assert is_signed_permutation(u.matrix)
    for u in enumerate_U(so24):
        assert determinant(u.matrix) == 1


def test_structural_identities(sl3, so24):
    for preset in (sl3, so24):
        for i in range(1, preset.rank + 1):
            s = preset.generator(i)
            assert (s**4).is_identity()
    # conjugation inside C is nontrivial for sl3: s1^{-1} s2^2 s1 = s1^2 s2^2
    s1, s2 = sl3.generator(1), sl3.generator(2)
    lhs = s1.inverse() * s2**2 * s1
    rhs = s1**2 * s2**2
    assert lhs.matrix == rhs.matrix


def test_display_word_roundtrip(sl3, so24, sl2):
    from wtits.cli import parse_element

    for preset in (sl3, so24, sl2):
        for u in enumerate_U(preset):
            assert parse_element(preset, display_word(u)).matrix == u.matrix


SL2_CONFIG = {
    "name": "custom-sl2",
    "n": 2,
    "generators": [[[0, -1], [1, 0]]],
    "c_generators": [],
    "simple_roots": [[1, -1]],
    "a_basis": [[[1, 0], [0, 0]], [[0, 0], [0, 1]]],
    "multiplicities": [1],
}


def test_load_config_roundtrip(tmp_path):
    preset = load_config(SL2_CONFIG)
    assert len(enumerate_U(preset)) == 4
    path = tmp_path / "group.json"
    import json

    path.write_text(json.dumps(SL2_CONFIG))
    preset2 = load_config(str(path))
    assert len(enumerate_U(preset2)) == 4
    # rationals in {num, den} form
    cfg = dict(SL2_CONFIG)
    cfg["simple_roots"] = [[{"num": 1, "den": 1}, {"num": -1, "den": 1}]]
    assert len(enumerate_U(load_config(cfg))) == 4


def test_load_config_diagnostics():
    bad_det = dict(SL2_CONFIG, generators=[[[0, 1], [1, 0]]])
    with pytest.raises(PresetError, match="determinant"):
        load_config(bad_det)
    bad_proj = dict(SL2_CONFIG, simple_roots=[[1, 1]])
    with pytest.raises(PresetError):
        load_config(bad_proj)
    not_normalizing = dict(
        SL2_CONFIG,
        a_basis=[[[0, 1], [0, 0]], [[0, 0], [1, 0]]],
    )
    with pytest.raises(PresetError):
        load_config(not_normalizing)


C_NOT_COMMUTING = {  # c1, c2 fix the Cartan coordinates; their lower 2x2 blocks do not commute
    "name": "c-not-commuting",
    "n": 4,
    "generators": [[[0, -1, 0, 0], [1, 0, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]],
    "c_generators": [
        [[-1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]],
        [[-1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, -1]],
    ],
    "simple_roots": [[1, -1]],
    "a_basis": [
        [[int(r == c == p) for c in range(4)] for r in range(4)] for p in range(2)
    ],
}


@pytest.mark.parametrize(
    "config,message",
    [
        (dict(SL2_CONFIG, generators=[[[0, 1], [1, 0]]]), r"determinant \+1"),
        (dict(SL2_CONFIG, generators=[[[1, 1], [0, 1]]]), r"s1\^4 != identity"),
        (
            dict(SL2_CONFIG, a_basis=[[[1, 0], [0, 0]], [[0, 1], [0, 0]]]),
            "does not normalize the Cartan subspace",
        ),
        (dict(SL2_CONFIG, simple_roots=[[1, 1]]), r"pi\(s1\) != r1"),
        (dict(SL2_CONFIG, a_basis=[[[0, 1], [0, 0]], [[0, 0], [1, 0]]]), r"pi\(s1\) != r1"),
        (dict(SL2_CONFIG, c_generators=[[[0, -1], [1, 0]]]), r"pi\(c1\) != 1"),
        (C_NOT_COMMUTING, "C generators do not commute"),
        (
            dict(SL2_CONFIG, simple_roots=[[1, -1], [-1, 1]], multiplicities=[1, 1]),
            r"positive root .* is not a nonnegative combination of simple roots",
        ),
        # at an angle of arccos(1/sqrt(5)) the reflections generate an infinite
        # group: the orbit of the simple roots stops at 2 * 2 * (2 + 7) roots
        (
            dict(SL2_CONFIG, simple_roots=[[1, 0], [1, 2]], multiplicities=[1, 1]),
            "closure exceeded 36 elements",
        ),
        (
            dict(SL2_CONFIG, a_basis=[[[1, 0], [0, 0]], [[0, 0, 0], [0, 1, 0], [0, 0, 0]]]),
            r"a_basis matrix 2 is 3x3, not n x n = 2x2",
        ),
        (
            dict(SL2_CONFIG, a_basis=SL2_CONFIG["a_basis"] + [[[1, 0], [0, 1]]]),
            "a_basis has 3 matrices, but the simple roots have 2 coordinates",
        ),
    ],
    ids=[
        "determinant", "order", "normalizer", "pi-s", "pi-s-basis", "pi-c", "c-commute",
        "positive", "infinite", "basis-shape", "basis-count",
    ],
)
def test_load_refusals_name_their_check(config, message):
    # every load-time check a config can reach, pinned by its message
    with pytest.raises(PresetError, match=message):
        load_config(config)


def test_closure_bound():
    preset = load_preset("sl3")
    with pytest.raises(ClosureBoundExceeded):
        _closure(identity_matrix(3), preset.generators, bound=5)


SHEAR_SL2 = {  # SL(2) conjugated by the shear [[1, 1], [0, 1]]: not a signed permutation
    "name": "shear-sl2",
    "n": 2,
    "generators": [[[1, -2], [1, -1]]],
    "simple_roots": [[1, -1]],
    "a_basis": [[[1, -1], [0, 0]], [[0, 1], [0, 1]]],
}


def test_closure_bound_generic_step():
    preset = load_config(SHEAR_SL2)
    assert len(_closure(identity_matrix(2), preset.generators, bound=4)[0]) == 4
    with pytest.raises(ClosureBoundExceeded):
        _closure(identity_matrix(2), preset.generators, bound=3)


def test_non_signed_permutation_group():
    from wtits import hasse

    preset = load_config(SHEAR_SL2)
    table = enumerate_U(preset)
    assert len(table) == 4
    assert len(enumerate_C(preset)) == 2
    poset = hasse(table)
    assert len(poset) == 4
    # 1 and s1^2 both sit below s1 and s1^3
    assert [display_word(u) for u in poset.elements] == ["1", "s1^2", "s1", "s1 s1^2"]
    assert sorted(poset.covers) == [(0, 2), (0, 3), (1, 2), (1, 3)]


def test_config_rules_do_not_depend_on_its_name():
    from wtits.cli import hasse_json

    groups = [load_config(dict(SHEAR_SL2, name=name)) for name in ("shear-sl2", "sl2-shear")]
    assert [p.name for p in groups] == ["shear-sl2", "sl2-shear"]
    tables = [enumerate_U(p) for p in groups]
    assert [len(t) for t in tables] == [4, 4]
    assert hasse_json(tables[0]) == hasse_json(tables[1])


SL3_CONFIG = {
    "name": "custom-sl3",
    "n": 3,
    "generators": [
        [[1, 0, 0], [0, 0, -1], [0, 1, 0]],
        [[0, -1, 0], [1, 0, 0], [0, 0, 1]],
    ],
    "simple_roots": [[0, 1, -1], [1, -1, 0]],
    "a_basis": [[[int(r == c == p) for c in range(3)] for r in range(3)] for p in range(3)],
}


@pytest.mark.parametrize("enabled", [True, False], ids=["collector-on", "collector-off"])
def test_compile_pauses_the_garbage_collector(monkeypatch, enabled):
    # off while the tables are built, then back as the caller left it,
    # after a failed compile too
    import gc

    import wtits.utits as utits

    real = utits.GroupTables.__init__
    seen = []

    def recording(self, preset):
        seen.append(gc.isenabled())
        real(self, preset)

    def failing(self, preset):
        seen.append(gc.isenabled())
        raise InvariantViolation("compile failed")

    was_enabled = gc.isenabled()
    try:
        gc.enable() if enabled else gc.disable()
        monkeypatch.setattr(utits.GroupTables, "__init__", recording)
        assert len(compile_group(load_config(SL3_CONFIG)).U) == 24
        assert gc.isenabled() == enabled
        monkeypatch.setattr(utits.GroupTables, "__init__", failing)
        with pytest.raises(InvariantViolation, match="compile failed"):
            compile_group(load_config(SL3_CONFIG))
        assert gc.isenabled() == enabled
    finally:
        gc.enable() if was_enabled else gc.disable()
    assert seen == [False, False]


def test_compile_errors_name_c_element_by_word(monkeypatch):
    import wtits.utits as utits

    preset = load_config(SL3_CONFIG)  # fresh: compiled by this test
    real = utits.GroupTables._close_c

    def with_s1_in_c(self):
        c_tokens = real(self)
        c_tokens[self.right[0][self.identity]] = ("s1",)
        return c_tokens

    monkeypatch.setattr(utits.GroupTables, "_close_c", with_s1_in_c)
    with pytest.raises(InvariantViolation) as err:
        enumerate_U(preset)
    assert str(err.value) == "C element s1 has nontrivial Weyl projection"


def test_compile_errors_name_c_part_by_word(monkeypatch):
    import wtits.rootsys as rootsys
    from wtits.rootsys import WeylTable

    preset = load_config(SL3_CONFIG)

    class SwappedWords(WeylTable):
        """Canonical words of r1 and r2 exchanged."""

        def __init__(self, datum, bound):
            super().__init__(datum, bound)
            word = list(self.word)
            r1, r2 = word.index((1,)), word.index((2,))
            word[r1], word[r2] = word[r2], word[r1]
            self.word = tuple(word)

    monkeypatch.setattr(rootsys, "WeylTable", SwappedWords)
    with pytest.raises(InvariantViolation) as err:
        enumerate_U(preset)
    message = str(err.value)
    assert message.startswith("canonical C part ")
    assert message.endswith(" escapes C; preset data corrupted")
    part, _, whole = message.removeprefix("canonical C part ").partition(" of ")
    whole = whole.removesuffix(" escapes C; preset data corrupted")
    words = r"(1|s[12]( s[12])*)"
    assert re.fullmatch(words, part) and re.fullmatch(words, whole)  # no raw matrix


def test_compile_errors_name_normality_by_word(monkeypatch):
    import wtits.utits as utits

    preset = load_config(SL3_CONFIG)
    real = utits.GroupTables.mul

    def with_s1_c_escaping(self, a, b):
        # s1 * c read as s2 for c = s1^2, so s1 c s1^-1 projects to r2 r1
        s1, s2 = self.right[0][self.identity], self.right[1][self.identity]
        return s2 if (a, b) == (s1, self.right[0][s1]) else real(self, a, b)

    monkeypatch.setattr(utits.GroupTables, "mul", with_s1_c_escaping)
    with pytest.raises(InvariantViolation) as err:
        enumerate_U(preset)
    assert str(err.value) == (
        "C is not normal in U: g c g^-1 escapes C for the generator g = s1, c = s1 s1"
    )


def test_compile_errors_name_non_commuting_c_elements_by_word(monkeypatch):
    import wtits.utits as utits

    preset = load_config(SL3_CONFIG)
    real = utits.GroupTables.mul

    def with_s1_squared_s2_squared_trivial(self, a, b):
        # s1^2 * s2^2 read as 1, while s2^2 * s1^2 is still the third element of C
        s1, s2 = self.right[0][self.identity], self.right[1][self.identity]
        if (a, b) == (self.right[0][s1], self.right[1][s2]):
            return self.identity
        return real(self, a, b)

    monkeypatch.setattr(utits.GroupTables, "mul", with_s1_squared_s2_squared_trivial)
    with pytest.raises(InvariantViolation) as err:
        enumerate_U(preset)
    pair = re.fullmatch(r"C is not abelian: (.+) and (.+) do not commute", str(err.value))
    assert pair and sorted(pair.groups()) == ["s1 s1", "s2 s2"]


@pytest.mark.parametrize("n,predicted", [(9, 92897280), (12, 980995276800)])
def test_oversized_sl_refused_from_prediction(n, predicted, monkeypatch):
    import wtits.utits as utits

    def no_build(*args):
        raise AssertionError("the group must not be built")

    monkeypatch.setattr(utits, "_sl_preset", no_build)
    with pytest.raises(ClosureBoundExceeded) as err:
        load_preset(f"sl{n}")
    assert str(predicted) in str(err.value)
    assert str(utits.DEFAULT_CLOSURE_BOUND) in str(err.value)


@pytest.mark.parametrize("n", range(2, 7))
def test_sl_predicted_size_passes_the_order_caps(n):
    # every sl<n> that compiles gets past both order caps: sl6 needs
    # 66,355,200 bytes of down-sets and 691,200 cover entries
    from wtits.xorder import require_cover_memory, require_order_memory

    preset = load_preset(f"sl{n}")
    size = preset.predicted_size
    assert size == math.factorial(n) << (n - 1)
    require_order_memory(size)
    require_cover_memory(size, len(preset.root_datum.positive_roots))


def test_weyl_enumeration_bounded(sl3):
    from wtits.rootsys import WeylTable

    assert len(WeylTable(sl3.root_datum, bound=6)) == 6
    with pytest.raises(ClosureBoundExceeded):
        WeylTable(sl3.root_datum, bound=5)


def test_unknown_preset():
    for name in ("e8", "sl1", "sl(3", "sl3)"):
        with pytest.raises(PresetError):
            load_preset(name)


def test_sl4_structure():
    preset = load_preset("sl4")
    table = enumerate_U(preset)
    c_table = enumerate_C(preset)
    assert len(table) == 192 == len(weyl_group(preset.root_datum)) * len(c_table)
    assert len(c_table) == 8
    # generic labeling accepts both spellings
    assert load_preset("sl(4)").generator(1).matrix == preset.generator(1).matrix


def test_value_classes_keep_their_equality_and_hash(sl3, so24):
    # UElement by matrix alone, the preset taking no part
    u = sl3.generator(1)
    twin = UElement(u.matrix, so24)
    assert twin == u and hash(twin) == hash(u) and len({u, twin}) == 1
    assert u != sl3.generator(2) and u != u.matrix
    # WeylElement by (datum, matrix); a datum by its five fields
    datum = sl3.root_datum
    w = project_to_W(u)
    same_datum = RootDatum(
        datum.rank, datum.dim, datum.simple_roots, datum.positive_roots, datum.multiplicities
    )
    assert same_datum == datum and hash(same_datum) == hash(datum)
    again = WeylElement(same_datum, w.matrix, w.inverse_matrix, length(w))
    assert again == w and hash(again) == hash(w)
    assert w != simple_reflection(datum, 2) and w != w.matrix
    other = load_preset("sl4").root_datum
    assert WeylElement(other, w.matrix, w.inverse_matrix, length(w)) != w
    # GroupPreset by identity: an equal copy of the data is another group
    copy = GroupPreset(
        sl3.name, sl3.n, sl3.generators, sl3.c_generators, datum, sl3.a_basis, sl3.label
    )
    assert copy != sl3 and len({copy, sl3}) == 2
    assert load_preset(" SL(3) ") is sl3


def test_value_classes_refuse_assignment(sl3):
    table = enumerate_U(sl3)
    u_s = subgroup_closure(sl3, [sl3.generator(1)])
    quotient = control_quotient_order(table, u_s)
    objects = {
        "matrix": project_to_W(sl3.generator(1)),
        "members": cosets(table, u_s)[0],
        "below": quotient,
        "status": pair_status(quotient, sl3.generator(2), sl3.identity()),
        "rank": sl3.root_datum,
        "generators": sl3,
        "classes_in_U": check_quotient_isomorphism(u_s, enumerate_C(sl3)),
    }
    for name, obj in objects.items():
        before = getattr(obj, name)
        with pytest.raises(AttributeError, match=f"'{name}'"):
            setattr(obj, name, None)
        with pytest.raises(AttributeError, match=f"'{name}'"):
            delattr(obj, name)
        assert getattr(obj, name) is before


def test_value_classes_take_keywords(sl3):
    e = sl3.identity()
    coset = Coset(representative=e, members=(e,), ids=(0,))
    assert (coset.representative, coset.members, coset.ids) == (e, (e,), (0,))
    assert e in coset and len(coset) == 1
    verdict = PairVerdict(status="equal")
    assert (verdict.a_before_b_candidates, verdict.b_before_a_candidates) == (None, None)
    report = QuotientReport(
        W_S=(),
        C_S=enumerate_C(sl3),
        classes_in_U=6,
        classes_in_W=3,
        classes_in_C=2,
        identity_holds=True,
    )
    assert report.identity_holds and report.classes_in_C == 2
    preset = GroupPreset(
        name="copy",
        n=sl3.n,
        generators=sl3.generators,
        c_generators=(),
        root_datum=sl3.root_datum,
        a_basis=sl3.a_basis,
    )
    assert preset.label == "" and preset.rank == 2
