"""Root system / Weyl group layer, checked against independent oracles:
Cayley-graph distances for lengths, permutation inversion counts for the
symmetric group, exhaustive subword search and the tableau criterion for
the Bruhat order, and the Fraction-matrix reference routes of
`weyl_reference` for every table-backed answer."""

import math
from fractions import Fraction
from itertools import permutations, product
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import weyl_reference as ref
from weyl_reference import all_reduced_words, evaluate_word, left_descents
from wtits import load_config, load_preset
from wtits.rootsys import (
    RootDatum,
    bruhat_leq,
    is_reduced,
    length,
    longest_element,
    make_weyl_element,
    reduced_word,
    simple_reflection,
    split_roots_by_H,
    weyl_group,
    weyl_identity,
    weyl_table,
)

CUSTOM_O3 = Path(__file__).resolve().parent.parent / "benchmarks" / "custom_o3.json"


def cayley_distances(datum):
    """Independent length oracle: word metric on the Cayley graph."""
    gens = [simple_reflection(datum, i) for i in range(1, datum.rank + 1)]
    dist = {weyl_identity(datum).matrix: 0}
    frontier = [weyl_identity(datum)]
    while frontier:
        new = []
        for w in frontier:
            for g in gens:
                nxt = g * w
                if nxt.matrix not in dist:
                    dist[nxt.matrix] = dist[w.matrix] + 1
                    new.append(nxt)
        frontier = new
    return dist


@pytest.mark.parametrize("name,w_size,w0_len", [("sl3", 6, 3), ("so24", 8, 4), ("sl2", 2, 1)])
def test_lengths_match_cayley_distance(name, w_size, w0_len):
    datum = load_preset(name).root_datum
    group = weyl_group(datum)
    dist = cayley_distances(datum)
    assert len(group) == w_size == len(dist)
    for w in group:
        assert length(w) == dist[w.matrix]
    assert length(longest_element(datum)) == w0_len
    assert len(datum.positive_roots) == w0_len


@pytest.mark.parametrize("name", ["sl2", "sl3", "sl4", "sl5", "sl6", "so24"])
def test_positive_roots_derived_from_simple_roots(name):
    datum = load_preset(name).root_datum
    derived = RootDatum.create(datum.simple_roots, multiplicities=datum.multiplicities)
    assert set(derived.positive_roots) == set(datum.positive_roots)


def test_g2_positive_roots_derived_in_three_coordinates():
    # short alpha_1 and long alpha_2: alpha_1 + alpha_2, 2 alpha_1 + alpha_2,
    # 3 alpha_1 + alpha_2 and 3 alpha_1 + 2 alpha_2 complete the six
    datum = RootDatum.create([(1, -1, 0), (-2, 1, 1)])
    assert set(datum.positive_roots) == {
        tuple(map(Fraction, root))
        for root in [(1, -1, 0), (-2, 1, 1), (-1, 0, 1), (0, -1, 1), (1, -2, 1), (-1, -1, 2)]
    }


def test_sl3_weyl_is_coordinate_permutations(sl3):
    datum = sl3.root_datum
    perm_mats = set()
    for sigma in permutations(range(3)):
        mat = tuple(
            tuple(Fraction(int(sigma[j] == i)) for j in range(3)) for i in range(3)
        )
        perm_mats.add(mat)
    assert {w.matrix for w in weyl_group(datum)} == perm_mats
    # inversion count of the order-reversing permutation
    sigma = (2, 1, 0)
    inversions = sum(
        1 for i in range(3) for j in range(i + 1, 3) if sigma[i] > sigma[j]
    )
    assert inversions == 3 == length(longest_element(datum))


def test_simple_reflection_actions(sl3, so24):
    # sl3 labeling: r2 swaps the first two diagonal coordinates
    r2 = simple_reflection(sl3.root_datum, 2)
    vec = (Fraction(5), Fraction(7), Fraction(-12))

    def frac_mat_vec(m, v):
        return tuple(sum(x * y for x, y in zip(row, v)) for row in m)

    assert frac_mat_vec(r2.matrix, vec) == (Fraction(7), Fraction(5), Fraction(-12))
    r1 = simple_reflection(sl3.root_datum, 1)
    assert frac_mat_vec(r1.matrix, vec) == (Fraction(5), Fraction(-12), Fraction(7))
    # so24: r2 flips the second coordinate
    r2b = simple_reflection(so24.root_datum, 2)
    assert frac_mat_vec(r2b.matrix, (Fraction(3), Fraction(4))) == (
        Fraction(3),
        Fraction(-4),
    )
    for preset in (sl3, so24):
        for i in range(1, preset.rank + 1):
            r = simple_reflection(preset.root_datum, i)
            assert (r * r).is_identity()
            assert length(r) == 1

    with pytest.raises(IndexError):
        simple_reflection(sl3.root_datum, 3)


def test_reduced_word_deterministic_and_minimal(sl3, so24):
    datum = sl3.root_datum
    assert reduced_word(weyl_identity(datum)) == []
    target = evaluate_word(datum, [1, 2, 1])
    # brute force all words of length <= 3 over {1, 2}
    minimal = [
        list(word)
        for n in range(4)
        for word in product((1, 2), repeat=n)
        if evaluate_word(datum, word).matrix == target.matrix
    ]
    shortest = min(len(w) for w in minimal)
    assert shortest == 3
    assert reduced_word(target) in [w for w in minimal if len(w) == shortest]
    assert reduced_word(target) == [1, 2, 1]

    w0 = longest_element(so24.root_datum)
    assert reduced_word(w0) == [1, 2, 1, 2]
    assert evaluate_word(so24.root_datum, [1, 2, 1, 2]).matrix == evaluate_word(
        so24.root_datum, [2, 1, 2, 1]
    ).matrix


def test_is_reduced(sl3):
    datum = sl3.root_datum
    assert is_reduced(datum, [])
    assert not is_reduced(datum, [1, 1])
    assert is_reduced(datum, [1, 2, 1])
    assert not is_reduced(datum, [1, 2, 1, 2])
    for letter in (0, datum.rank + 1):  # 0 must not read the last table row
        for word in ([letter], [1, 1, letter]):  # also after a descent
            with pytest.raises(IndexError, match="out of range"):
                is_reduced(datum, word)


def subword_leq(v, w) -> bool:
    """Independent Bruhat oracle: some reduced word of w contains some
    reduced word of v as a subword."""

    def contains(big, small):
        it = iter(big)
        return all(ch in it for ch in small)

    small_words = all_reduced_words(v)
    return any(
        contains(big, small)
        for big in all_reduced_words(w)
        for small in small_words
    )


@pytest.mark.parametrize("name", ["sl3", "so24"])
def test_bruhat_leq_matches_subword_oracle(name):
    datum = load_preset(name).root_datum
    group = ref.weyl_group(datum)
    for v in group:
        for w in group:
            expected = subword_leq(v, w)
            assert ref.bruhat_leq(v, w) == expected, (v.matrix, w.matrix)
            assert bruhat_leq(v, w) == expected, (v.matrix, w.matrix)


def test_bruhat_examples(sl3):
    datum = sl3.root_datum
    e = weyl_identity(datum)
    r1 = simple_reflection(datum, 1)
    r2 = simple_reflection(datum, 2)
    for w in weyl_group(datum):
        assert bruhat_leq(e, w)
    assert not bruhat_leq(r1, r2)
    assert not bruhat_leq(r2, r1)
    assert bruhat_leq(r2, r2 * r1)


@pytest.mark.parametrize("name", ["sl3", "so24"])
def test_bruhat_order_axioms(name):
    datum = load_preset(name).root_datum
    group = weyl_group(datum)
    for v in group:
        assert bruhat_leq(v, v)
        for w in group:
            if bruhat_leq(v, w) and bruhat_leq(w, v):
                assert v.matrix == w.matrix
            for x in group:
                if bruhat_leq(v, w) and bruhat_leq(w, x):
                    assert bruhat_leq(v, x)
    w0 = longest_element(datum)
    assert all(bruhat_leq(w, w0) for w in group)


def test_split_roots_by_H(sl3):
    datum = sl3.root_datum
    zero, positive = split_roots_by_H(datum, set())
    assert zero == () and set(positive) == set(datum.positive_roots)
    zero, positive = split_roots_by_H(datum, {1, 2})
    assert positive == () and set(zero) == set(datum.positive_roots)
    # Theta = {1}: evaluate every positive root on a representative H
    H = (2, -1, -1)  # alpha_1 = e2 - e3 vanishes, alpha_2 = e1 - e2 does not
    zero, positive = split_roots_by_H(datum, {1})
    for root in zero:
        assert sum(float(c) * h for c, h in zip(root, H)) == 0
    for root in positive:
        assert sum(float(c) * h for c, h in zip(root, H)) > 0
    assert len(zero) == 1 and len(positive) == 2
    with pytest.raises(IndexError):
        split_roots_by_H(datum, {5})


@pytest.mark.parametrize("name", ["sl3", "so24", "sl2"])
def test_word_and_length_invariants(name):
    datum = load_preset(name).root_datum
    for w in weyl_group(datum):
        word = reduced_word(w)
        assert len(word) == length(w)
        assert evaluate_word(datum, word).matrix == w.matrix
        assert is_reduced(datum, word)
        for i in range(1, datum.rank + 1):
            assert abs(length(simple_reflection(datum, i) * w) - length(w)) == 1


@settings(max_examples=60, deadline=None)
@given(word=st.lists(st.integers(min_value=1, max_value=3), max_size=10))
def test_random_words_sl4(word):
    datum = load_preset("sl4").root_datum
    w = evaluate_word(datum, word)
    assert length(w) <= len(word)
    assert (length(w) - len(word)) % 2 == 0
    assert is_reduced(datum, reduced_word(w))
    for i in left_descents(w):
        assert length(simple_reflection(datum, i) * w) == length(w) - 1


GROUPS = {
    "sl3": lambda: load_preset("sl3"),
    "so24": lambda: load_preset("so24"),
    "sl4": lambda: load_preset("sl4"),
    "custom": lambda: load_config(str(CUSTOM_O3)),
}


@pytest.mark.parametrize("group", sorted(GROUPS))
def test_exported_names_match_fraction_reference(group):
    # every table-backed name against the Fraction route, on every element
    # or pair; the reference shares no table with the library
    datum = GROUPS[group]().root_datum
    group_w = ref.weyl_group(datum)
    assert weyl_group(datum) == group_w  # same elements in the same order
    assert longest_element(datum) == group_w[-1]
    assert length(group_w[-2]) < length(group_w[-1])
    reflections = {simple_reflection(datum, i).matrix for i in range(1, datum.rank + 1)}
    assert reflections == {w.matrix for w in group_w if length(w) == 1}
    for w in group_w:
        word = ref.reduced_word(w)
        assert reduced_word(w) == word
        assert length(w) == len(word)
        assert is_reduced(datum, word)
        for i in range(1, datum.rank + 1):
            assert is_reduced(datum, word + [i]) == ref.is_reduced(datum, word + [i])
        for v in group_w:
            assert bruhat_leq(v, w) == ref.bruhat_leq(v, w), (v.matrix, w.matrix)


def dense_reflection(alpha):
    """I - 2 alpha alpha^T / <alpha, alpha>, every entry computed."""
    norm = sum(x * x for x in alpha)
    n = len(alpha)
    return [[Fraction(int(r == c)) - 2 * alpha[r] * alpha[c] / norm for c in range(n)] for r in range(n)]


def dense_product(mats, n):
    out = [[Fraction(int(r == c)) for c in range(n)] for r in range(n)]
    for m in mats:
        out = [[sum(row[k] * m[k][c] for k in range(n)) for c in range(n)] for row in out]
    return tuple(map(tuple, out))


@pytest.mark.parametrize("group", sorted(GROUPS))
def test_weyl_matrices_match_dense_products(group):
    # the table's Fraction elements, built with the sparse kernels, against
    # the reference closure and against dense products of the reflection
    # matrices along each reduced word (inverses in reverse order)
    datum = GROUPS[group]().root_datum
    group_w = weyl_group(datum)
    assert [w.matrix for w in group_w] == [w.matrix for w in ref.weyl_group(datum)]
    reflections = [dense_reflection(alpha) for alpha in datum.simple_roots]
    for w in group_w:
        mats = [reflections[i - 1] for i in ref.reduced_word(w)]
        assert w.matrix == dense_product(mats, datum.dim)
        assert w.inverse_matrix == dense_product(mats[::-1], datum.dim)
        assert all(type(x) is Fraction for row in w.matrix + w.inverse_matrix for x in row)
        # the table builds products unvalidated: they must pass the validating
        # constructor, whose inversion count is the table's length
        checked = make_weyl_element(datum, w.matrix, w.inverse_matrix)
        assert w.cached_length == checked.cached_length == len(mats)


@pytest.mark.parametrize("name", ["sl4", "sl5"])
def test_bruhat_leq_matches_tableau_criterion(name):
    preset = load_preset(name)
    table = weyl_table(preset.root_datum)
    elements = [table.element(w) for w in range(len(table))]
    perms = [ref.permutation(x) for x in elements]
    assert len(set(perms)) == len(perms) == math.factorial(preset.n)
    relations = 0
    for v, pv in enumerate(perms):
        for w, pw in enumerate(perms):
            leq = table.bruhat_leq(v, w)
            assert leq == ref.tableau_leq(pv, pw), (v, w)
            relations += leq
    assert len(perms) ** 2 > relations > len(perms)
    if name == "sl4":  # the public name, through each element's position
        for v, pv in zip(elements, perms):
            for w, pw in zip(elements, perms):
                assert bruhat_leq(v, w) == ref.tableau_leq(pv, pw)


def test_table_queries_make_no_fraction_products(monkeypatch):
    from wtits import rootsys

    datum = load_preset("sl4").root_datum
    words = [list(word) for word in weyl_table(datum).word]
    group_w = weyl_group(datum)  # builds every element the table hands out
    real, calls = rootsys.frac_mat_mul, []

    def counted(a, b):
        calls.append(1)
        return real(a, b)

    monkeypatch.setattr(rootsys, "frac_mat_mul", counted)
    for v in group_w:
        reduced_word(v)
        for w in group_w:
            bruhat_leq(v, w)
    for word in words:
        is_reduced(datum, word)
        is_reduced(datum, word + [1])
    longest_element(datum)
    assert not calls

