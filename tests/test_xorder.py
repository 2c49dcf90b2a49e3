"""Extended Bruhat order and quotient orders, validated edge-for-edge
against the transcribed incidence diagrams and by exhaustive axiom checks."""

import math
import random
from itertools import combinations, product
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fixture_sl3
import fixture_so24
import weyl_reference as ref
from wtits import (
    control_quotient_order,
    cosets,
    display_word,
    down_set,
    enumerate_C,
    enumerate_U,
    extended_leq,
    hasse,
    load_preset,
    morse_quotient_order,
    pair_status,
    project_to_W,
    subgroup_U_H,
    subgroup_closure,
)
from wtits.cli import parse_element
from wtits.rootsys import length
from wtits import InvariantViolation, ReducedLiftUnavailable, load_config
from wtits.utits import compile_group
from wtits.xorder import (
    _bits,
    _grid_candidates,
    _verify_partial_order,
    control_forward_pairs,
    down_covers,
    down_set_from_word,
)

CUSTOM_O3 = Path(__file__).resolve().parent.parent / "benchmarks" / "custom_o3.json"


def diagram_reachability(fixture):
    """Reflexive closure of the transcribed arrows, as node-id sets."""
    down = {k: {k} for k in fixture.NODES}
    changed = True
    while changed:
        changed = False
        for hi, lo in fixture.ARROWS:
            union = down[hi] | down[lo]
            if union != down[hi]:
                down[hi] = union
                changed = True
    return down


@pytest.mark.parametrize(
    "name,fixture,n_nodes,n_edges",
    [("sl3", fixture_sl3, 24, 64), ("so24", fixture_so24, 16, 36)],
)
def test_hasse_matches_reference_diagram(name, fixture, n_nodes, n_edges):
    preset = load_preset(name)
    table = enumerate_U(preset)
    nodes = {k: parse_element(preset, expr) for k, expr in fixture.NODES.items()}
    assert len({u.matrix for u in nodes.values()}) == n_nodes == len(table)

    poset = hasse(table)
    assert len(poset) == n_nodes
    assert len(poset.covers) == n_edges == len(fixture.ARROWS)
    pos = {table.tables.matrix(k): i for i, k in enumerate(poset.ids)}
    expected = {
        (pos[nodes[lo].matrix], pos[nodes[hi].matrix]) for hi, lo in fixture.ARROWS
    }
    assert expected == set(poset.covers)

    # reachability closure of the diagram equals the order, pointwise
    reach = diagram_reachability(fixture)
    for hi_id, hi in nodes.items():
        expected_set = {nodes[k].matrix for k in reach[hi_id]}
        assert {u.matrix for u in down_set(hi)} == expected_set
        for lo_id, lo in nodes.items():
            assert extended_leq(lo, hi) == (lo_id in reach[hi_id])


def test_down_covers_examples(sl3, so24):
    s1, s2 = sl3.generator(1), sl3.generator(2)
    got = {display_word(v) for v in down_covers(s2 * s1)}
    assert got == {"s1", "s1 s1^2 s2^2", "s2", "s2 s1^2"}
    for c in enumerate_C(sl3):
        assert down_covers(c) == frozenset()
    t1, t2 = so24.generator(1), so24.generator(2)
    got24 = {display_word(v) for v in down_covers(t1 * t2)}
    assert got24 == {"s1", "s2", "s2 s1^2"}


def test_extended_leq_examples(sl3):
    s1, s2 = sl3.generator(1), sl3.generator(2)
    assert extended_leq(s1**2, s1)
    assert not extended_leq(s2**2, s1)
    for u in enumerate_U(sl3):
        assert extended_leq(u, u)


def test_down_set_examples(sl3):
    s1, s2 = sl3.generator(1), sl3.generator(2)
    assert {display_word(u) for u in down_set(s1)} == {"s1", "1", "s1^2"}
    for c in enumerate_C(sl3):
        assert down_set(c) == frozenset({c})
    # closed cell of a longest lift: 17 elements by diagram reachability
    assert len(down_set(s1 * s2 * s1)) == 17


def test_sl2_hasse(sl2):
    table = enumerate_U(sl2)
    poset = hasse(table)
    s1 = sl2.generator(1)
    assert len(poset.covers) == 4
    covers_of = {
        display_word(u): {display_word(v) for v in down_covers(u)} for u in table
    }
    assert covers_of["s1"] == {"1", "s1^2"}
    assert covers_of["s1 s1^2"] == {"1", "s1^2"}  # s1^3
    assert covers_of["1"] == set() and covers_of["s1^2"] == set()
    assert not extended_leq(s1, s1**3) and not extended_leq(s1**3, s1)


@pytest.mark.parametrize("name", ["sl3", "so24", "sl4"])
def test_reduced_expression_independence(name):
    preset = load_preset(name)
    words_of = {}  # all reduced words, per Weyl element
    for u in enumerate_U(preset):
        w = project_to_W(u)
        if w.matrix not in words_of:
            words_of[w.matrix] = ref.all_reduced_words(w)
        words = words_of[w.matrix]
        assert 1 <= len(words) <= 16
        reference = down_set(u)
        for word in words:
            assert down_set_from_word(u, word) == reference


@pytest.mark.parametrize("name", ["sl3", "so24", "sl4"])
def test_projection_monotone_and_bruhat_recovery(name):
    preset = load_preset(name)
    table = enumerate_U(preset)
    group_w = ref.weyl_group(preset.root_datum)
    bruhat = {(v.matrix, w.matrix): ref.bruhat_leq(v, w) for v in group_w for w in group_w}
    pi = {u.matrix: project_to_W(u).matrix for u in table}
    for lo in table:
        for hi in table:
            if extended_leq(lo, hi):
                assert bruhat[pi[lo.matrix], pi[hi.matrix]]
    lifts = {w.matrix: ref.lift_word(preset, ref.reduced_word(w)) for w in group_w}
    for v in group_w:
        for w in group_w:
            lifted = extended_leq(lifts[v.matrix], lifts[w.matrix])
            assert lifted == bruhat[v.matrix, w.matrix]


@pytest.mark.parametrize("name", ["sl4", "sl5"])
def test_bruhat_recovery_matches_tableau_criterion(name):
    # a third Bruhat implementation, independent of the descent recursion: the
    # extended order on reduced-word lifts against the tableau criterion
    preset = load_preset(name)
    weyl = compile_group(preset).weyl
    lifts = [ref.lift_word(preset, word) for word in weyl.word]
    perms = [ref.permutation(u) for u in lifts]
    assert len(set(perms)) == len(perms) == math.factorial(preset.n)
    for perm, ell in zip(perms, weyl.length):
        inversions = sum(perm[j] > perm[i] for i in range(len(perm)) for j in range(i))
        assert inversions == ell
    relations = 0
    for v, pv in zip(lifts, perms):
        for w, pw in zip(lifts, perms):
            leq = extended_leq(v, w)
            assert leq == ref.tableau_leq(pv, pw), (display_word(v), display_word(w))
            relations += leq
    assert len(perms) ** 2 > relations > len(perms)


@pytest.mark.parametrize("name", ["sl3", "so24"])
def test_extremes_and_grading(name):
    preset = load_preset(name)
    table = enumerate_U(preset)
    c_mats = {c.matrix for c in enumerate_C(preset)}
    w0 = ref.weyl_group(preset.root_datum)[-1]  # sorted by length: the longest
    minimal = {u.matrix for u in table if not down_covers(u)}
    assert minimal == c_mats
    maximal = {
        u.matrix
        for u in table
        if not any(u in down_covers(v) for v in table)
    }
    assert maximal == {u.matrix for u in table if project_to_W(u).matrix == w0.matrix}
    for u in table:
        for v in down_covers(u):
            assert length(project_to_W(v)) == length(project_to_W(u)) - 1


def test_morse_quotient_reference(sl3):
    table = enumerate_U(sl3)
    u_h = subgroup_U_H(sl3, {1})
    quotient = morse_quotient_order(table, u_h)
    assert len(quotient.cosets) == 6

    def key(exprs):
        return frozenset(parse_element(sl3, e).matrix for e in exprs)

    want_classes = {key(v): k for k, v in fixture_sl3.MORSE_COSETS.items()}
    got_label = {}
    for idx, coset in enumerate(quotient.cosets):
        k = frozenset(map(coset.tables.matrix, coset.ids))
        assert k in want_classes, sorted(map(coset.tables.word, coset.ids))
        got_label[idx] = want_classes[k]
    covers = {(got_label[j], got_label[i]) for i, j in quotient.covers()}
    assert covers == set(fixture_sl3.MORSE_ARROWS)


def test_morse_quotient_degenerate_cases(sl3):
    table = enumerate_U(sl3)
    trivial = subgroup_closure(sl3, [])
    q = morse_quotient_order(table, trivial)
    # the quotient by the trivial subgroup is the extended order itself
    index_by_matrix = {c.representative.matrix: k for k, c in enumerate(q.cosets)}
    for lo in table:
        for hi in table:
            assert extended_leq(lo, hi) == q.leq(
                index_by_matrix[lo.matrix], index_by_matrix[hi.matrix]
            )
    q_full = morse_quotient_order(table, table)
    assert len(q_full.cosets) == 1 and not q_full.relation


def test_control_quotient_matches_morse(sl3):
    table = enumerate_U(sl3)
    u_s = subgroup_closure(sl3, [sl3.generator(1)])
    u_h = subgroup_U_H(sl3, {1})
    qc = control_quotient_order(table, u_s)
    qm = morse_quotient_order(table, u_h)
    assert [c.ids for c in qc.cosets] == [c.ids for c in qm.cosets]
    assert qc.relation == qm.relation
    assert qc.kind == "control-forward" and qm.kind == "morse"
    with pytest.raises(ValueError):
        control_forward_pairs(qm)


def test_control_quotient_degenerate(sl3):
    table = enumerate_U(sl3)
    q1 = control_quotient_order(table, subgroup_closure(sl3, []))
    assert len(q1.cosets) == 24
    assert len(q1.covers()) == 64
    q2 = control_quotient_order(table, table)
    assert len(q2.cosets) == 1 and control_forward_pairs(q2) == []


def test_control_forward_edges_reference(sl3):
    table = enumerate_U(sl3)
    u_s = subgroup_closure(sl3, [sl3.generator(1)])
    quotient = control_quotient_order(table, u_s)
    tables = table.tables

    def class_key(expr):
        x = parse_element(sl3, expr)
        return frozenset(map(tables.matrix, quotient.cosets[quotient.index_of(x)].ids))

    classes = quotient.cosets
    got = {
        (
            frozenset(map(tables.matrix, classes[src].ids)),
            frozenset(map(tables.matrix, classes[dst].ids)),
        )
        for src, dst in control_forward_pairs(quotient)
    }
    want = {
        (class_key(a), class_key(b)) for a, b in fixture_sl3.CONTROL_FORWARD_ARROWS
    }
    assert got == want and len(got) == 8
    # trivial U(S): 64 reversed cover edges
    q_triv = control_quotient_order(table, subgroup_closure(sl3, []))
    assert len(control_forward_pairs(q_triv)) == 64


def test_converse_candidates(sl3):
    table = enumerate_U(sl3)
    classes = cosets(table, subgroup_closure(sl3, [sl3.generator(1)]))
    one = sl3.identity()
    s1, s2 = sl3.generator(1), sl3.generator(2)
    position = table.tables.position
    u_class = next(c for c in classes if position(one) in c.ids)
    # same class: contains the identity
    assert one in _grid_candidates(u_class, u_class)
    # v-class = U(S) s2, u-class = U(S): nonempty, contains s1
    cands = _grid_candidates(u_class, next(c for c in classes if position(s2) in c.ids))
    assert s1 in cands and cands
    # every candidate lies in the u class
    assert all(position(x) in u_class.ids for x in cands)


def test_undetermined_pairs_surface(sl3):
    table = enumerate_U(sl3)
    u_s = subgroup_closure(sl3, [sl3.generator(1)])
    quotient = control_quotient_order(table, u_s)
    for a_expr, b_expr in fixture_sl3.UNDETERMINED_PAIRS:
        a, b = parse_element(sl3, a_expr), parse_element(sl3, b_expr)
        verdict = pair_status(quotient, a, b)
        assert verdict.status == "undetermined"
        assert (
            verdict.a_before_b_candidates or verdict.b_before_a_candidates
        ), "at least one direction must stay open"
        refuted = [
            c for c in (verdict.a_before_b_candidates, verdict.b_before_a_candidates)
            if c is not None and not c
        ]
        assert not refuted, "reference pairs are open, not refuted"


def test_pair_status_determined(sl3):
    table = enumerate_U(sl3)
    u_s = subgroup_closure(sl3, [sl3.generator(1)])
    quotient = control_quotient_order(table, u_s)
    s2 = sl3.generator(2)
    # D(s2) <= D(1) because U(S) <= U(S) s2 in the coset order
    v = pair_status(quotient, s2, sl3.identity())
    assert v.status == "leq"
    v2 = pair_status(quotient, sl3.identity(), s2)
    assert v2.status == "geq"
    v3 = pair_status(quotient, s2, sl3.generator(1) * s2)
    assert v3.status == "equal"
    with pytest.raises(ValueError, match="control-forward quotient"):
        pair_status(morse_quotient_order(table, subgroup_U_H(sl3, {1})), s2, s2)


def test_quotient_antisymmetry_exhaustive(sl3, so24):
    # every subgroup generated by one generator element, both rules
    for preset in (sl3, so24):
        table = enumerate_U(preset)
        for i in range(1, preset.rank + 1):
            sub = subgroup_closure(preset, [preset.generator(i)])
            for q in (
                morse_quotient_order(table, sub),
                control_quotient_order(table, sub),
            ):
                for a, b in q.relation:
                    assert (b, a) not in q.relation


def _quotient_by_definition(elements, subgroup, rule):
    """Right cosets of `subgroup` (as sets of indices into `elements`) with
    the strict pairs and covers of their order, from the definitions alone:
    `extended_leq` on members, and a cover is a strict pair with no class
    strictly between."""
    index = {u.matrix: k for k, u in enumerate(elements)}
    classes, seen = [], set()
    for k, u in enumerate(elements):
        if k not in seen:
            members = frozenset(index[(h * u).matrix] for h in subgroup)
            seen |= members
            classes.append(members)

    def below(lo, hi):
        if rule == "morse":  # every member of lo sits below some member of hi
            return all(any(extended_leq(elements[a], elements[b]) for b in hi) for a in lo)
        # control: every member of hi sits above some member of lo
        return all(any(extended_leq(elements[a], elements[b]) for a in lo) for b in hi)

    n = len(classes)
    strict = {(i, j) for i, j in product(range(n), repeat=2) if i != j and below(classes[i], classes[j])}
    covers = {
        (i, j) for i, j in strict if not any((i, k) in strict and (k, j) in strict for k in range(n))
    }
    return classes, strict, covers


def _quotient_cases():
    presets = [
        ("sl3", lambda: load_preset("sl3")),
        ("so24", lambda: load_preset("so24")),
        ("custom_o3", lambda: load_config(str(CUSTOM_O3))),
    ]
    for name, make in presets:
        rank = make().rank
        for size in range(rank + 1):
            for theta in combinations(range(1, rank + 1), size):
                yield pytest.param(make, "theta", theta, id=f"{name}-theta{''.join(map(str, theta))}")
        for i in range(1, rank + 1):
            yield pytest.param(make, "gen", i, id=f"{name}-s{i}")
    yield pytest.param(lambda: load_preset("sl4"), "theta", (1,), id="sl4-theta1")
    yield pytest.param(lambda: load_preset("sl4"), "gen", 1, id="sl4-s1")


@pytest.mark.parametrize("make,source,arg", _quotient_cases())
def test_quotient_orders_match_definitions(make, source, arg):
    """Both rules, on U_H for Theta or on U(S) = <s_i>, against the
    definitions evaluated member by member."""
    preset = make()
    table = enumerate_U(preset)
    if source == "theta":
        subgroup = subgroup_U_H(preset, arg)
    else:
        subgroup = subgroup_closure(preset, [preset.generator(arg)])
    elements = list(table)
    tables = compile_group(preset)
    for rule, build in (("morse", morse_quotient_order), ("control", control_quotient_order)):
        quotient = build(table, subgroup)
        for k, c in enumerate(quotient.cosets):
            assert list(c.ids) == sorted(set(c.ids))
            assert all(quotient.class_of[p] == k for p in c.ids)
        classes, strict, covers = _quotient_by_definition(elements, subgroup, rule)
        where = {frozenset(map(tables.matrix, c.ids)): k for k, c in enumerate(quotient.cosets)}
        rename = [where[frozenset(elements[a].matrix for a in c)] for c in classes]
        n = len(quotient.cosets)
        assert sorted(rename) == list(range(n))
        assert quotient.relation == {(rename[i], rename[j]) for i, j in strict}
        assert quotient.covers() == {(rename[i], rename[j]) for i, j in covers}
        for i, j in product(range(n), repeat=2):
            assert quotient.leq(rename[i], rename[j]) == (i == j or (i, j) in strict)


def lowest_bit_walk(mask):
    """Set-bit indices by clearing the lowest bit: the definition `_bits`
    must match."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def test_bits_match_lowest_bit_walk():
    rng = random.Random(20261018)
    masks = [0, 1, 2, 3, 1 << 11519, 1 << 64, (1 << 64) - 1, (1 << 11520) - 1]
    masks += [rng.getrandbits(rng.randrange(1, 11521)) for _ in range(200)]
    masks += [sum(1 << b for b in rng.sample(range(11520), 800)) for _ in range(20)]
    for mask in masks:
        assert list(_bits(mask)) == lowest_bit_walk(mask)
    assert list(_bits(1 << 11519)) == [11519]
    assert list(_bits(0)) == []


def test_reduce_unit():
    # rows: bit i of row j means i <= j; the check returns the cover rows
    # diamond: 0 below 1 and 2, both below 3; (0, 3) is implied, not a cover
    diamond = [0b0001, 0b0011, 0b0101, 0b1111]
    assert _verify_partial_order(diamond, "diamond") == [0b0000, 0b0001, 0b0001, 0b0110]
    # chain
    assert _verify_partial_order([0b001, 0b011, 0b111], "chain") == [0b000, 0b001, 0b010]


def test_verify_partial_order_rejects_bad_relations():
    # rows: row j holds the elements at or below j
    chain = [0b001, 0b011, 0b111]
    assert _verify_partial_order(chain, "chain") == [0b000, 0b001, 0b010]
    with pytest.raises(InvariantViolation, match="antisymmetry"):
        _verify_partial_order([0b11, 0b11], "cycle")
    # equal rows that are not transitive: only the distinct-rows test sees it
    with pytest.raises(InvariantViolation, match="antisymmetry"):
        _verify_partial_order([0b0111, 0b0111, 0b1100, 0b1000], "equal rows")
    # distinct rows, a 2-cycle (1, 2) and (2, 1), and not transitive
    with pytest.raises(InvariantViolation):
        _verify_partial_order([0b1111, 0b1110, 0b0110, 0b1000], "two-cycle")
    # distinct rows and not transitive: (2, 0) and (0, 1) hold but (2, 1) does not
    with pytest.raises(
        InvariantViolation, match=r"transitivity on \(2, 0\): \(0, 1\) holds but \(2, 1\) does not"
    ):
        _verify_partial_order([0b1111, 0b1011, 0b0111, 0b1101], "cycles")
    with pytest.raises(
        InvariantViolation, match=r"transitivity on \(0, 1\): \(1, 2\) holds but \(0, 2\) does not"
    ):
        _verify_partial_order([0b001, 0b011, 0b110], "gap")
    with pytest.raises(InvariantViolation, match="reflexivity on 1"):
        _verify_partial_order([0b01, 0b01], "no diagonal")


@st.composite
def small_relations(draw):
    """Relations on at most 7 elements as rows (bit i of row j: i <= j): any
    relation, or half the time a partial order (the reflexive, transitive
    closure of random edges i -> j with i < j, relabelled), possibly with one
    bit toggled."""
    n = draw(st.integers(min_value=1, max_value=7))
    rows = draw(st.lists(st.integers(0, (1 << n) - 1), min_size=n, max_size=n))
    if draw(st.booleans()):
        rows = [row & ((1 << j) - 1) | 1 << j for j, row in enumerate(rows)]
        for j in range(n):  # the rows of the elements below j are closed already
            for i in range(j):
                if rows[j] >> i & 1:
                    rows[j] |= rows[i]
        label = draw(st.permutations(range(n)))
        relabelled = [0] * n
        for j, row in enumerate(rows):
            relabelled[label[j]] = sum(1 << label[i] for i in range(n) if row >> i & 1)
        rows = relabelled
        if draw(st.booleans()):
            j, k = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
            rows[j] ^= 1 << k
    return rows


@settings(max_examples=400, deadline=None)
@given(small_relations())
def test_verify_partial_order_matches_brute_force(rows):
    n = len(rows)
    elements = range(n)

    def leq(i, j):
        return bool(rows[j] >> i & 1)

    is_order = (
        all(leq(i, i) for i in elements)
        and not any(i != j and leq(i, j) and leq(j, i) for i in elements for j in elements)
        and all(
            leq(i, k)
            for i, j, k in product(elements, repeat=3)
            if leq(i, j) and leq(j, k)
        )
    )
    if not is_order:
        with pytest.raises(InvariantViolation):
            _verify_partial_order(rows, "random")
        return

    def less(i, j):
        return i != j and leq(i, j)

    covers = [
        sum(
            1 << i
            for i in elements
            if less(i, j) and not any(less(i, k) and less(k, j) for k in elements)
        )
        for j in elements
    ]
    assert _verify_partial_order(rows, "random") == covers


def test_down_set_disagreement_names_element(monkeypatch):
    from wtits import xorder

    # a fresh (uncached) group, with the grid route made to lose u
    preset = load_config(
        {
            "name": "custom-sl2",
            "n": 2,
            "generators": [[[0, -1], [1, 0]]],
            "simple_roots": [[1, -1]],
            "a_basis": [[[1, 0], [0, 0]], [[0, 0], [0, 1]]],
        }
    )
    real = xorder._grid
    monkeypatch.setattr(
        xorder, "_grid", lambda tables, word, top: real(tables, word, top) - {tables.identity}
    )
    with pytest.raises(InvariantViolation) as err:
        down_set(preset.identity())
    message = str(err.value)
    named = message.removeprefix("down-set routes disagree for ").partition(":")[0]
    assert named in {display_word(u) for u in enumerate_U(preset)}
    assert "((" not in message  # no raw matrix


def test_order_refused_from_predicted_memory(monkeypatch):
    from wtits import xorder
    from wtits.xorder import MAX_ORDER_BYTES, require_order_memory

    require_order_memory(23040)  # sl6: 66,355,200 bytes
    with pytest.raises(ValueError, match="322560 elements needs 13005619200 bytes"):
        require_order_memory(322560)  # sl7, from the prediction alone
    assert MAX_ORDER_BYTES == 1 << 30

    # a fresh group of 4 elements: 16 bits, 2 bytes
    preset = load_config(
        {
            "name": "custom-sl2",
            "n": 2,
            "generators": [[[0, -1], [1, 0]]],
            "simple_roots": [[1, -1]],
            "a_basis": [[[1, 0], [0, 0]], [[0, 0], [0, 1]]],
        }
    )
    table = enumerate_U(preset)
    u_h = subgroup_U_H(preset, {1})

    def no_build(*args):
        raise AssertionError("no order data may be built")

    monkeypatch.setattr(xorder, "_drop_covers", no_build)
    monkeypatch.setattr(xorder, "cosets", no_build)
    monkeypatch.setattr(xorder, "MAX_ORDER_BYTES", 1)
    s1 = preset.generator(1)
    for build in (
        lambda: down_set(s1),
        lambda: extended_leq(s1, s1),
        lambda: morse_quotient_order(table, u_h),
        lambda: control_quotient_order(table, u_h),
    ):
        with pytest.raises(ValueError, match=r"\|U\| = 4 elements needs 2 bytes .* cap of 1$"):
            build()
    # the Hasse diagram and the covers build no bitset
    for build in (lambda: hasse(table), lambda: down_covers(s1)):
        with pytest.raises(AssertionError, match="no order data"):
            build()
    monkeypatch.setattr(xorder, "MAX_ORDER_BYTES", 2)  # at the cap: allowed
    for build in (lambda: down_set(s1), lambda: morse_quotient_order(table, u_h)):
        with pytest.raises(AssertionError, match="no order data"):
            build()


def test_covers_refused_from_predicted_entries(monkeypatch):
    from wtits import xorder
    from wtits.xorder import MAX_COVER_ENTRIES, require_cover_memory

    require_cover_memory(23040, 15)  # sl6: 691,200 entries
    with pytest.raises(ValueError, match="322560 elements may take 13547520 entries"):
        require_cover_memory(322560, 21)  # sl7, from the prediction alone
    assert MAX_COVER_ENTRIES == 1 << 21

    # a fresh group of 4 elements with |Phi+| = 1: at most 8 cover entries
    preset = load_config(
        {
            "name": "custom-sl2",
            "n": 2,
            "generators": [[[0, -1], [1, 0]]],
            "simple_roots": [[1, -1]],
            "a_basis": [[[1, 0], [0, 0]], [[0, 0], [0, 1]]],
        }
    )
    table = enumerate_U(preset)
    s1 = preset.generator(1)

    def no_build(*args):
        raise AssertionError("no covers may be built")

    monkeypatch.setattr(xorder, "_drop_covers", no_build)
    monkeypatch.setattr(xorder, "MAX_ORDER_BYTES", 2)  # the down-sets fit
    monkeypatch.setattr(xorder, "MAX_COVER_ENTRIES", 7)
    for build in (lambda: hasse(table), lambda: down_covers(s1), lambda: down_set(s1)):
        with pytest.raises(ValueError, match=r"\|U\| = 4 elements may take 8 entries .* cap of 7$"):
            build()
    monkeypatch.setattr(xorder, "MAX_COVER_ENTRIES", 8)  # at the cap: allowed
    for build in (lambda: hasse(table), lambda: down_covers(s1)):
        with pytest.raises(AssertionError, match="no covers"):
            build()


def test_hasse_rejects_unreduced_covers(monkeypatch):
    from wtits import xorder

    # a fresh SL(3) group whose covers gain one edge at a time that breaks the grading
    preset = load_config(
        {
            "name": "custom-sl3",
            "n": 3,
            "generators": [
                [[0, -1, 0], [1, 0, 0], [0, 0, 1]],
                [[1, 0, 0], [0, 0, -1], [0, 1, 0]],
            ],
            "simple_roots": [[1, -1, 0], [0, 1, -1]],
            "a_basis": [
                [[int(r == c == p) for c in range(3)] for r in range(3)] for p in range(3)
            ],
        }
    )
    table = enumerate_U(preset)
    real = xorder._covers
    tables = compile_group(preset)
    e = tables.identity
    s1, s2 = tables.right[0][e], tables.right[1][e]
    s1s2 = tables.right[1][s1]
    for hi, lo, message in [
        (s1s2, e, "cover s1 s2 -> 1 joins lengths 2 and 0"),  # skips length 1
        (s1, s2, "cover s1 -> s2 joins lengths 1 and 1"),  # same length
        (e, s1, "cover 1 -> s1 joins lengths 0 and 1"),  # closes a cycle with s1 -> 1
    ]:
        covers = list(real(tables))
        covers[hi] += (lo,)
        monkeypatch.setattr(xorder, "_covers", lambda _, covers=tuple(covers): covers)
        with pytest.raises(InvariantViolation, match=f"^{message}, which are not consecutive$"):
            hasse(table)
    monkeypatch.setattr(xorder, "_covers", real)
    assert len(hasse(table).covers) == 64


@pytest.mark.parametrize("name", ["sl3", "so24", "sl4"])
def test_table_reduced_words_match_fraction_route(name):
    weyl = compile_group(load_preset(name)).weyl
    for w in range(len(weyl)):
        assert tuple(weyl.reduced_words(w)) == ref.all_reduced_words(weyl.element(w))


def reference_lift_word(coset):
    """First member (by key) that lifts one of its reduced words exactly,
    by Fraction words and matrix products; that word, or None."""
    for member in map(coset.tables.element, coset.ids):
        for word in ref.all_reduced_words(project_to_W(member)):
            if ref.lift_word(member.preset, word).matrix == member.matrix:
                return word
    return None


def reference_products(preset, word):
    """Every s_1^{k_1}...s_d^{k_d} with k_i in {0,1,2,3}, by matrix products."""
    found = set()
    for ks in product((0, 1, 2, 3), repeat=len(word)):
        prod = preset.identity()
        for letter, k in zip(word, ks):
            prod = prod * (preset.generator(letter) ** k)
        found.add(prod)
    return found


@pytest.mark.parametrize(
    "make",
    [lambda: load_preset("sl3"), lambda: load_preset("so24"), lambda: load_config(str(CUSTOM_O3))],
    ids=["sl3", "so24", "custom"],
)
def test_converse_candidates_match_matrix_loop(make):
    preset = make()
    table = enumerate_U(preset)
    for i in range(1, preset.rank + 1):
        u_s = subgroup_closure(preset, [preset.generator(i)])
        classes = cosets(table, u_s)
        for v_class in classes:
            word = reference_lift_word(v_class)
            products = None if word is None else reference_products(preset, word)
            for u_class in classes:
                if word is None:
                    with pytest.raises(ReducedLiftUnavailable):
                        _grid_candidates(u_class, v_class)
                else:
                    want = {x for x in products if table.tables.position(x) in u_class.ids}
                    assert _grid_candidates(u_class, v_class) == want


def test_converse_grid_matches_matrix_loop_sl4():
    from wtits import xorder

    # the lift search is checked against the Fraction route on smaller
    # groups above; here its word is checked to be a reduced lift
    preset = load_preset("sl4")
    tables = compile_group(preset)
    liftable = 0
    for i in range(1, preset.rank + 1):
        u_s = subgroup_closure(preset, [preset.generator(i)])
        for v_class in cosets(enumerate_U(preset), u_s):
            try:
                member, word = xorder._reduced_lift_of_class(tables, v_class)
            except ReducedLiftUnavailable:
                continue
            liftable += 1
            assert tables.position(member) in v_class.ids and ref.lift_word(preset, word) == member
            assert ref.is_reduced(preset.root_datum, word)
            grid = set(map(tables.element, xorder._grid(tables, word, 3)))
            assert grid == reference_products(preset, word)
    assert liftable == 36
