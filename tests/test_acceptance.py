"""Acceptance suite: one test per criterion, each printing a PASS line with
its measured numbers.  Tolerances and runtime budgets are pinned here and
nowhere else; a failed margin fails the test rather than loosening it.

Run with `pytest tests/test_acceptance.py -v -s`.
"""

import math
import time

import numpy as np
import pytest

import fixture_sl3
import fixture_so24
import weyl_reference as ref
from oracle_reference import contraction_check, psi_rank_one, rank_one_generators
from wtits import (
    FlowSpec,
    control_quotient_order,
    cosets,
    down_set,
    enumerate_C,
    enumerate_U,
    extended_leq,
    hasse,
    load_preset,
    morse_quotient_order,
    pair_status,
    project_to_W,
    recover_morse,
    subgroup_U_H,
    subgroup_closure,
)
from wtits.cli import parse_element
from wtits.oracle import schubert_agreement_report
from wtits.rootsys import length, weyl_group
from wtits.xorder import down_covers, down_set_from_word


def _diagram_closure(fixture):
    down = {k: {k} for k in fixture.NODES}
    changed = True
    while changed:
        changed = False
        for hi, lo in fixture.ARROWS:
            if not down[lo] <= down[hi]:
                down[hi] |= down[lo]
                changed = True
    return down


def test_criterion_01_sl3_order_reproduction(sl3):
    start = time.perf_counter()
    table = enumerate_U(sl3)
    poset = hasse(table)
    nodes = {k: parse_element(sl3, e) for k, e in fixture_sl3.NODES.items()}
    assert len(poset) == 24
    assert len(poset.covers) == 64
    pos = {table.tables.matrix(k): i for i, k in enumerate(poset.ids)}
    assert {
        (pos[nodes[lo].matrix], pos[nodes[hi].matrix]) for hi, lo in fixture_sl3.ARROWS
    } == set(poset.covers)
    closure = _diagram_closure(fixture_sl3)
    for hi_id, hi in nodes.items():
        for lo_id, lo in nodes.items():
            assert extended_leq(lo, hi) == (lo_id in closure[hi_id])
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    print(f"\nACCEPTANCE 1 PASS: sl3 order = reference diagram (24 nodes, 64 covers) in {elapsed:.3f}s")


def test_criterion_02_so24_order_reproduction(so24):
    table = enumerate_U(so24)
    poset = hasse(table)
    nodes = {k: parse_element(so24, e) for k, e in fixture_so24.NODES.items()}
    assert len(poset) == 16 and len(poset.covers) == 36
    pos = {table.tables.matrix(k): i for i, k in enumerate(poset.ids)}
    assert {
        (pos[nodes[lo].matrix], pos[nodes[hi].matrix]) for hi, lo in fixture_so24.ARROWS
    } == set(poset.covers)
    s1, s2 = so24.generator(1), so24.generator(2)
    assert (s2 * s2).is_identity()
    assert (s1 * s2 * s1 * s2).matrix == (s2 * s1 * s2 * s1).matrix
    assert {c.matrix for c in enumerate_C(so24)} == {
        so24.identity().matrix,
        (s1 * s1).matrix,
    }
    print("ACCEPTANCE 2 PASS: so24 order = reference diagram (16 nodes, 36 covers); s2^2=1, braid and C checks exact")


def test_criterion_03_morse_quotient(sl3):
    table = enumerate_U(sl3)
    quotient = morse_quotient_order(table, subgroup_U_H(sl3, {1}))
    assert len(quotient.cosets) == 6

    def key(exprs):
        return frozenset(parse_element(sl3, e).matrix for e in exprs)

    classes = {key(v): k for k, v in fixture_sl3.MORSE_COSETS.items()}
    label = {}
    for idx, coset in enumerate(quotient.cosets):
        k = frozenset(map(coset.tables.matrix, coset.ids))
        assert k in classes
        label[idx] = classes[k]
    assert {(label[j], label[i]) for i, j in quotient.covers()} == set(
        fixture_sl3.MORSE_ARROWS
    )
    print("ACCEPTANCE 3 PASS: Theta={1} quotient has the 6 reference cosets and 8 edges")


def test_criterion_04_control_machinery(sl3):
    from wtits import check_quotient_isomorphism
    from wtits.rootsys import simple_reflection

    table = enumerate_U(sl3)
    u_s = subgroup_closure(sl3, [sl3.generator(1)])
    report = check_quotient_isomorphism(u_s, enumerate_C(sl3))
    assert report.classes_in_U == 6
    assert report.classes_in_W == 3 and report.classes_in_C == 2
    assert report.identity_holds
    datum = sl3.root_datum
    identity_w = next(w for w in weyl_group(datum) if w.is_identity())
    assert {w.matrix for w in report.W_S} == {
        identity_w.matrix,
        simple_reflection(datum, 1).matrix,
    }
    assert {c.matrix for c in report.C_S} == {
        sl3.identity().matrix,
        (sl3.generator(1) ** 2).matrix,
    }
    qc = control_quotient_order(table, u_s)
    qm = morse_quotient_order(table, subgroup_U_H(sl3, {1}))
    assert qc.relation == qm.relation
    assert [c.ids for c in qc.cosets] == [c.ids for c in qm.cosets]
    for a_expr, b_expr in fixture_sl3.UNDETERMINED_PAIRS:
        verdict = pair_status(qc, parse_element(sl3, a_expr), parse_element(sl3, b_expr))
        assert verdict.status == "undetermined"
    print("ACCEPTANCE 4 PASS: U(S)=<s1> gives 6=3*2 classes, W(S)={1,r1}, C(S)={1,s1^2}, order matches Morse, both open pairs undetermined")


@pytest.mark.parametrize("name", ["sl3", "so24"])
def test_criterion_05_reduced_expression_independence(name):
    preset = load_preset(name)
    checked = 0
    for u in enumerate_U(preset):
        reference = down_set(u)  # internally cross-checks covers vs subword grid
        words = ref.all_reduced_words(project_to_W(u))
        assert len(words) <= 16
        for word in words:
            assert down_set_from_word(u, word) == reference
            checked += 1
    print(f"ACCEPTANCE 5 PASS [{name}]: down-sets identical over all {checked} reduced expressions")


@pytest.mark.parametrize("name", ["sl3", "so24"])
def test_criterion_06_bruhat_recovery(name):
    preset = load_preset(name)
    table = enumerate_U(preset)
    group_w = ref.weyl_group(preset.root_datum)
    for v in group_w:
        for w in group_w:
            assert extended_leq(
                ref.lift_word(preset, ref.reduced_word(v)),
                ref.lift_word(preset, ref.reduced_word(w)),
            ) == ref.bruhat_leq(v, w)
    for lo in table:
        for hi in table:
            if extended_leq(lo, hi):
                assert ref.bruhat_leq(project_to_W(lo), project_to_W(hi))
    print(f"ACCEPTANCE 6 PASS [{name}]: trivial-C lifts reproduce the Bruhat order; projection monotone on all {len(table)**2} pairs")


def test_criterion_07_structural_identities():
    start = time.perf_counter()
    for name, sizes in (("sl3", (24, 6, 4)), ("so24", (16, 8, 2))):
        preset = load_preset(name)
        table = enumerate_U(preset)
        c_table = enumerate_C(preset)
        u_n, w_n, c_n = sizes
        assert len(table) == u_n == w_n * c_n
        assert len(weyl_group(preset.root_datum)) == w_n
        assert len(c_table) == c_n
        c_mats = {c.matrix for c in c_table}
        assert {u.matrix for u in table if not down_covers(u)} == c_mats
        w0 = ref.weyl_group(preset.root_datum)[-1]  # sorted by length: the longest
        covered = {v.matrix for u in table for v in down_covers(u)}
        maximal = {u.matrix for u in table if u.matrix not in covered}
        assert maximal == {
            u.matrix for u in table if project_to_W(u).matrix == w0.matrix
        }
        for u in table:
            for v in down_covers(u):
                assert length(project_to_W(v)) == length(project_to_W(u)) - 1
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    print(f"ACCEPTANCE 7 PASS: |U|=|W||C|, minima=C, maxima=w0 fiber, unit grading, in {elapsed:.3f}s")


def test_criterion_08_oracle_agreement(sl3):
    start = time.perf_counter()
    report = schubert_agreement_report(
        sl3, count=100_000, seed=42, tol=1e-2, reject_margin=5e-2
    )
    elapsed = time.perf_counter() - start
    mismatches = [
        p for p in report["pairs"] if p["combinatorial"] != p["numerical"]
    ]
    assert not mismatches, mismatches[:4]
    negative = [p["min_distance"] for p in report["pairs"] if not p["combinatorial"]]
    assert min(negative) > 5e-2, f"margin calibration failed: {min(negative)}"
    assert report["agree"] and report["margin_ok"]
    assert len(report["pairs"]) == 576
    assert elapsed < 300.0
    print(
        f"ACCEPTANCE 8 PASS: 576/576 pairs agree (count=1e5, seed=42, tol=1e-2); "
        f"min negative distance {min(negative):.3f} > 0.05; {elapsed:.1f}s"
    )


def test_criterion_09_flow_recovery(sl3):
    start = time.perf_counter()
    nil = np.zeros((3, 3))
    nil[1, 2] = 1.0
    spec = FlowSpec(H=np.array([2.0, -1.0, -1.0]), nilpotent=nil)
    report = recover_morse(sl3, spec, grid=48, iters=2000, seed=42)
    elapsed = time.perf_counter() - start
    assert len(report.recurrent_points) == 12
    assert report.components_found() == 6
    assert report.recurrent_per_component == (2,) * 6
    assert not report.non_convergent
    assert max(report.limit_distances) < 1e-4
    assert len(report.attractor_components) == 2
    c_mats = {c.matrix for c in enumerate_C(sl3)}
    for idx in report.attractor_components:
        coset = cosets(enumerate_U(sl3), subgroup_U_H(sl3, {1}))[idx]
        assert any(coset.tables.matrix(k) in c_mats for k in coset.ids)
    for assigned in report.component_assignment[24:]:
        assert assigned in report.attractor_components
    assert elapsed < 60.0
    print(
        f"ACCEPTANCE 9 PASS: 12 recurrent points, 6 components (2 recurrent each), "
        f"max circle distance {max(report.limit_distances):.2e} < 1e-4, "
        f"all {report.start_count - 24} generic starts hit the 2 attractor classes; {elapsed:.1f}s"
    )


def test_criterion_10_contraction_rate():
    nil = np.zeros((3, 3))
    nil[0, 1] = 1.0
    residuals = contraction_check([2.0, -1.0, -1.0], nil, k_max=20, step=1.0)
    rate = math.exp(-3.0)  # alpha(H) = 2 - (-1) on the (1,2) root
    worst = 0.0
    for k in range(20):
        assert residuals[k + 1] < residuals[k]
        rel = abs(residuals[k + 1] / residuals[k] / rate - 1.0)
        worst = max(worst, rel)
    assert worst < 0.05
    assert residuals[20] < 1e-8
    print(f"ACCEPTANCE 10 PASS: geometric decay at e^-3 per step, worst relative rate error {worst:.2e} < 5%")


def test_criterion_11_rank_one_identities():
    rng = np.random.default_rng(42)
    worst = 0.0
    for _ in range(1000):
        m = int(rng.integers(2, 6))
        v = rng.standard_normal(m)
        v /= np.linalg.norm(v)
        a, j = rank_one_generators(0.0, v)
        n = m + 1
        worst = max(
            worst,
            float(np.linalg.norm(a @ a + j)),
            float(np.linalg.norm(a @ a @ a + a)),
            float(abs(np.trace(a))),
            float(abs(psi_rank_one(0.0, v, math.pi)[0, 0] - 1.0)),
        )
    assert worst < 1e-10
    print(f"ACCEPTANCE 11 PASS: A^2=-J, A^3=-A, tr A=0, psi(pi) fixes the origin over 1000 draws; worst residual {worst:.2e}")
