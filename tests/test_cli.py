"""Command-line surface: parsing, outputs, determinism, exit codes."""

import json
import warnings
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wtits import (
    ExprParseError,
    UElement,
    display_word,
    enumerate_U,
    extended_leq,
    hasse,
    load_config,
    load_preset,
)
from wtits.cli import hasse_dot, hasse_json, main, parse_element

CUSTOM_O3 = Path(__file__).resolve().parent.parent / "benchmarks" / "custom_o3.json"


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_parse_element_grammar(sl3):
    s1, s2 = sl3.generator(1), sl3.generator(2)
    assert parse_element(sl3, "1").is_identity()
    assert parse_element(sl3, "s1 s2").matrix == (s1 * s2).matrix
    assert parse_element(sl3, "s2^3").matrix == (s2**3).matrix
    assert parse_element(sl3, "s1^0").is_identity()
    with pytest.raises(ExprParseError) as err:
        parse_element(sl3, "s1 q2")
    assert err.value.position == 3
    with pytest.raises(ExprParseError):
        parse_element(sl3, "s9")
    with pytest.raises(ExprParseError):
        parse_element(sl3, "c1")  # no extra C generators on presets


def test_exponents_of_any_length(sl3, capsys):
    # read digit by digit modulo the order of s1 (4): the last two digits decide
    s1 = sl3.generator(1)
    for digits in ("7" * 4000, "1" * 4998 + "06", "9" * 5000):
        assert parse_element(sl3, f"s1^{digits}") == s1 ** (int(digits[-2:]) % 4)
    text = f"s2^{'5' * 5000} s1 q1"
    with pytest.raises(ExprParseError) as err:
        parse_element(sl3, text)
    assert err.value.position == text.index("q1")
    with pytest.raises(ExprParseError, match="no generator s9{5000}") as err:
        parse_element(sl3, "s1 s" + "9" * 5000)
    assert err.value.position == 3
    lhs = "s1^" + "1" * 4999 + "3"  # 13 = 1 mod 4, so this is s1 again
    code, out, _ = run(capsys, ["order", "leq", "--preset", "sl3", "--lhs", lhs, "--rhs", "s1"])
    assert code == 0 and out == "true\n"


def _expressions(preset):
    """Expressions of up to six tokens with exponents 0-9, and the tokens
    as (kind, index, exponent) triples."""
    kinds = [("s", i) for i in range(1, preset.rank + 1)]
    kinds += [("c", j) for j in range(1, len(preset.c_generators) + 1)]
    token = st.tuples(st.sampled_from(kinds), st.none() | st.integers(0, 9))
    return st.lists(token, max_size=6)


@pytest.mark.parametrize("source", ["sl3", "so24", "sl4", "custom_o3"])
def test_parse_walk_matches_matrix_products(source):
    # the walk on U's tables against the left-to-right matrix product of
    # `UElement.__mul__` and `__pow__`
    preset = load_config(CUSTOM_O3) if source == "custom_o3" else load_preset(source)

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(_expressions(preset))
    def check(tokens):
        expected = preset.identity()
        parts = []
        for (kind, i), exp in tokens:
            base = preset.generator(i) if kind == "s" else UElement(preset.c_generators[i - 1], preset)
            expected = expected * (base if exp is None else base**exp)
            parts.append(f"{kind}{i}" if exp is None else f"{kind}{i}^{exp}")
        assert parse_element(preset, " ".join(parts) or "1").matrix == expected.matrix

    check()


def test_cmd_group(capsys):
    code, out, _ = run(capsys, ["group", "--preset", "sl3"])
    assert code == 0
    assert "|U|=24 |W|=6 |C|=4" in out
    code, out, _ = run(capsys, ["group", "--preset", "so24"])
    assert code == 0 and "|U|=16 |W|=8 |C|=2" in out
    code, out, _ = run(capsys, ["group", "--preset", "sl2"])
    assert code == 0 and "|U|=4 |W|=2 |C|=2" in out
    code, out, _ = run(capsys, ["group", "--preset", "sl3", "--json"])
    payload = json.loads(out)
    assert payload["sizes"] == {"U": 24, "W": 6, "C": 4}
    assert payload["generators"]["s1"] == [[1, 0, 0], [0, 0, -1], [0, 1, 0]]


def test_cmd_order_leq(capsys):
    code, out, _ = run(
        capsys, ["order", "leq", "--preset", "sl3", "--lhs", "s1^2", "--rhs", "s1"]
    )
    assert code == 0 and out.strip() == "true"
    code, out, _ = run(
        capsys, ["order", "leq", "--preset", "sl3", "--lhs", "s2^2", "--rhs", "s1"]
    )
    assert code == 0 and out.strip() == "false"


def test_cmd_order_hasse_json(capsys):
    code, out, _ = run(
        capsys, ["order", "hasse", "--preset", "so24", "--format", "json"]
    )
    assert code == 0
    payload = json.loads(out)
    assert len(payload["elements"]) == 16
    assert len(payload["covers"]) == 36
    # ids sorted by (projection length, word)
    words = [e["word"] for e in payload["elements"]]
    assert words[0] == "1"
    # covers reference valid ids as [upper, lower]
    ids = {e["id"] for e in payload["elements"]}
    for hi, lo in payload["covers"]:
        assert hi in ids and lo in ids


@pytest.mark.parametrize("source", ["sl3", "so24", "custom_o3"])
def test_hasse_json_ids_are_hasse_indices(source):
    preset = load_config(CUSTOM_O3) if source == "custom_o3" else load_preset(source)
    table = enumerate_U(preset)
    poset = hasse(table)
    payload = hasse_json(table)
    assert [e["id"] for e in payload["elements"]] == list(range(len(poset)))
    # each index back to its element, then to its word by `position`
    elements = list(map(table.tables.element, poset.ids))
    assert [e["word"] for e in payload["elements"]] == list(map(display_word, elements))
    assert [e["matrix"] for e in payload["elements"]] == [
        [list(row) for row in u.matrix] for u in elements
    ]
    assert {(lo, hi) for hi, lo in payload["covers"]} == poset.covers
    assert len(payload["covers"]) == len(poset.covers)


def test_hasse_json_byte_stable(so24):
    table = enumerate_U(so24)
    a = json.dumps(hasse_json(table), indent=2, sort_keys=True)
    b = json.dumps(hasse_json(table), indent=2, sort_keys=True)
    assert a == b


def test_dot_reachability_equals_order(sl3):
    table = enumerate_U(sl3)
    dot = hasse_dot(table)
    # parse the emitted edges back out
    edges = []
    for line in dot.splitlines():
        line = line.strip()
        if "->" in line:
            src, dst = line.rstrip(";").split("->")
            edges.append((src.strip().strip('"'), dst.strip().strip('"')))
    assert len(edges) == 64
    by_word = {line.strip().strip('";') for line in dot.splitlines() if line.strip().startswith('"') and "->" not in line}
    assert len(by_word) == 24
    # closure of emitted arrows == extended order
    reach = {w: {w} for w in by_word}
    changed = True
    while changed:
        changed = False
        for hi, lo in edges:
            if not reach[lo] <= reach[hi]:
                reach[hi] |= reach[lo]
                changed = True
    elements = {w: parse_element(sl3, w) for w in by_word}
    for hi_word, hi in elements.items():
        for lo_word, lo in elements.items():
            assert extended_leq(lo, hi) == (lo_word in reach[hi_word])


def test_cmd_morse_text(capsys):
    code, out, _ = run(capsys, ["morse", "--preset", "sl3", "--theta", "1"])
    assert code == 0
    assert "6 classes" in out
    assert "[s2 s1] -> [s2]" in out
    assert "dynamical order" in out
    # empty theta: one class per element
    code, out, _ = run(capsys, ["morse", "--preset", "sl3", "--theta", ""])
    assert code == 0 and "24 classes" in out
    code, out, _ = run(capsys, ["morse", "--preset", "sl3", "--theta", "1,2"])
    assert code == 0 and "1 classes" in out


def test_cmd_morse_json(capsys):
    code, out, _ = run(
        capsys, ["morse", "--preset", "sl3", "--theta", "1", "--format", "json"]
    )
    payload = json.loads(out)
    assert len(payload["cosets"]) == 6
    assert len(payload["covers"]) == 8
    assert payload["kind"] == "morse"


def test_cmd_morse_dot(capsys):
    code, out, _ = run(
        capsys, ["morse", "--preset", "sl3", "--theta", "1", "--format", "dot"]
    )
    assert code == 0
    assert out.startswith("digraph morse_sl3")
    assert out.count("->") == 8
    assert '"s2 s1" -> "s2"' in out


def test_cmd_control(capsys):
    code, out, _ = run(capsys, ["control", "--preset", "sl3", "--us-gens", "s1"])
    assert code == 0
    assert "6 control-set classes" in out
    assert "classes: |U(S)\\U| = 6 = 3 * 2 (ok)" in out
    assert "D[s2 s1] -> D[s2]" in out
    # empty generator list: one class per element
    code, out, _ = run(capsys, ["control", "--preset", "sl3", "--us-gens", ""])
    assert code == 0 and "24 control-set classes" in out


def test_cmd_control_pair_undetermined(capsys):
    code, out, _ = run(
        capsys,
        [
            "control",
            "--preset",
            "sl3",
            "--us-gens",
            "s1",
            "--pair",
            "s2",
            "s2 s1^2",
        ],
    )
    assert code == 0
    assert "undetermined" in out
    assert "candidates" in out
    code, out, _ = run(
        capsys,
        ["control", "--preset", "sl3", "--us-gens", "s1", "--pair", "s2", "1"],
    )
    assert code == 0 and "D[s2] <= D[1]" in out


def test_cmd_oracle_schubert_small(capsys):
    code, out, err = run(
        capsys,
        [
            "oracle",
            "schubert",
            "--preset",
            "sl3",
            "--samples",
            "300",
            "--seed",
            "42",
            "--tol",
            "1e-2",
        ],
    )
    assert code == 0
    assert "576/576 pairs agree" in err
    assert "576/576 pairs agree" in out


def test_cmd_oracle_flow_small(capsys):
    code, out, _ = run(
        capsys,
        [
            "oracle",
            "flow",
            "--preset",
            "sl3",
            "--H",
            "2,-1,-1",
            "--nilpotent",
            "e23",
            "--steps",
            "600",
            "--grid",
            "8",
        ],
    )
    assert code == 0
    assert "12 recurrent points, 6 components" in out
    code, out, _ = run(
        capsys, ["oracle", "flow", "--preset", "sl3", "--H", "0,0,0", "--grid", "0"]
    )
    assert code == 0 and "degenerate" in out


@pytest.mark.parametrize("step", ["300", "1e3"])
def test_cmd_oracle_flow_refuses_an_overflowing_time_step(capsys, step):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a numpy overflow warning fails the test
        code, out, err = run(
            capsys, ["oracle", "flow", "--preset", "sl3", "--H", "2,-1,-1", "--time-step", step]
        )
    assert code == 2 and out == ""
    assert err.startswith(f"error: --time-step {float(step):g} times H = [2.0, -1.0, -1.0]")
    assert err.count("\n") == 1


HUGE = "1" + "0" * 200  # 1e200, written out


@pytest.mark.parametrize(
    "nilpotent,message",
    [
        (f"e12={HUGE},e23=1", "error: --time-step 1 times --nilpotent of Frobenius norm 1e+200"),
        ("e12=1,e23=nan", "parse error: --nilpotent entry 'e23=nan' is not finite (at position 6)"),
        ("e23=inf", "parse error: --nilpotent entry 'e23=inf' is not finite (at position 0)"),
        ("e23=-inf", "parse error: --nilpotent entry 'e23=-inf' is not finite (at position 0)"),
    ],
    ids=["overflow", "nan", "inf", "minus-inf"],
)
def test_cmd_oracle_flow_refuses_a_non_finite_unipotent_part(capsys, nilpotent, message):
    # refused before any exp: no numpy warning, and one line naming the flag
    argv = ["oracle", "flow", "--preset", "sl3", "--H", "0,0,0", "--nilpotent", nilpotent]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(capsys, [*argv, "--steps", "10"])
    assert code == 2 and out == ""
    assert err.startswith(message) and err.count("\n") == 1


def test_cmd_oracle_flow_reads_nilpotent_exponents(capsys):
    argv = ["oracle", "flow", "--preset", "sl3", "--H", "2,-1,-1", "--steps", "10", "--grid", "2"]
    outputs = []
    for value in ("1e3", "1000", "1E+3", "1000.0"):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run(capsys, [*argv, "--json", "--nilpotent", f"e23={value}"])
        assert code == 0 and err == ""
        outputs.append(out)
    assert len(set(outputs)) == 1
    assert json.loads(outputs[0].split("\n", 1)[1])["preset"] == "sl3"


@pytest.mark.parametrize(
    "argv",
    [
        ["schubert", "--samples", "-5"],
        ["flow", "--H", "2,-1,-1", "--grid", "-3"],
        ["flow", "--H", "2,-1,-1", "--steps", "-1"],
    ],
    ids=["samples", "grid", "steps"],
)
def test_cmd_oracle_refuses_negative_sizes(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(["oracle", *argv, "--preset", "sl3"])
    assert exc.value.code == 2
    assert f"argument {argv[-2]}: must be nonnegative, got {argv[-1]}" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["schubert", "--tol", "nan"],
        ["schubert", "--tol", "0"],
        ["schubert", "--margin", "-1"],
        ["schubert", "--margin", "inf"],
        ["flow", "--H", "2,-1,-1", "--time-step", "nan"],
        ["flow", "--H", "2,-1,-1", "--time-step", "-0.5"],
    ],
    ids=["tol-nan", "tol-zero", "margin-negative", "margin-inf", "step-nan", "step-negative"],
)
def test_cmd_oracle_refuses_nonpositive_floats(capsys, argv):
    # refused while parsing, before any preset is loaded or report run
    with pytest.raises(SystemExit) as exc:
        main(["oracle", *argv, "--preset", "sl3"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"argument {argv[-2]}: must be a finite positive number, got {argv[-1]}" in captured.err


@pytest.mark.parametrize(
    "argv,message",
    [
        (["morse", "--theta", ",1"], "--theta: bad entry '' in ',1'"),
        (["morse", "--theta", "1,x"], "--theta: bad entry 'x' in '1,x'"),
        (["oracle", "flow", "--H", "1,x,-1"], "--H: bad entry 'x' in '1,x,-1'"),
        (
            ["oracle", "flow", "--H", "2,-1,-1", "--nilpotent", "e23=1.2.3"],
            "bad nilpotent token 'e23=1.2.3'",
        ),
        (["oracle", "flow", "--H", "nan,0,0"], "H must be finite"),
        (["oracle", "flow", "--H", "2,-1"], "--H has 2 entries, but preset sl3 has n = 3"),
    ],
    ids=["theta-empty", "theta-letter", "H-letter", "nilpotent-number", "H-nan", "H-short"],
)
def test_flag_parse_errors_name_the_flag(capsys, argv, message):
    code, out, err = run(capsys, [*argv, "--preset", "sl3"])
    assert code == 2 and out == ""
    assert message in err


def test_cmd_morse_extra_gens(capsys):
    # empty Theta with s1 supplied explicitly reproduces the Theta={1} quotient
    code, out, _ = run(
        capsys,
        ["morse", "--preset", "sl3", "--theta", "", "--extra-gens", "s1"],
    )
    assert code == 0 and "6 classes" in out


def test_cmd_oracle_schubert_json_report(capsys):
    code, out, err = run(
        capsys,
        [
            "oracle",
            "schubert",
            "--preset",
            "sl2",
            "--samples",
            "50",
            "--json",
        ],
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["agree"] and payload["margin_ok"]
    assert len(payload["pairs"]) == 16
    assert {"lo", "hi", "combinatorial", "numerical", "min_distance"} <= set(
        payload["pairs"][0]
    )


def test_invariant_violation_exit_code(capsys):
    # an absurd tolerance makes the numerical verdict disagree everywhere
    code, _, err = run(
        capsys,
        ["oracle", "schubert", "--preset", "sl2", "--samples", "20", "--tol", "10"],
    )
    assert code == 3
    assert "invariant violation" in err


@pytest.mark.parametrize("theta", ["5", "0"])
def test_cmd_morse_refuses_theta_outside_rank(capsys, theta):
    code, out, err = run(capsys, ["morse", "--preset", "sl3", "--theta", theta])
    assert code == 2 and out == ""
    assert f"Theta [{theta}] not within 1..2" in err


def test_cmd_oracle_flow_refuses_nilpotent_outside_matrix(capsys):
    code, out, err = run(
        capsys, ["oracle", "flow", "--preset", "sl3", "--H", "1,0,-1", "--nilpotent", "e91"]
    )
    assert code == 2 and out == ""
    assert "parse error: nilpotent entry e91 outside 1..3" in err


def test_cmd_control_parses_pair_before_printing(capsys):
    code, out, err = run(
        capsys, ["control", "--preset", "sl3", "--us-gens", "s1", "--pair", "s1", "s9"]
    )
    assert code == 2 and out == ""
    assert "parse error: no generator s9" in err


def test_parse_error_exit_code(capsys):
    code, _, err = run(
        capsys, ["order", "leq", "--preset", "sl3", "--lhs", "zz", "--rhs", "s1"]
    )
    assert code == 2
    assert "parse error" in err


def refuse_closing_u(monkeypatch, *presets):
    """Make closing the U of any of `presets` raise.  U's closure is the only
    one whose generators include s1: C is closed from the s_i^2 and c_j."""
    import wtits.utits as utits

    real = utits._closure
    s1s = [preset.generators[0] for preset in presets]

    def closure(identity, generators, bound):
        if any(s1 in generators for s1 in s1s):
            raise AssertionError("U must not be closed")
        return real(identity, generators, bound)

    monkeypatch.setattr(utits, "_closure", closure)


@pytest.mark.parametrize(
    "argv",
    [
        ["order", "hasse", "--preset", "sl7"],
        ["order", "leq", "--preset", "sl7", "--lhs", "1", "--rhs", "s1"],
        ["morse", "--preset", "sl7", "--theta", "1"],
        ["control", "--preset", "sl(7)", "--us-gens", "s1"],
    ],
)
def test_order_commands_refuse_sl7_before_loading(capsys, monkeypatch, argv):
    from wtits.xorder import MAX_COVER_ENTRIES, MAX_ORDER_BYTES

    refuse_closing_u(monkeypatch, load_preset("sl7"))
    code, _, err = run(capsys, argv)
    assert code == 2
    if argv[:2] == ["order", "hasse"]:
        # the Hasse diagram builds no bitset: 322560 * 2 * 21 predicted cover entries
        assert "|U| = 322560 elements may take 13547520 entries" in err
        assert f"over the cap of {MAX_COVER_ENTRIES}" in err
        return
    # |U| = 7! * 2^6 = 322560, and 322560^2 / 8 bytes of bitsets
    assert "|U| = 322560 elements needs 13005619200 bytes" in err
    assert f"over the cap of {MAX_ORDER_BYTES}" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["order", "hasse", "--config", str(CUSTOM_O3)],
        ["morse", "--theta", "1", "--config", str(CUSTOM_O3)],
        ["control", "--us-gens", "s1", "--config", str(CUSTOM_O3)],
        ["order", "hasse", "--preset", "sl5"],
        ["morse", "--theta", "1", "--preset", "sl5"],
        ["control", "--us-gens", "s1", "--preset", "sl5"],
    ],
)
def test_order_commands_refuse_config_from_weyl_size(capsys, monkeypatch, argv):
    import wtits.utits as utits
    from wtits import xorder

    if "--config" in argv:
        preset, size, positive_roots = load_config(CUSTOM_O3), 8, 1  # |U| = 2 * 4
    else:
        monkeypatch.setattr(utits, "_PRESETS", {})  # an sl5 whose tables no other test built
        preset, size, positive_roots = load_preset("sl5"), 1920, 10  # |U| = 120 * 16
    refuse_closing_u(monkeypatch, preset)
    monkeypatch.setattr(xorder, "MAX_ORDER_BYTES", -1)  # the Hasse diagram builds no bitset
    if argv[:2] == ["order", "hasse"]:
        entries = size * 2 * positive_roots
        cap, name = entries - 1, "MAX_COVER_ENTRIES"
        message = f"|U| = {size} elements may take {entries} entries (2*|Phi+| = {2 * positive_roots}"
    else:
        cap, name = size * size // 8 - 1, "MAX_ORDER_BYTES"
        message = f"|U| = {size} elements needs {size * size // 8} bytes of down-set bitsets"
    # refused one below the predicted size, let through at it
    monkeypatch.setattr(xorder, name, cap)
    code, out, err = run(capsys, argv)
    assert code == 2 and out == ""
    assert message in err
    assert f"over the cap of {cap}" in err
    monkeypatch.setattr(xorder, name, cap + 1)
    with pytest.raises(AssertionError, match="U must not be closed"):
        run(capsys, argv)


def test_unknown_preset_exit_code(capsys):
    code, _, err = run(capsys, ["group", "--preset", "g2"])
    assert code == 2 and "error" in err


def test_config_loading(tmp_path, capsys):
    cfg = {
        "name": "custom-sl2",
        "n": 2,
        "generators": [[[0, -1], [1, 0]]],
        "simple_roots": [[1, -1]],
        "a_basis": [[[1, 0], [0, 0]], [[0, 0], [0, 1]]],
        "multiplicities": [1],
    }
    path = tmp_path / "sl2.json"
    path.write_text(json.dumps(cfg))
    code, out, _ = run(capsys, ["group", "--config", str(path)])
    assert code == 0 and "|U|=4 |W|=2 |C|=2" in out


def test_config_of_infinite_reflection_group_refused(tmp_path, capsys):
    # simple roots at an angle of arccos(1/sqrt(5)) generate an infinite group;
    # the orbit of the simple roots is cut at the 36 roots of any finite rank-2 one
    cfg = {
        "n": 2,
        "generators": [[[0, -1], [1, 0]], [[0, -1], [1, 0]]],
        "simple_roots": [[1, 0], [1, 2]],
        "a_basis": [[[1, 0], [0, 0]], [[0, 0], [0, 1]]],
    }
    path = tmp_path / "infinite.json"
    path.write_text(json.dumps(cfg))
    code, out, err = run(capsys, ["group", "--config", str(path)])
    assert code == 2 and out == ""
    assert err.startswith("error: invalid root data: closure exceeded 36 elements")


@pytest.mark.parametrize(
    "a_basis,message",
    [
        ([[[1, 0, 0], [0, 0, 0], [0, 0, 0]]] * 2, "a_basis matrix 1 is 3x3, not n x n = 2x2"),
        ([[[1, 0], [0, 0]]] * 3, "a_basis has 3 matrices, but the simple roots have 2 coordinates"),
    ],
)
def test_config_with_misshapen_cartan_basis_refused(tmp_path, capsys, a_basis, message):
    # a wrong shape or count of Cartan basis matrices is a usage error, not a crash
    cfg = {
        "n": 2,
        "generators": [[[0, -1], [1, 0]]],
        "simple_roots": [[1, -1]],
        "a_basis": a_basis,
    }
    path = tmp_path / "basis.json"
    path.write_text(json.dumps(cfg))
    code, out, err = run(capsys, ["group", "--config", str(path)])
    assert code == 2 and out == ""
    assert err == f"error: {message}\n"


@pytest.mark.parametrize("value", ["7", "abc"])
def test_seed_environment_variable_is_ignored(capsys, monkeypatch, value):
    from wtits.cli import build_parser

    code, before, _ = run(capsys, ["group", "--preset", "sl3"])
    monkeypatch.setenv("WTITS_SEED", value)
    assert run(capsys, ["group", "--preset", "sl3"]) == (code, before, "")
    assert code == 0
    for argv in (
        ["oracle", "schubert", "--preset", "sl3", "--samples", "10"],
        ["oracle", "flow", "--preset", "sl3", "--H", "2,-1,-1"],
    ):
        assert build_parser().parse_args(argv).seed == 42


def test_oracle_schubert_refuses_sl7_before_closing_u(capsys, monkeypatch):
    from wtits.xorder import MAX_ORDER_BYTES

    # the report's verdicts read the whole order: refused by its down-set cap
    refuse_closing_u(monkeypatch, load_preset("sl7"))
    code, out, err = run(capsys, ["oracle", "schubert", "--preset", "sl(7)"])
    assert code == 2 and out == ""
    assert "|U| = 322560 elements needs 13005619200 bytes" in err
    assert f"over the cap of {MAX_ORDER_BYTES}" in err


def test_oracle_flow_refuses_sl7_before_closing_u(capsys, monkeypatch):
    from wtits.oracle import MAX_STACK_FLOATS

    # a regular H: Theta = {}, so U_H = {1} and every element is its own
    # class; the distance table is sized from |U| and |U_H| alone
    refuse_closing_u(monkeypatch, load_preset("sl7"))
    argv = ["oracle", "flow", "--preset", "sl7", "--H", "6,5,4,3,2,1,-21", "--steps", "1"]
    code, out, err = run(capsys, argv)
    assert code == 2 and out == ""
    assert "a distance table of 322608 starts by 322560 classes needs 104060436480 floats" in err
    assert f"over the cap of {MAX_STACK_FLOATS}" in err


def test_order_command_sizes_the_group_once(capsys, monkeypatch):
    import wtits.utits as utits
    from wtits.exact import mat_mul

    # the order caps read the predicted size: C is closed on matrices once,
    # then U once
    preset = load_config(CUSTOM_O3)
    closed = []
    closure = utits._closure

    def counted(identity, generators, bound):
        closed.append(list(generators))
        return closure(identity, generators, bound)

    monkeypatch.setattr(utits, "_closure", counted)
    code, _, _ = run(capsys, ["order", "hasse", "--config", str(CUSTOM_O3)])
    assert code == 0
    assert closed == [
        [mat_mul(s, s) for s in preset.generators] + list(preset.c_generators),
        list(preset.generators + preset.c_generators),
    ]


@pytest.mark.parametrize("spellings",[("sl3", "sl(3)", " SL3 "), ("sl4", "sl(4)", "SL4")])
def test_preset_spellings_name_one_group(capsys, spellings):
    # every spelling is one cached preset, named by its canonical key
    presets = [load_preset(name) for name in spellings]
    assert all(preset is presets[0] for preset in presets)
    outputs = {run(capsys, ["group", "--preset", name, "--json"]) for name in spellings}
    assert len(outputs) == 1
    code, out, _ = outputs.pop()
    assert code == 0 and json.loads(out)["preset"] == spellings[0]


@pytest.mark.parametrize(
    "content,message",
    [
        (None, "cannot read group config {}: No such file or directory"),
        ('{"n": 3,', "group config {} is not valid JSON: Expecting"),
    ],
    ids=["missing", "malformed"],
)
def test_config_load_errors_name_the_path(tmp_path, capsys, content, message):
    path = tmp_path / "group.json"
    if content is not None:
        path.write_text(content)
    code, out, err = run(capsys, ["group", "--config", str(path)])
    assert code == 2 and out == ""
    assert err.startswith("error: " + message.format(path))


def test_output_file(tmp_path, capsys):
    out_path = tmp_path / "hasse.dot"
    code, _, _ = run(
        capsys,
        ["order", "hasse", "--preset", "sl2", "--format", "dot", "--output", str(out_path)],
    )
    assert code == 0
    text = out_path.read_text()
    assert text.startswith("digraph") and text.count("->") == 4
