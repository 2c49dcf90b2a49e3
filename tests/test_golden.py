"""Byte-identity of the order outputs against the benchmark's golden files,
the `oracle flow --json` verdicts against the golden flow report, and the
compiled tables against the exact Fraction route, on every element of sl3,
so24, sl4 and the custom group with an extra C generator."""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

import weyl_reference as ref
from wtits import (
    control_quotient_order,
    enumerate_U,
    load_config,
    load_preset,
    morse_quotient_order,
    subgroup_closure,
    subgroup_U_H,
)
from wtits.cli import hasse_dot, hasse_json, main, quotient_json
from wtits.rootsys import length
from wtits.utits import canonical_form, compile_group, project_by_conjugation, project_to_W

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "benchmarks" / "golden"
GROUPS = {
    "sl3": lambda: load_preset("sl3"),
    "so24": lambda: load_preset("so24"),
    "sl4": lambda: load_preset("sl4"),
    "custom": lambda: load_config(str(ROOT / "benchmarks" / "custom_o3.json")),
}


def as_file(payload) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


@pytest.mark.parametrize("group", sorted(GROUPS))
def test_outputs_match_golden(group):
    preset = GROUPS[group]()
    table = enumerate_U(preset)
    golden = GOLDEN / group

    def expect(name, text):
        assert text == (golden / name).read_text(encoding="utf-8"), name

    expect("hasse.json", as_file(hasse_json(table)))
    expect("hasse.dot", hasse_dot(table, name=f"extended_bruhat_{preset.name}"))
    expect("morse_theta.json", as_file(quotient_json(morse_quotient_order(table, subgroup_U_H(preset, ())))))
    expect("morse_theta1.json", as_file(quotient_json(morse_quotient_order(table, subgroup_U_H(preset, (1,))))))
    u_s = subgroup_closure(preset, [preset.generator(1)])
    expect("control_s1.json", as_file(quotient_json(control_quotient_order(table, u_s))))


CLI_FLAGS = {
    "custom": ["--config", str(ROOT / "benchmarks" / "custom_o3.json")],
    "sl3": ["--preset", "sl3"],
    "so24": ["--preset", "so24"],
}


@pytest.mark.parametrize("group", sorted(CLI_FLAGS))
def test_control_text_matches_golden(group, capsys):
    """`control --us-gens s1 --pair` text, forward edges and verdict, for
    every pair the golden files list."""
    flags = CLI_FLAGS[group]
    golden = GOLDEN / group
    head = (golden / "control_s1.txt").read_text(encoding="utf-8")
    tails = json.loads((golden / "control_pairs.json").read_text(encoding="utf-8"))
    for key, tail in tails.items():
        lhs, rhs = key.split("|")
        assert main(["control", *flags, "--us-gens", "s1", "--pair", lhs, rhs]) == 0
        assert capsys.readouterr().out == head + tail, key


@pytest.mark.parametrize("group", sorted(GROUPS))
def test_tables_match_fraction_route(group):
    preset = GROUPS[group]()
    tables = compile_group(preset)
    for k, u in enumerate(enumerate_U(preset)):
        exact = project_by_conjugation(u)
        assert project_to_W(u).matrix == exact.matrix
        assert tables.length(k) == length(exact)
        assert canonical_form(u)[0] == tuple(ref.reduced_word(exact))


def _benchmark_workloads(monkeypatch):
    """The benchmark's `workloads` module, loaded from its file, for the
    field list its flow check reads."""
    path = ROOT / "benchmarks" / "workloads.py"
    spec = importlib.util.spec_from_file_location("benchmark_workloads", path)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # its dataclasses look it up
    spec.loader.exec_module(module)
    return module


def test_oracle_flow_json_matches_golden(capsys, monkeypatch):
    workloads = _benchmark_workloads(monkeypatch)
    argv = ["oracle", "flow", "--preset", "sl3", "--seed", "42", "--json", *workloads.FLOW_ARGS]
    assert main(argv) == 0
    report = workloads.flow_report(capsys.readouterr().out.encode())
    assert report["seed"] == 42
    expected = json.loads((GOLDEN / "sl3" / "oracle_flow.json").read_text(encoding="utf-8"))
    assert workloads.flow_verdicts(report) == expected
