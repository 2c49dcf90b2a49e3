"""Self-tests of the benchmark harness: python3 -m pytest benchmarks/tests"""

import dataclasses
import importlib
import json
import sys
import time

import pytest

import run
import workloads
from tracer import WTITS_MODULES, Tracer, install_layers

GOLDEN = workloads.GOLDEN


def corrupt(data: bytes) -> bytes:
    k = len(data) // 2
    return data[:k] + bytes([data[k] ^ 1]) + data[k + 1 :]


def test_checker_flags_corrupted_bytes():
    golden = (GOLDEN / "sl3" / "hasse.json").read_bytes()
    check = workloads.same_bytes(golden)
    assert check(golden, None) is None
    assert "differs" in check(corrupt(golden), None)


def test_checker_flags_corrupted_file(tmp_path):
    check = workloads.same_files(GOLDEN / "sl4", workloads.ORDER_FILES)
    for name in workloads.ORDER_FILES:
        (tmp_path / name).write_bytes((GOLDEN / "sl4" / name).read_bytes())
    assert check(b"", tmp_path) is None
    path = tmp_path / "morse_theta1.json"
    path.write_bytes(corrupt(path.read_bytes()))
    assert check(b"", tmp_path) == "morse_theta1.json differs from golden"
    path.unlink()
    assert check(b"", tmp_path) == "morse_theta1.json missing"


def test_checker_flags_wrong_oracle_verdict():
    golden = json.loads((GOLDEN / "sl3" / "oracle_schubert.json").read_text())
    report = dict(golden, seed=7)
    report["pairs"] = [
        {"hi": hi, "lo": lo, "combinatorial": comb, "numerical": num, "min_distance": 0.0}
        for hi, lo, comb, num in golden["pairs"]
    ]
    check = workloads.same_verdicts(
        GOLDEN / "sl3" / "oracle_schubert.json",
        json.loads,
        workloads.schubert_verdicts,
        seed=7,
    )
    assert check(json.dumps(report).encode(), None) is None
    report["pairs"][5]["numerical"] = not report["pairs"][5]["numerical"]
    assert check(json.dumps(report).encode(), None) == "verdicts differ from golden"
    assert "seed" in check(json.dumps(dict(report, seed=8)).encode(), None)


def test_budget_kills_a_sleeping_child(tmp_path):
    start = time.perf_counter()
    ex = run.spawn(
        [sys.executable, "-c", "import time; time.sleep(60)"],
        tmp_path / "out",
        tmp_path / "err",
        budget_s=0.5,
    )
    assert ex.over_budget
    assert ex.code == -9
    assert 0.5 <= ex.t_exit - ex.t_spawn < 5
    assert time.perf_counter() - start < 10


def test_over_budget_operation_counts_as_failed(tmp_path):
    harness = run.Harness(tmp_path, deadline=time.perf_counter() + 60)
    op = workloads.setup_sl5(0)[0]
    result = harness.run_op(dataclasses.replace(op, budget_s=0.05), trace=False)
    assert result.reason == "over budget"
    assert result.setup_s is None


def snapshot():
    from wtits.rootsys import WeylElement
    from wtits.utits import UElement

    modules = [importlib.import_module(name) for name in WTITS_MODULES]
    names = {}
    for mod in modules:
        names.update({(mod.__name__, k): v for k, v in vars(mod).items()})
    for cls in (UElement, WeylElement):
        names.update({(cls.__name__, k): v for k, v in vars(cls).items()})
    return names


def test_tracer_wrappers_restore_the_originals():
    import wtits

    before = snapshot()
    tracer = Tracer("t")
    install_layers(tracer)
    try:
        assert wtits.xorder.down_set is not before[("wtits.xorder", "down_set")]
        assert wtits.down_set is wtits.xorder.down_set
        table = wtits.enumerate_U(wtits.load_preset("sl2"))
        wtits.hasse(table)
    finally:
        tracer.restore()
    assert snapshot() == before
    report = tracer.report()
    assert report["counts"]["utits.mul_calls"] > 0
    assert report["counts"]["xorder.cover_edges"] == 4
    assert report["calls"]["xorder.hasse"]["calls"] == 1


def test_self_time_subtracts_child_spans():
    ticks = iter([0.0, 1.0, 3.0, 10.0])
    tracer = Tracer("op", clock=lambda: next(ticks))
    with tracer.span("outer"):
        with tracer.span("inner"):
            pass
    inner, outer = tracer.spans[1], tracer.spans[0]
    assert (inner["parent"], inner["self_s"]) == (0, 2.0)
    assert (outer["parent"], outer["self_s"]) == (None, 8.0)
    assert {s["id"] for s in tracer.spans} == {"op"}


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_ops_depend_only_on_the_seed(name):
    make = workloads.WORKLOADS[name]
    assert [op.argv for op in make(11)] == [op.argv for op in make(11)]


def test_seed_reaches_the_generated_arguments():
    assert [op.argv for op in workloads.cli_small(1)] != [op.argv for op in workloads.cli_small(2)]
    for op in workloads.oracle_sl3(123):
        assert op.argv[op.argv.index("--seed") + 1] == "123"
