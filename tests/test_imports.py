"""Import boundary: numpy and `wtits.oracle` load only for oracle work.

The exact commands run in a fresh interpreter, because the test process
itself has imported numpy long before."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import wtits

ROOT = Path(__file__).resolve().parent.parent
CUSTOM_O3 = ROOT / "benchmarks" / "custom_o3.json"

CHILD = """
import contextlib, io, sys
import wtits, wtits.cli

def run(argv):
    with contextlib.redirect_stdout(io.StringIO()):
        code = wtits.cli.main(argv)
    assert code == 0, (argv, code)

for source in (["--preset", "sl3"], ["--config", sys.argv[1]]):
    run(["group", *source])
    run(["group", *source, "--json"])
    run(["order", "hasse", *source, "--format", "json"])
    run(["order", "leq", *source, "--lhs", "s1^2", "--rhs", "s1"])
    run(["morse", *source, "--theta", "1", "--format", "json"])
    run(["control", *source, "--us-gens", "s1"])
assert "numpy" not in sys.modules, "an exact command imported numpy"
assert "wtits.oracle" not in sys.modules, "an exact command imported wtits.oracle"
run(["oracle", "flow", "--preset", "sl3", "--H", "2,-1,-1", "--steps", "5", "--grid", "2"])
assert "numpy" in sys.modules and "wtits.oracle" in sys.modules
print("ok")
"""


def test_exact_commands_never_import_numpy():
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-c", CHILD, str(CUSTOM_O3)],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "ok"


def test_lazy_names_resolve():
    for name in wtits.__all__:
        assert getattr(wtits, name) is not None
        assert name in dir(wtits)
    for name in wtits._ORACLE_NAMES:
        assert getattr(wtits, name) is getattr(wtits.oracle, name)
    namespace: dict = {}
    exec("from wtits import *", namespace)
    assert set(wtits.__all__) <= set(namespace)
    with pytest.raises(AttributeError, match="no_such_name"):
        wtits.no_such_name
