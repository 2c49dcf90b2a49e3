"""Import boundary: numpy and `wtits.oracle` load only for oracle work,
and no command loads `dataclasses`.

The exact commands run in a fresh interpreter, because the test process
itself has imported numpy long before."""

import ast
import os
import re
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


STARTUP_CHILD = """
import contextlib, io, sys
import wtits.cli

def run(argv):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = wtits.cli.main(argv)
    assert code == 0, (argv, code)

run(["group", "--preset", "sl3"])
run(["order", "hasse", "--preset", "sl3"])
run(["morse", "--preset", "sl3", "--theta", "1"])
run(["control", "--preset", "sl3", "--us-gens", "s1"])
loaded = [m for m in ("dataclasses", "inspect", "numpy", "wtits.oracle") if m in sys.modules]
assert not loaded, f"the exact commands imported {loaded}"
run(["oracle", "schubert", "--preset", "sl3", "--samples", "0"])
assert "dataclasses" not in sys.modules, "the oracle imported dataclasses"
print("ok")
"""


def test_no_command_imports_dataclasses():
    # the exact commands also leave out inspect, which numpy brings in for the oracle
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-c", STARTUP_CHILD],
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


def test_readme_entry_points_run():
    # the python block under README's "Library entry points" runs as
    # written, and imports only names the package exports
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Library entry points\n", 1)[1].split("\n## ", 1)[0]
    block = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    imported = {
        alias.name
        for node in ast.walk(ast.parse(block))
        if isinstance(node, ast.ImportFrom) and node.module == "wtits"
        for alias in node.names
    }
    assert imported and imported <= set(wtits.__all__), imported - set(wtits.__all__)
    namespace: dict = {}
    exec(block, namespace)
    poset = namespace["poset"]
    assert (len(poset), len(poset.covers)) == (24, 64)
    assert len(namespace["below"]) == 3
    assert len(namespace["morse"].cosets) == 6
