"""Write the golden outputs the benchmark checks against.

    PYTHONPATH=src python3 benchmarks/capture_golden.py

Run from the repository root.  The files under benchmarks/golden/ are the
byte-identity reference for later changes, so they are captured once, from
a commit whose outputs are trusted, and not regenerated to make a check
pass.  Per group directory:

* hasse.json, hasse.dot, morse_theta.json, morse_theta1.json,
  control_s1.json: the order pipeline's files and the CLI's DOT (sl3, so24,
  sl4 and the custom group);
* group.txt / group.json, control_s1.txt and control_pairs.json (the lines
  `control --pair` appends, for every ordered pair of class labels): the
  cli-small groups;
* sl5/group.json, and sl3/oracle_schubert.json and sl3/oracle_flow.json
  (verdict fields only, at seed 42).
"""

from __future__ import annotations

import io
import json
import os
import tempfile
from contextlib import redirect_stdout
from pathlib import Path

from child import order_pipeline
from workloads import (
    CLI_GROUPS,
    FLOW_ARGS,
    GOLDEN,
    ORDER_FILES,
    SCHUBERT_ARGS,
    flow_report,
    flow_verdicts,
    schubert_verdicts,
)


def cli_stdout(argv) -> str:
    from wtits import cli

    buf = io.StringIO()
    with redirect_stdout(buf):
        rc = cli.main(list(argv))
    if rc != 0:
        raise SystemExit(f"wtits {' '.join(argv)} exited with {rc}")
    return buf.getvalue()


def write(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text, encoding="utf-8")


def capture_order(group: str, preset, flags) -> None:
    out = GOLDEN / group
    out.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        order_pipeline(preset, tmp)
        for name in ORDER_FILES:
            write(out / name, Path(tmp, name).read_text(encoding="utf-8"))
    write(out / "hasse.dot", cli_stdout(["order", "hasse", *flags, "--format", "dot"]))


def capture_cli_group(group: str, flags) -> None:
    out = GOLDEN / group
    write(out / "group.txt", cli_stdout(["group", *flags]))
    write(out / "group.json", cli_stdout(["group", *flags, "--json"]))
    header = cli_stdout(["control", *flags, "--us-gens", "s1"])
    write(out / "control_s1.txt", header)
    labels = [c["label"] for c in json.loads((out / "control_s1.json").read_text())["cosets"]]
    tails = {}
    for a in labels:
        for b in labels:
            text = cli_stdout(["control", *flags, "--us-gens", "s1", "--pair", a, b])
            if not text.startswith(header):
                raise SystemExit(f"control --pair {a!r} {b!r} does not extend the plain output")
            tails[f"{a}|{b}"] = text[len(header):]
    write(out / "control_pairs.json", json.dumps(tails, indent=2, sort_keys=True) + "\n")


def main() -> None:
    from wtits import load_config, load_preset

    for group, (spec, flags) in CLI_GROUPS.items():
        kind, _, name = spec.partition(":")
        preset = load_config(name) if kind == "config" else load_preset(name)
        capture_order(group, preset, flags)
        capture_cli_group(group, flags)
    capture_order("sl4", load_preset("sl4"), ("--preset", "sl4"))
    write(GOLDEN / "sl5" / "group.json", cli_stdout(["group", "--preset", "sl5", "--json"]))
    common = ["--preset", "sl3", "--seed", "42", "--json"]
    schubert = json.loads(cli_stdout(["oracle", "schubert", *common, *SCHUBERT_ARGS]))
    write(
        GOLDEN / "sl3" / "oracle_schubert.json",
        json.dumps(schubert_verdicts(schubert), sort_keys=True) + "\n",
    )
    flow = flow_report(cli_stdout(["oracle", "flow", *common, *FLOW_ARGS]).encode())
    write(
        GOLDEN / "sl3" / "oracle_flow.json",
        json.dumps(flow_verdicts(flow), indent=2, sort_keys=True) + "\n",
    )


if __name__ == "__main__":
    os.chdir(Path(__file__).resolve().parent.parent)
    main()
