"""The benchmark's workloads: the operations of one round, built from the
seed, each with the check of its output against the golden files.

Workloads (why each was chosen is in BENCHMARK.json):

* order-sl4: one process builds sl4 (|U| = 192), writes the Hasse JSON,
  the Morse quotients for Theta = {} and {1} and the control quotient for
  U(S) = <s1>.  Time goes to exact arithmetic and down-sets.
* oracle-sl3: `oracle schubert` and `oracle flow` on sl3 with the seed as
  `--seed`.  Time goes to numpy; the order layers do little.
* cli-small: 21 short commands on sl3, so24 and a `--config` group.  Time
  goes to interpreter start, imports and preset validation.
* setup-sl5: `group --preset sl5 --json` (|U| = 1920).  Time goes to the
  closure and the Weyl group.

The seed picks cli-small's `order leq` pairs and `control --pair` classes
and is the oracle seed; the program receives only the generated arguments.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

GOLDEN = Path(__file__).resolve().parent / "golden"
CUSTOM_CONFIG = "benchmarks/custom_o3.json"  # relative to the checkout root
CLI_GROUPS = {
    "sl3": ("preset:sl3", ("--preset", "sl3")),
    "so24": ("preset:so24", ("--preset", "so24")),
    "custom": (f"config:{CUSTOM_CONFIG}", ("--config", CUSTOM_CONFIG)),
}
ORDER_FILES = ("hasse.json", "morse_theta.json", "morse_theta1.json", "control_s1.json")
SCHUBERT_ARGS = ("--samples", "100000")
FLOW_ARGS = ("--H", "2,-1,-1", "--nilpotent", "e23", "--steps", "2000")
FLOW_FIELDS = (
    "preset",
    "theta",
    "recurrent_points",
    "components",
    "recurrent_per_component",
    "attractor_components",
    "summary",
)


@dataclass(frozen=True)
class Op:
    """One operation: a fresh `child.py` process.

    `check(stdout, out_dir)` returns None when the output is right, else the
    reason it is wrong.  `health(stdout)` reads margins from the output for
    the traced run.
    """

    name: str
    group: str
    task: str  # "cli" or "order"
    argv: tuple[str, ...]
    budget_s: float
    check: Callable[[bytes, Path], str | None]
    health: Callable[[bytes], dict] | None = None


def same_bytes(expected: bytes) -> Callable[[bytes, Path], str | None]:
    def check(stdout: bytes, out_dir: Path) -> str | None:
        if stdout == expected:
            return None
        return f"output differs from golden ({len(stdout)} vs {len(expected)} bytes)"

    return check


def same_files(golden_dir: Path, names) -> Callable[[bytes, Path], str | None]:
    expected = {name: (golden_dir / name).read_bytes() for name in names}

    def check(stdout: bytes, out_dir: Path) -> str | None:
        for name, want in expected.items():
            path = out_dir / name
            if not path.is_file():
                return f"{name} missing"
            if path.read_bytes() != want:
                return f"{name} differs from golden"
        return None

    return check


def flow_report(stdout: bytes) -> dict:
    """`oracle flow --json` prints a summary line, then the JSON report."""
    summary, _, body = stdout.partition(b"\n")
    return dict(json.loads(body), summary=summary.decode())


def schubert_verdicts(report: dict) -> dict:
    """Every verdict field of a Schubert agreement report; the distances
    depend on the seed and are left out."""
    return {
        "preset": report["preset"],
        "count": report["count"],
        "tol": report["tol"],
        "reject_margin": report["reject_margin"],
        "agree": report["agree"],
        "margin_ok": report["margin_ok"],
        "pairs": [[p["hi"], p["lo"], p["combinatorial"], p["numerical"]] for p in report["pairs"]],
    }


def flow_verdicts(report: dict) -> dict:
    """The flow report without its seed-dependent parts (seed and the list
    of non-convergent starts, which is a health margin)."""
    return {k: report[k] for k in FLOW_FIELDS}


def same_verdicts(golden: Path, parse, verdicts, seed: int) -> Callable[[bytes, Path], str | None]:
    expected = json.loads(golden.read_text())

    def check(stdout: bytes, out_dir: Path) -> str | None:
        try:
            report = parse(stdout)
        except ValueError:
            return "output is not a JSON report"
        if report.get("seed") != seed:
            return f"report seed {report.get('seed')} != {seed}"
        if verdicts(report) != expected:
            return "verdicts differ from golden"
        return None

    return check


HEALTH_DEFAULTS = {
    "oracle.pairs": 0,
    "oracle.pairs_agreed": 0,
    "oracle.min_neg_distance": 0.0,
    "oracle.reject_margin": 0.0,
    "oracle.non_convergent": 0,
}  # the values of workloads that run no oracle


def schubert_health(stdout: bytes) -> dict:
    report = json.loads(stdout)
    pairs = report["pairs"]
    negatives = [p["min_distance"] for p in pairs if not p["combinatorial"]]
    return {
        "oracle.pairs": len(pairs),
        "oracle.pairs_agreed": sum(p["combinatorial"] == p["numerical"] for p in pairs),
        "oracle.min_neg_distance": min(negatives, default=0.0),
        "oracle.reject_margin": report["reject_margin"],
    }


def flow_health(stdout: bytes) -> dict:
    return {"oracle.non_convergent": len(flow_report(stdout)["non_convergent"])}


def hasse_below(hasse_path: Path) -> tuple[list[str], dict[str, set[str]]]:
    """Element words and, for each, the words at or below it: reachability
    along the golden Hasse covers."""
    data = json.loads(hasse_path.read_text())
    words = [e["word"] for e in data["elements"]]
    children: dict[int, list[int]] = {e["id"]: [] for e in data["elements"]}
    for hi, lo in data["covers"]:
        children[hi].append(lo)
    below: dict[int, set[int]] = {}

    def visit(i: int) -> set[int]:
        if i not in below:
            below[i] = {i}.union(*(visit(j) for j in children[i]))
        return below[i]

    return words, {words[i]: {words[j] for j in visit(i)} for i in children}


def order_sl4(seed: int) -> list[Op]:
    return [Op("sl4/order", "preset:sl4", "order", (), 150.0, same_files(GOLDEN / "sl4", ORDER_FILES))]


def oracle_sl3(seed: int) -> list[Op]:
    common = ("--preset", "sl3", "--seed", str(seed), "--json")
    return [
        Op(
            "sl3/oracle-schubert",
            "preset:sl3",
            "cli",
            ("oracle", "schubert", *common, *SCHUBERT_ARGS),
            60.0,
            same_verdicts(
                GOLDEN / "sl3" / "oracle_schubert.json", json.loads, schubert_verdicts, seed
            ),
            schubert_health,
        ),
        Op(
            "sl3/oracle-flow",
            "preset:sl3",
            "cli",
            ("oracle", "flow", *common, *FLOW_ARGS),
            60.0,
            same_verdicts(GOLDEN / "sl3" / "oracle_flow.json", flow_report, flow_verdicts, seed),
            flow_health,
        ),
    ]


def cli_small(seed: int) -> list[Op]:
    rng = random.Random(seed)
    ops = []
    for group, (spec, flags) in CLI_GROUPS.items():
        golden = GOLDEN / group
        as_json = () if group == "sl3" else ("--json",)
        fixed = [
            ("group", ("group", *flags, *as_json), "group.json" if as_json else "group.txt"),
            ("hasse-json", ("order", "hasse", *flags, "--format", "json"), "hasse.json"),
            ("hasse-dot", ("order", "hasse", *flags, "--format", "dot"), "hasse.dot"),
            ("morse", ("morse", *flags, "--theta", "1", "--format", "json"), "morse_theta1.json"),
        ]
        for name, argv, golden_file in fixed:
            expected = (golden / golden_file).read_bytes()
            ops.append(Op(f"{group}/{name}", spec, "cli", argv, 20.0, same_bytes(expected)))
        tails = json.loads((golden / "control_pairs.json").read_text())
        key = rng.choice(sorted(tails))
        lhs, rhs = key.split("|")
        expected = (golden / "control_s1.txt").read_bytes() + tails[key].encode()
        ops.append(
            Op(
                f"{group}/control-pair",
                spec,
                "cli",
                ("control", *flags, "--us-gens", "s1", "--pair", lhs, rhs),
                20.0,
                same_bytes(expected),
            )
        )
        words, below = hasse_below(golden / "hasse.json")
        for k in range(2):
            lo, hi = rng.choice(words), rng.choice(words)
            answer = b"true\n" if lo in below[hi] else b"false\n"
            ops.append(
                Op(
                    f"{group}/leq{k}",
                    spec,
                    "cli",
                    ("order", "leq", *flags, "--lhs", lo, "--rhs", hi),
                    20.0,
                    same_bytes(answer),
                )
            )
    return ops


def setup_sl5(seed: int) -> list[Op]:
    argv = ("group", "--preset", "sl5", "--json")
    expected = (GOLDEN / "sl5" / "group.json").read_bytes()
    return [Op("sl5/group", "preset:sl5", "cli", argv, 60.0, same_bytes(expected))]


WORKLOADS = {
    "order-sl4": order_sl4,
    "oracle-sl3": oracle_sl3,
    "cli-small": cli_small,
    "setup-sl5": setup_sl5,
}
