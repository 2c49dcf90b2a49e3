"""Benchmark harness for wtits.

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from `src/`.
Every operation runs in a fresh interpreter (`child.py`), one at a time,
because the library caches groups, Weyl data and down-sets per process and
repeating an operation inside one process would time cache hits.  Each
operation has a wall-clock budget; a child that overruns it is killed and
the operation counts as failed ("over budget").  Every output is checked
against benchmarks/golden/, and a wrong output also counts as failed.

With --trace 0 the workload's round of operations is repeated while another
round fits in S seconds (at least one round), and the end-to-end metrics
are medians over rounds (latency percentiles over all operations).  With
--trace 1 one untraced round is followed by one traced round whose children
wrap every layer's public functions (tracer.py); the per-layer metrics come
from the traced round and `trace.overhead_s` is the difference of the two
rounds' wall times.

The last line of standard output is the result:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}},
with the metrics and units BENCHMARK.json lists for the mode.  The line
before it records the seed, the environment and every operation.  A traced
run also keeps its children's spans in benchmarks/_work/trace-*.json.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import select
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from importlib import metadata
from pathlib import Path

from workloads import HEALTH_DEFAULTS, WORKLOADS, Op

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = BENCH / "_work"
RUN_DEADLINE_S = 170.0  # one invocation must end within 180 s


@dataclass
class Exit:
    t_spawn: float
    t_exit: float
    code: int
    maxrss_kb: int
    over_budget: bool


def spawn(argv: list[str], stdout_path: Path, stderr_path: Path, budget_s: float, env=None) -> Exit:
    """Run argv in a fresh process from the checkout root, standard output
    and error to files.  Kill it once it has run `budget_s` seconds.  The
    child is always reaped before this returns."""
    with open(stdout_path, "wb") as out, open(stderr_path, "wb") as err:
        t_spawn = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdin=subprocess.DEVNULL, stdout=out, stderr=err)
        reaped = False
        try:
            pidfd = os.pidfd_open(proc.pid)
            try:
                exited, _, _ = select.select([pidfd], [], [], max(budget_s, 0.0))
            finally:
                os.close(pidfd)
            t_exit = time.perf_counter()
            if not exited:
                proc.kill()
            _, status, usage = os.wait4(proc.pid, 0)
            reaped = True
            proc.returncode = os.waitstatus_to_exitcode(status)
        finally:
            if not reaped:
                proc.kill()
                proc.wait()
    return Exit(t_spawn, t_exit, proc.returncode, usage.ru_maxrss, not exited)


@dataclass
class OpResult:
    name: str
    reason: str | None  # None when the operation succeeded
    latency_s: float
    setup_s: float | None
    solve_s: float | None
    maxrss_kb: int
    t_spawn: float
    t_exit: float
    record: dict | None
    health: dict


class Harness:
    def __init__(self, workdir: Path, deadline: float):
        self.workdir = workdir
        self.deadline = deadline
        self.count = 0
        self.env = {k: v for k, v in os.environ.items() if k != "WTITS_SEED"}
        self.env["PYTHONPATH"] = str(ROOT / "src")

    def run_op(self, op: Op, trace: bool) -> OpResult:
        self.count += 1
        opdir = self.workdir / f"{self.count:04d}"
        opdir.mkdir(parents=True)
        timing = opdir / "timing.json"
        task_args = op.argv if op.task == "cli" else (str(opdir),)
        argv = [sys.executable, str(BENCH / "child.py"), str(timing), str(int(trace)), op.group, op.task, *task_args]
        budget = min(op.budget_s, self.deadline - time.perf_counter())
        ex = spawn(argv, opdir / "stdout", opdir / "stderr", budget, self.env)
        stdout = (opdir / "stdout").read_bytes()
        record, health = None, {}
        if ex.over_budget:
            reason = "over budget"
        elif ex.code != 0:
            tail = (opdir / "stderr").read_text(errors="replace").strip().splitlines()[-1:]
            reason = f"exit code {ex.code}: {' '.join(tail)}"
        else:
            reason = op.check(stdout, opdir)
        t_checked = time.perf_counter()
        if timing.is_file():
            record = json.loads(timing.read_text())
        ok = reason is None
        if ok and op.health:
            health = op.health(stdout)
        return OpResult(
            name=op.name,
            reason=reason,
            latency_s=ex.t_exit - ex.t_spawn,
            setup_s=record["ready"] - ex.t_spawn if ok else None,
            solve_s=t_checked - record["ready"] if ok else None,
            maxrss_kb=ex.maxrss_kb,
            t_spawn=ex.t_spawn,
            t_exit=ex.t_exit,
            record=record,
            health=health,
        )

    def run_round(self, ops: list[Op], trace: bool) -> list[OpResult]:
        return [self.run_op(op, trace) for op in ops]


def round_wall(results: list[OpResult]) -> float:
    return results[-1].t_exit - results[0].t_spawn


def percentile(values: list[float], p: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[p - 1]


def end_to_end(rounds: list[list[OpResult]]) -> dict[str, float]:
    ok = [[r for r in rnd if r.reason is None] for rnd in rounds]
    latencies = [r.latency_s * 1000 for rnd in rounds for r in rnd]
    return {
        "wall_s": statistics.median(round_wall(rnd) for rnd in rounds),
        "setup_s": statistics.median(sum(r.setup_s for r in rnd) for rnd in ok),
        "solve_s": statistics.median(sum(r.solve_s for r in rnd) for rnd in ok),
        "op_p50_ms": percentile(latencies, 50),
        "op_p90_ms": percentile(latencies, 90),
        "peak_rss_mb": max(r.maxrss_kb for rnd in rounds for r in rnd) / 1024,
    }


def per_layer(untraced: list[OpResult], traced: list[OpResult]) -> dict[str, float]:
    """Sum the traced children's self times and counts over the round."""
    values: dict[str, float] = dict(HEALTH_DEFAULTS)

    def add(name: str, amount: float) -> None:
        values[name] = values.get(name, 0) + amount

    sizes = {"utits.U_size": 0, "utits.C_size": 0}
    down_set_errors = 0
    for r in traced:
        if r.record is None:
            continue
        trace = r.record["trace"]
        for span in trace["spans"]:
            if span["name"] == "cli.import":
                add("cli.import_s", span["self_s"])
        for name, stats in trace["calls"].items():
            add(f"{name}_s", stats["self_s"])
            add(f"{name}_calls", stats["calls"])
        for name, count in trace["counts"].items():
            add(name, count)
        down_set_errors += trace["calls"]["xorder.down_sets"]["errors"] > 0
        sizes["utits.U_size"] = max(sizes["utits.U_size"], r.record["U_size"])
        sizes["utits.C_size"] = max(sizes["utits.C_size"], r.record["C_size"])
        values.update(r.health)
    values.update(sizes)
    # Every down-set the library computes is cross-checked against the BFS
    # route; a disagreement raises, so at most one check per child fails.
    values["xorder.crosschecks"] = values["xorder.bfs_route_calls"]
    values["xorder.crosschecks_agreed"] = values["xorder.crosschecks"] - down_set_errors
    for rate, count, seconds in (
        ("oracle.samples_per_s", "oracle.samples", "oracle.sample_s"),
        ("oracle.flow_steps_per_s", "oracle.flow_steps", "oracle.flow_s"),
    ):
        values[rate] = values.get(count, 0) / values[seconds] if values.get(seconds) else 0.0
    both = untraced + traced
    values["trace.overhead_s"] = round_wall(traced) - round_wall(untraced)
    values["failed_frac"] = sum(r.reason is not None for r in both) / len(both)
    return values


def read_loadavg() -> str | None:
    try:
        return Path("/proc/loadavg").read_text().strip()
    except OSError:
        return None


def environment() -> dict:
    cpu = None
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    return {
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "cpu_model": cpu,
        "nproc": os.cpu_count(),
        "commit": commit,
        "loadavg_before": read_loadavg(),
    }


def op_summary(r: OpResult) -> dict:
    return {
        "op": r.name,
        "ok": r.reason is None,
        "reason": r.reason,
        "latency_s": r.latency_s,
        "setup_s": r.setup_s,
        "solve_s": r.solve_s,
        "maxrss_kb": r.maxrss_kb,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    start = time.perf_counter()

    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "wtits" / "__init__.py").is_file() or not spec_path.is_file():
        print(f"no wtits sources under {ROOT / 'src'} or no BENCHMARK.json", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    ops = WORKLOADS[args.workload](args.seed)
    env_record = environment()

    workdir = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    harness = Harness(workdir, deadline=start + RUN_DEADLINE_S)
    try:
        # Compile the sources once so the first measured child does not.
        warm = spawn(
            [sys.executable, "-c", "import wtits.cli"],
            workdir / "warm.out",
            workdir / "warm.err",
            60.0,
            harness.env,
        )
        if warm.code != 0:
            print("cannot import wtits from src/", file=sys.stderr)
            return 2
        if args.trace:
            untraced = harness.run_round(ops, trace=False)
            traced = harness.run_round(ops, trace=True)
            rounds = [untraced, traced]
            values = per_layer(untraced, traced)
            trace_path = WORK / f"trace-{args.workload}-{args.seed}.json"
            trace_path.write_text(
                json.dumps([r.record for r in traced if r.record], indent=1) + "\n"
            )
        else:
            rounds = []
            while True:
                rounds.append(harness.run_round(ops, trace=False))
                elapsed = time.perf_counter() - start
                next_round = statistics.median(round_wall(rnd) for rnd in rounds)
                if elapsed + next_round > min(args.seconds, RUN_DEADLINE_S):
                    break
            values = end_to_end(rounds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    results = [r for rnd in rounds for r in rnd]
    failed = sum(r.reason is not None for r in results)
    env_record["loadavg_after"] = read_loadavg()
    print(
        json.dumps(
            {
                "workload": args.workload,
                "seed": args.seed,
                "trace": args.trace,
                "rounds": len(rounds),
                "environment": env_record,
                "ops": [op_summary(r) for r in results],
            }
        )
    )
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": len(results),
                "failed": failed,
                "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
