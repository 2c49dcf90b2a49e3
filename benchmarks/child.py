"""One benchmark operation, run in a fresh interpreter by run.py.

    python3 benchmarks/child.py TIMING_JSON TRACE GROUP TASK [ARGS...]

GROUP is `preset:<name>` or `config:<path>`.  TASK is `cli` (ARGS are a
`wtits` command line; its standard output is the operation's output) or
`order` (ARGS is an output directory for the order pipeline's files).

The child first builds the group's U and C tables, which is the end of
set-up, then runs the task.  For presets the CLI finds those tables in
`load_preset`'s cache; a `--config` group is loaded again by the CLI, which
costs little for the small custom group the benchmark uses.  At exit it
writes TIMING_JSON with the time set-up ended (time.perf_counter, the
system monotonic clock, so it compares with the parent's readings), the
table sizes and, when TRACE is 1, the tracer's spans and counters.
"""

from __future__ import annotations

import json
import os
import sys
import time
from contextlib import nullcontext

from tracer import Tracer, install_layers


def dump(payload, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def order_pipeline(preset, out_dir: str) -> None:
    """The order-sl4 operation after set-up, in pipeline order: per-element
    projection and canonical forms, the Hasse diagram as JSON, every
    down-set (each cross-checked by the library), the Morse quotients for
    Theta = {} and {1}, the control quotient for U(S) = <s1>, and their
    JSON.  The explicit loops only fill caches the later steps would fill
    anyway, so each step's span is its incremental cost."""
    from wtits import cli, utits, xorder

    table = utits.enumerate_U(preset)
    for u in table:
        utits.project_to_W(u)
    for u in table:
        utits.canonical_form(u)
    dump(cli.hasse_json(table), os.path.join(out_dir, "hasse.json"))
    for u in table:
        xorder.down_set(u)
    quotients = {
        "morse_theta.json": xorder.morse_quotient_order(table, utits.subgroup_U_H(preset, ())),
        "morse_theta1.json": xorder.morse_quotient_order(table, utits.subgroup_U_H(preset, (1,))),
        "control_s1.json": xorder.control_quotient_order(
            table, utits.subgroup_closure(preset, [preset.generator(1)])
        ),
    }
    for name, quotient in quotients.items():
        dump(cli.quotient_json(quotient), os.path.join(out_dir, name))


def main(argv: list[str]) -> int:
    timing_path, trace, group, task, args = argv[0], argv[1] == "1", argv[2], argv[3], argv[4:]
    op_id = os.path.basename(os.path.dirname(os.path.abspath(timing_path)))
    tracer = Tracer(op_id) if trace else None

    def span(name):
        return tracer.span(name) if tracer else nullcontext()

    with span("op"):
        with span("cli.import"):
            from wtits import cli, utits
        if tracer:
            install_layers(tracer)
        with span("setup"):
            kind, _, name = group.partition(":")
            preset = utits.load_config(name) if kind == "config" else utits.load_preset(name)
            u_size = len(utits.enumerate_U(preset))
            c_size = len(utits.enumerate_C(preset))
        ready = time.perf_counter()
        with span("solve"):
            if task == "order":
                order_pipeline(preset, args[0])
                rc = 0
            else:
                rc = cli.main(args)
            sys.stdout.flush()
    record = {"ready": ready, "U_size": u_size, "C_size": c_size}
    if tracer:
        tracer.restore()
        record["trace"] = tracer.report()
    dump(record, timing_path)
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
