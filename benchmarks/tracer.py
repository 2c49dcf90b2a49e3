"""In-memory spans and call counters for one benchmark child process.

A `Tracer` records two kinds of timing, both on one stack so that self time
(a span's duration minus the part covered by the spans opened inside it) is
exact:

* coarse spans opened by the child itself (`span(name)`), kept as records
  with their parent span, all sharing the operation's id;
* per-call spans of wrapped library functions, aggregated per name into
  calls / inclusive seconds / self seconds / exceptions, because hot
  functions are called up to millions of times.

Functions are wrapped by rebinding the name in every `wtits` module whose
namespace holds the same object (the importing module's namespace is what
a call looks up), and class attributes such as `UElement.__mul__` on the
class.  `restore()` puts every original back.  Nothing is written until the
child dumps `report()` at exit.
"""

from __future__ import annotations

import functools
import importlib
import time
from contextlib import contextmanager

WTITS_MODULES = (
    "wtits",
    "wtits.exact",
    "wtits.rootsys",
    "wtits.utits",
    "wtits.xorder",
    "wtits.oracle",
    "wtits.cli",
)


def _resolve(target: str):
    """'utits.load_preset' -> (wtits.utits, 'load_preset', function);
    'utits.UElement.__mul__' -> (UElement class, '__mul__', function)."""
    parts = target.split(".")
    owner = importlib.import_module("wtits." + parts[0])
    for name in parts[1:-1]:
        owner = getattr(owner, name)
    return owner, parts[-1], getattr(owner, parts[-1])


class Tracer:
    def __init__(self, op_id: str, clock=time.perf_counter):
        self.op_id = op_id
        self.clock = clock
        self.spans: list[dict] = []
        self.calls: dict[str, list] = {}  # name -> [calls, incl_s, self_s, errors]
        self.counts: dict[str, int] = {}
        self._stack: list[list] = []  # open spans: [child seconds, span index or None]
        self._restore: list[tuple[object, str, object]] = []

    @contextmanager
    def span(self, name: str):
        parent = next((f[1] for f in reversed(self._stack) if f[1] is not None), None)
        frame = [0.0, len(self.spans)]
        self.spans.append(None)  # reserve the id so children can point at it
        self._stack.append(frame)
        start = self.clock()
        try:
            yield
        finally:
            end = self.clock()
            self._stack.pop()
            if self._stack:
                self._stack[-1][0] += end - start
            self.spans[frame[1]] = {
                "id": self.op_id,
                "span": frame[1],
                "parent": parent,
                "name": name,
                "start": start,
                "end": end,
                "self_s": end - start - frame[0],
            }

    def _rebind(self, target: str, make):
        owner, attr, original = _resolve(target)
        wrapper = functools.wraps(original)(make(original))
        if isinstance(owner, type):
            places = [owner]
        else:
            places = [importlib.import_module(m) for m in WTITS_MODULES]
            places = [m for m in places if m.__dict__.get(attr) is original]
        for place in places:
            setattr(place, attr, wrapper)
            self._restore.append((place, attr, original))

    def count_calls(self, target: str, counter: str) -> None:
        """Count calls of `target` into `counts[counter]`."""
        self.counts.setdefault(counter, 0)
        counts = self.counts

        def make(fn):
            def counted(*args, **kwargs):
                counts[counter] += 1
                return fn(*args, **kwargs)

            return counted

        self._rebind(target, make)

    def time_calls(self, target: str, name: str, counter: str | None = None, size=len) -> None:
        """Time every call of `target` as a span aggregated under `name`;
        with `counter`, also add `size(result)` to that count."""
        stats = self.calls.setdefault(name, [0, 0.0, 0.0, 0])
        stack, clock, counts = self._stack, self.clock, self.counts
        if counter:
            counts.setdefault(counter, 0)

        def make(fn):
            def timed(*args, **kwargs):
                frame = [0.0, None]
                stack.append(frame)
                start = clock()
                try:
                    result = fn(*args, **kwargs)
                except BaseException:
                    stats[3] += 1
                    raise
                finally:
                    dur = clock() - start
                    stack.pop()
                    stats[0] += 1
                    stats[1] += dur
                    stats[2] += dur - frame[0]
                    if stack:
                        stack[-1][0] += dur
                if counter:
                    counts[counter] += size(result)
                return result

            return timed

        self._rebind(target, make)

    def restore(self) -> None:
        while self._restore:
            place, attr, original = self._restore.pop()
            setattr(place, attr, original)

    def report(self) -> dict:
        return {
            "spans": self.spans,
            "calls": {
                name: {"calls": c, "incl_s": incl, "self_s": own, "errors": err}
                for name, (c, incl, own, err) in self.calls.items()
            },
            "counts": dict(self.counts),
        }


def install_layers(tracer: Tracer) -> None:
    """Wrap the public functions of every layer.  A timed name `x` feeds the
    per-layer metric `x_s` (its self time); counters are metrics as named."""
    for target, name in (
        ("utits.load_preset", "utits.load"),
        ("utits.load_config", "utits.load"),
        ("utits.enumerate_U", "utits.closure"),
        ("utits.enumerate_C", "utits.closure"),
        ("utits.project_to_W", "utits.project"),
        ("utits.canonical_form", "utits.canonical"),
        ("utits.cosets", "utits.cosets"),
        ("rootsys.weyl_group", "rootsys.weyl_group"),
        ("rootsys.is_reduced", "rootsys.is_reduced"),
        ("xorder.down_covers", "xorder.covers"),
        ("xorder.down_set", "xorder.down_sets"),
        ("xorder.morse_quotient_order", "xorder.quotient"),
        ("xorder.control_quotient_order", "xorder.quotient"),
        ("xorder.pair_status", "xorder.quotient"),
        ("cli.hasse_json", "cli.serialize"),
        ("cli.hasse_dot", "cli.serialize"),
        ("cli.quotient_json", "cli.serialize"),
        ("cli.quotient_dot", "cli.serialize"),
        ("oracle.min_distance", "oracle.incidence"),
        ("oracle.recover_morse", "oracle.flow"),
    ):
        tracer.time_calls(target, name)
    tracer.time_calls(
        "xorder.hasse", "xorder.hasse", "xorder.cover_edges", lambda poset: len(poset.covers)
    )
    tracer.time_calls("xorder.down_set_from_word", "xorder.bfs_route", "xorder.relation_pairs")
    tracer.time_calls(
        "oracle.sample_schubert", "oracle.sample", "oracle.samples", lambda cell: len(cell.points)
    )
    for target, counter in (
        ("utits.UElement.__mul__", "utits.mul_calls"),
        ("rootsys.WeylElement.__mul__", "rootsys.weyl_mul_calls"),
        ("exact.mat_mul", "exact.mat_mul_calls"),
        ("exact.frac_mat_mul", "exact.frac_mat_mul_calls"),
        ("oracle.flow_step", "oracle.flow_steps"),
    ):
        tracer.count_calls(target, counter)
