"""Command-line surface and serialization.

Subcommands: `group` (preset inspection), `order leq` / `order hasse`
(extended Bruhat order queries and diagrams), `morse` (quotient order of
minimal Morse components), `control` (control-set machinery for a given
U(S)), and `oracle schubert` / `oracle flow` (numerical cross-checks on
SO(n)).  Only the `oracle` commands import numpy and `wtits.oracle`.

Element expressions are whitespace-separated tokens `1`, `s<i>` or
`s<i>^<k>` (plus `c<j>` / `c<j>^<k>` for custom groups with extra C
generators), multiplied left to right.  All emitted DOT and JSON is
canonically ordered, so identical inputs and seeds produce identical bytes.

The order commands (`order`, `morse`, `control`) and `oracle schubert`
refuse a group, preset or config alike, from its exact |U| = |W| * |C|
before U is closed.

Exit codes: 0 success, 2 parse/usage error or an `--output` that cannot be
written, 3 invariant violation.
"""

from __future__ import annotations

import argparse
import atexit
import gc
import json
import math
import re
import sys

from .errors import ExprParseError, InvariantViolation, PresetError, ReducedLiftUnavailable
from .rootsys import reduced_word
from .utits import (
    FiniteGroupTable,
    GroupPreset,
    UElement,
    coset_label as _coset_label,
    compile_group,
    display_word,
    enumerate_C,
    enumerate_U,
    check_quotient_isomorphism,
    load_config,
    load_preset,
    subgroup_closure,
    subgroup_U_H,
)
from .xorder import (
    control_forward_pairs,
    control_quotient_order,
    extended_leq,
    hasse,
    morse_quotient_order,
    pair_status,
    require_cover_memory,
    require_order_memory,
)

_TOKEN = re.compile(r"(s|c)(\d+)(?:\^(\d+))?$")


def parse_element(preset: GroupPreset, text: str) -> UElement:
    """Evaluate an element expression on U's tables: each token walks its
    generator's `right` row, an exponent reduced digit by digit modulo the
    generator's order in U, so an exponent of any length is read in one
    pass.  Raises ExprParseError with the character position of the
    offending token."""
    tables = compile_group(preset)
    k = e = tables.identity
    pos = 0
    for token in text.split():
        start = text.index(token, pos)
        pos = start + len(token)
        if token == "1":
            continue
        m = _TOKEN.match(token)
        if not m:
            raise ExprParseError(f"bad token {token!r}", start)
        kind, digits, exp = m.groups()
        count = preset.rank if kind == "s" else len(preset.c_generators)
        number = digits.lstrip("0") or "0"
        idx = int(number) if len(number) <= len(str(count)) else 0  # longer is out of range
        if not 1 <= idx <= count:
            raise ExprParseError(f"no {'' if kind == 's' else 'C '}generator {kind}{number}", start)
        row = tables.right[idx - 1 if kind == "s" else preset.rank + idx - 1]
        powers = [e]  # g^0, g^1, ... below the order of g in U
        while (step := row[powers[-1]]) != e:
            powers.append(step)
        power = 0
        for d in exp or "1":
            power = (power * 10 + int(d)) % len(powers)
        k = tables.mul(k, powers[power])
    return tables.element(k)


def hasse_json(group: FiniteGroupTable) -> dict:
    """Canonical JSON form of the extended order: ids are the `hasse`
    indices, in (projection length, word) order; covers are [upper, lower]
    id pairs."""
    tables = group.tables
    poset = hasse(group)
    words = list(map(tables.word, poset.ids))
    return {
        "elements": [
            {"id": n, "word": words[n], "matrix": list(map(list, tables.matrix(k)))}
            for n, k in enumerate(poset.ids)
        ],
        "covers": sorted([hi, lo] for lo, hi in poset.covers),
    }


def hasse_dot(group: FiniteGroupTable, name: str = "extended_bruhat") -> str:
    """Graphviz digraph; one node per element labeled by its canonical word,
    one edge per covering pair, direction upper -> lower."""
    poset = hasse(group)
    words = list(map(group.tables.word, poset.ids))
    return _digraph(name, words, sorted((words[hi], words[lo]) for lo, hi in poset.covers))


def quotient_json(quotient) -> dict:
    """Canonical JSON form of a quotient order, every word read by U index."""
    tables = quotient.cosets[0].tables
    word = tables.word
    labels = [_coset_label(c) for c in quotient.cosets]
    covers = sorted((labels[hi], labels[lo]) for lo, hi in quotient.covers())
    return {
        "kind": quotient.kind,
        "cosets": [
            {
                "label": labels[k],
                "representative": word(c.ids[0]),
                "members": sorted(map(word, c.ids)),
            }
            for k, c in enumerate(quotient.cosets)
        ],
        "covers": [list(pair) for pair in covers],
    }


def quotient_dot(quotient, name: str) -> str:
    labels = [_coset_label(c) for c in quotient.cosets]
    edges = sorted((labels[j], labels[i]) for i, j in quotient.covers())
    return _digraph(name, sorted(labels), edges)


def _digraph(name: str, nodes: list[str], edges: list[tuple[str, str]]) -> str:
    """DOT text: the nodes, then the (upper, lower) edges, in the given order."""
    lines = [f"digraph {name} {{", *(f'  "{node}";' for node in nodes)]
    lines += [f'  "{hi}" -> "{lo}";' for hi, lo in edges]
    return "\n".join(lines) + "\n}\n"


def _json_text(payload) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


# -- commands -------------------------------------------------------------------


def _load(args) -> GroupPreset:
    if getattr(args, "config", None):
        return load_config(args.config)
    return load_preset(args.preset)


def _load_order(args, hasse: bool = False) -> GroupPreset:
    """`_load` for the order commands, refusing the group from its exact
    |U| = |W| * |C| (`predicted_size`) before U is closed, as `xorder`
    refuses any group from its |U|, for presets and configs alike.  Every
    order command builds the covers; all but the Hasse diagram also build
    |U|^2 bits of down-sets, whose refusal is checked first."""
    preset = _load(args)
    size = preset.predicted_size
    if not hasse:
        require_order_memory(size)
    require_cover_memory(size, len(preset.root_datum.positive_roots))
    return preset


def cmd_group(args) -> int:
    preset = _load(args)
    tables = compile_group(preset)
    sizes = {"U": len(tables.pi), "W": len(tables.weyl), "C": len(tables.c_ids)}
    c_ids = sorted(tables.c_ids, key=tables.display_key)
    if args.json:
        payload = {
            "preset": preset.name,
            "label": preset.label,
            "sizes": sizes,
            "generators": {
                f"s{i}": list(map(list, matrix)) for i, matrix in enumerate(preset.generators, 1)
            },
            "C": [
                {"word": tables.word(c), "matrix": list(map(list, tables.matrix(c)))} for c in c_ids
            ],
        }
        _write_output(_json_text(payload), None)
        return 0
    print(f"|U|={sizes['U']} |W|={sizes['W']} |C|={sizes['C']}")
    for i, matrix in enumerate(preset.generators, 1):
        print(f"s{i} = {list(map(list, matrix))}")
    print("C = {" + ", ".join(map(tables.word, c_ids)) + "}")
    return 0


def cmd_order(args) -> int:
    preset = _load_order(args, hasse=args.order_cmd == "hasse")
    table = enumerate_U(preset)
    if args.order_cmd == "leq":
        lo = parse_element(preset, args.lhs)
        hi = parse_element(preset, args.rhs)
        print("true" if extended_leq(lo, hi) else "false")
        return 0
    # hasse
    if args.format == "json":
        text_out = _json_text(hasse_json(table))
    else:
        text_out = hasse_dot(table, name=f"extended_bruhat_{preset.name}")
    _write_output(text_out, args.output)
    return 0


def _entries(flag: str, text: str, kind: type, what: str) -> list:
    """The comma-separated entries of a flag's value, each read by `kind`;
    an entry that does not read is named with its flag."""
    out = []
    for entry in text.split(","):
        try:
            out.append(kind(entry))
        except ValueError:
            raise ValueError(
                f"{flag}: bad entry {entry.strip()!r} in {text!r}; expected {what}"
            ) from None
    return out


def _parse_theta(preset: GroupPreset, text: str) -> set[int]:
    text = text.strip()
    theta = set(_entries("--theta", text, int, "comma-separated integers")) if text else set()
    if any(not 1 <= i <= preset.rank for i in theta):
        raise ValueError(f"Theta {sorted(theta)} not within 1..{preset.rank}")
    return theta


def _parse_gens(preset: GroupPreset, flag: str, text: str) -> list[UElement]:
    text = text.strip()
    chunks = [chunk.strip() for chunk in text.split(",")] if text else []
    if "" in chunks:
        raise ValueError(f"{flag}: bad entry '' in {text!r}; expected element expressions")
    return [parse_element(preset, chunk) for chunk in chunks]


def cmd_morse(args) -> int:
    preset = _load_order(args)
    table = enumerate_U(preset)
    theta = _parse_theta(preset, args.theta)
    extra = _parse_gens(preset, "--extra-gens", args.extra_gens)
    u_h = subgroup_U_H(preset, theta, extra_gens=extra)
    quotient = morse_quotient_order(table, u_h)
    if args.format == "json":
        _write_output(_json_text(quotient_json(quotient)), args.output)
        return 0
    if args.format == "dot":
        _write_output(quotient_dot(quotient, f"morse_{preset.name}"), args.output)
        return 0
    payload = quotient_json(quotient)
    print(f"U_H of size {len(u_h)} on Theta={sorted(theta)}; {len(quotient.cosets)} classes")
    for coset in payload["cosets"]:
        print(f"[{coset['label']}] = {{{', '.join(coset['members'])}}}")
    print("schubert-inclusion order (upper -> lower):")
    for hi, lo in payload["covers"]:
        print(f"  [{hi}] -> [{lo}]")
    print("dynamical order of the Morse components is the inverse:")
    for hi, lo in payload["covers"]:
        print(f"  M[{lo}] -> M[{hi}]")
    return 0


def cmd_control(args) -> int:
    preset = _load_order(args)
    table = enumerate_U(preset)
    gens = _parse_gens(preset, "--us-gens", args.us_gens)
    pair = [parse_element(preset, text) for text in args.pair or ()]
    u_s = subgroup_closure(preset, gens)
    report = check_quotient_isomorphism(u_s, enumerate_C(preset))
    quotient = control_quotient_order(table, u_s)
    labels = [_coset_label(c) for c in quotient.cosets]
    word = table.tables.word
    print(f"U(S) = {{{', '.join(sorted(map(word, u_s.ids)))}}}")
    print(f"C(S) = {{{', '.join(sorted(map(word, report.C_S.ids)))}}}")
    w_s = ", ".join(
        "1" if w.is_identity() else " ".join(f"r{i}" for i in reduced_word(w))
        for w in report.W_S
    )
    print(f"W(S) = {{{w_s}}}")
    print(
        f"classes: |U(S)\\U| = {report.classes_in_U} = "
        f"{report.classes_in_W} * {report.classes_in_C} "
        f"({'ok' if report.identity_holds else 'MISMATCH'})"
    )
    if not report.identity_holds:
        raise InvariantViolation("coset cardinality identity failed")
    print(f"{len(quotient.cosets)} control-set classes")
    for k, coset in enumerate(quotient.cosets):
        members = ", ".join(sorted(map(word, coset.ids)))
        print(f"D[{labels[k]}] class = {{{members}}}")
    print("control-set order facts (D[a] -> D[b] means D[a] < D[b]):")
    for src, dst in control_forward_pairs(quotient):
        print(f"  D[{labels[src]}] -> D[{labels[dst]}]")
    if pair:
        lhs, rhs = pair
        verdict = pair_status(quotient, lhs, rhs)
        a, b = display_word(lhs), display_word(rhs)
        if verdict.status == "equal":
            print(f"pair: D[{a}] = D[{b}] (same class)")
        elif verdict.status == "leq":
            print(f"pair: D[{a}] <= D[{b}]")
        elif verdict.status == "geq":
            print(f"pair: D[{b}] <= D[{a}]")
        else:
            print(f"pair: D[{a}] vs D[{b}]: undetermined")
            for tag, cands in (
                (f"D[{a}] <= D[{b}]", verdict.a_before_b_candidates),
                (f"D[{b}] <= D[{a}]", verdict.b_before_a_candidates),
            ):
                if cands is None:
                    print(f"  {tag}: converse test inapplicable (no reduced lift)")
                elif not cands:
                    print(f"  {tag}: refuted")
                else:
                    names = ", ".join(sorted(display_word(x) for x in cands))
                    print(f"  {tag}: candidates {{{names}}}")
    return 0


def cmd_oracle(args) -> int:
    # the only numpy user: other commands never import it
    import numpy as np

    from .oracle import FlowSpec, recover_morse, schubert_agreement_report

    preset = _load(args)
    if args.oracle_cmd == "schubert":
        report = schubert_agreement_report(
            preset,
            count=args.samples,
            seed=args.seed,
            tol=args.tol,
            reject_margin=args.margin,
        )
        agree = sum(
            1 for p in report["pairs"] if p["combinatorial"] == p["numerical"]
        )
        total = len(report["pairs"])
        print(f"{agree}/{total} pairs agree", file=sys.stderr)
        if args.json or args.output:
            _write_output(_json_text(report), args.output)
        else:
            print(f"{agree}/{total} pairs agree (seed={report['seed']}, tol={report['tol']})")
        if not (report["agree"] and report["margin_ok"]):
            raise InvariantViolation("numerical oracle disagrees with the combinatorial order")
        return 0
    # flow
    h_vec = _entries("--H", args.H, float, "comma-separated numbers")
    n = len(h_vec)
    if n != preset.n:
        raise ValueError(f"--H has {n} entries, but preset {preset.name} has n = {preset.n}")
    nil = np.zeros((n, n))
    if args.nilpotent and args.nilpotent != "0":
        start = 0  # where the chunk starts; `at`, where its stripped token does
        for chunk in args.nilpotent.split(","):
            at, start = start + len(chunk) - len(chunk.lstrip()), start + len(chunk) + 1
            m = re.match(r"e(\d)(\d)(?:=(.+))?$", chunk.strip())
            if not m:
                raise ExprParseError(f"bad nilpotent token {chunk!r}", at)
            i, j = int(m.group(1)), int(m.group(2))
            if not (1 <= i <= n and 1 <= j <= n):
                raise ExprParseError(f"nilpotent entry e{i}{j} outside 1..{n}", at)
            try:
                value = float(m.group(3) or 1.0)
            except ValueError:
                raise ExprParseError(f"bad nilpotent token {chunk!r}", at) from None
            if not math.isfinite(value):
                raise ExprParseError(f"--nilpotent entry {chunk.strip()!r} is not finite", at)
            nil[i - 1, j - 1] = value
    spec = FlowSpec(H=np.array(h_vec), nilpotent=nil, time_step=args.time_step)
    report = recover_morse(
        preset, spec, grid=args.grid, iters=args.steps, seed=args.seed
    )
    if report.degenerate:
        print("degenerate flow (H = 0, no unipotent part): every point is recurrent")
        return 0
    print(
        f"{len(report.recurrent_points)} recurrent points, "
        f"{report.components_found()} components"
    )
    if args.json or args.output:
        payload = {
            "preset": report.preset,
            "theta": list(report.theta),
            "seed": report.seed,
            "recurrent_points": sorted(display_word(u) for u in report.recurrent_points),
            "components": list(report.component_labels),
            "recurrent_per_component": list(report.recurrent_per_component),
            "attractor_components": list(report.attractor_components),
            "non_convergent": list(report.non_convergent),
        }
        _write_output(_json_text(payload), args.output)
    return 0


def _write_output(text: str, path: str | None) -> None:
    if not path:
        sys.stdout.write(text)
        return
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise ValueError(f"cannot write {path}: {exc.strerror}") from None


def nonnegative_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be nonnegative, got {value}")
    return value


def positive_float(text: str) -> float:
    value = float(text)
    if not (math.isfinite(value) and value > 0):
        raise argparse.ArgumentTypeError(f"must be a finite positive number, got {text}")
    return value


def build_parser() -> argparse.ArgumentParser:
    def leaf(sub, func, name: str, **kwargs) -> argparse.ArgumentParser:
        p = sub.add_parser(name, **kwargs)
        group_src = p.add_mutually_exclusive_group()
        group_src.add_argument("--preset", default="sl3", help="sl<n>, sl(<n>) or so24")
        group_src.add_argument("--config", help="path to a custom group JSON config")
        p.set_defaults(func=func)
        return p

    parser = argparse.ArgumentParser(
        prog="wtits",
        description="Extended Weyl groups, the extended Bruhat order, and numerical oracles",
    )
    sub = parser.add_subparsers(dest="cmd", required=True)

    p = leaf(sub, cmd_group, "group", help="inspect a preset")
    p.add_argument("--json", action="store_true")

    p_order = sub.add_parser("order", help="extended Bruhat order")
    order_sub = p_order.add_subparsers(dest="order_cmd", required=True)
    p = leaf(order_sub, cmd_order, "leq")
    p.add_argument("--lhs", required=True)
    p.add_argument("--rhs", required=True)
    p = leaf(order_sub, cmd_order, "hasse")
    p.add_argument("--format", choices=("dot", "json"), default="dot")
    p.add_argument("--output")

    p = leaf(sub, cmd_morse, "morse", help="Morse quotient order")
    p.add_argument("--theta", default="", help="comma-separated simple indices")
    p.add_argument("--extra-gens", default="", dest="extra_gens")
    p.add_argument("--format", choices=("text", "dot", "json"), default="text")
    p.add_argument("--output")

    p = leaf(sub, cmd_control, "control", help="control-set machinery")
    p.add_argument("--us-gens", default="", dest="us_gens")
    p.add_argument("--pair", nargs=2, metavar=("LHS", "RHS"))

    p_oracle = sub.add_parser("oracle", help="numerical oracles")
    oracle_sub = p_oracle.add_subparsers(dest="oracle_cmd", required=True)
    p = leaf(oracle_sub, cmd_oracle, "schubert")
    p.add_argument("--samples", type=nonnegative_int, default=100_000)
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--tol", type=positive_float, default=1e-2)
    p.add_argument("--margin", type=positive_float, default=5e-2)
    p.add_argument("--json", action="store_true")
    p.add_argument("--output")
    p = leaf(oracle_sub, cmd_oracle, "flow")
    p.add_argument("--H", required=True, help="comma-separated diagonal entries")
    p.add_argument("--nilpotent", default="", help='tokens like "e23" or "e23=0.5"')
    p.add_argument("--steps", type=nonnegative_int, default=2000)
    p.add_argument("--grid", type=nonnegative_int, default=48)
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--time-step", type=positive_float, default=1.0, dest="time_step")
    p.add_argument("--json", action="store_true")
    p.add_argument("--output")

    return parser


def main(argv=None) -> int:
    """Run one `wtits` command line (`sys.argv[1:]` when `argv` is None) and
    return its exit code.  `gc.freeze` runs at exit, so interpreter shutdown
    skips its cyclic collections over the modules, functions and tables
    that die with the process; objects left in reference cycles are then
    not finalized.  Repeated calls leave one exit hook; importing this module
    registers none, so library callers keep the default shutdown."""
    atexit.unregister(gc.freeze)
    atexit.register(gc.freeze)
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ExprParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    except (PresetError, ReducedLiftUnavailable, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except InvariantViolation as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
