"""The bit layouts of the order against the rules they replace.

Quotient rows: each quotient builds its rows from its own closure of the
covers in the class layout (member s of class i at bit i * |H| + s) by a
block fold.  The reference is the all-pairs rule on down-set bitsets over
U indices that it replaces: for each class, one big-int test against
every class.  Both must give identical `below` rows.

Down-sets: the covers' closure in the C-slot layout, checked against the
subword grid of every element, must give each element the same down-set
as the grid alone, and the order's elements must hash as their matrices."""

import random
from functools import reduce
from itertools import combinations
from operator import and_, or_
from pathlib import Path

import pytest

from wtits import (
    control_quotient_order,
    cosets,
    down_set,
    enumerate_U,
    load_config,
    load_preset,
    morse_quotient_order,
    subgroup_U_H,
    subgroup_closure,
)
from wtits.cli import parse_element
from wtits.utits import UElement, compile_group
from wtits.xorder import _compress, _down_masks, _fold, down_set_from_word

CUSTOM_O3 = Path(__file__).resolve().parent.parent / "benchmarks" / "custom_o3.json"


def reference_rows(group, subgroup, kind):
    """The all-pairs row rule: class j's row holds class i when every member
    of i lies in the union of j's members' down-sets ("morse"), or when
    every member of j has a down-set meeting class i (control)."""
    tables = compile_group(group.preset)
    index = {u: k for k, u in enumerate(tables.U)}  # the reference's own element -> index map
    down = [reduce(or_, (1 << index[x] for x in down_set(u))) for u in tables.U]
    classes = cosets(group, subgroup)
    masks = [reduce(or_, (1 << k for k in c.ids)) for c in classes]
    rows = []
    for c in classes:
        downs = [down[k] for k in c.ids]
        if kind == "morse":
            outside = ~reduce(or_, downs)
            row = (i for i, lo in enumerate(masks) if not lo & outside)
        else:
            hits = [{i for i, lo in enumerate(masks) if d & lo} for d in downs]
            row = set.intersection(*hits)
        rows.append(reduce(or_, (1 << i for i in row), 0))
    return tuple(rows)


def _subgroup(preset, source, arg):
    if source == "theta":
        return subgroup_U_H(preset, arg)
    return subgroup_closure(preset, [parse_element(preset, text) for text in arg])


def _every_subgroup():
    """Every Theta and every single-generator U(S) of sl3, so24, custom_o3
    (which has an extra C generator) and sl4."""
    for name, make in (
        ("sl3", lambda: load_preset("sl3")),
        ("so24", lambda: load_preset("so24")),
        ("custom_o3", lambda: load_config(str(CUSTOM_O3))),
        ("sl4", lambda: load_preset("sl4")),
    ):
        rank = make().rank
        for size in range(rank + 1):
            for theta in combinations(range(1, rank + 1), size):
                label = "".join(map(str, theta))
                yield pytest.param(make, "theta", theta, id=f"{name}-theta{label}")
        gens = [f"s{i}" for i in range(1, rank + 1)]
        if name == "custom_o3":
            gens.append("c1")
        for gen in gens:
            yield pytest.param(make, "gens", (gen,), id=f"{name}-{gen}")


def _larger_subgroups():
    sl3, sl4, sl5 = (lambda n=n: load_preset(f"sl{n}") for n in (3, 4, 5))
    for make, source, arg, name in (
        (sl5, "theta", (), "sl5-theta"),
        (sl5, "theta", (1,), "sl5-theta1"),
        (sl5, "theta", (1, 3), "sl5-theta13"),
        (sl5, "gens", ("s1",), "sl5-s1"),
        (sl5, "gens", ("s1", "s3"), "sl5-s1-s3"),
        (sl3, "gens", ("s2 s1 s2",), "sl3-s2s1s2"),
        (sl4, "gens", ("s1 s2 s3",), "sl4-s1s2s3"),
    ):
        yield pytest.param(make, source, arg, id=name)


@pytest.mark.parametrize("make,source,arg", [*_every_subgroup(), *_larger_subgroups()])
def test_class_layout_rows_match_all_pairs_rule(make, source, arg):
    preset = make()
    table = enumerate_U(preset)
    subgroup = _subgroup(preset, source, arg)
    for kind, build in (("morse", morse_quotient_order), ("control", control_quotient_order)):
        assert build(table, subgroup).below == reference_rows(table, subgroup, kind)


@pytest.mark.parametrize(
    "name,gen", [("sl3", "s2 s1 s2"), ("sl4", "s1 s2 s3")], ids=["sl3", "sl4"]
)
def test_rules_differ_off_the_parabolic_subgroups(name, gen):
    # the two rules must be told apart by the layouts' reference test
    preset = load_preset(name)
    table = enumerate_U(preset)
    subgroup = subgroup_closure(preset, [parse_element(preset, gen)])
    morse = morse_quotient_order(table, subgroup)
    control = control_quotient_order(table, subgroup)
    assert morse.below != control.below


def test_fold_and_compress_match_definitions():
    rng = random.Random(20261019)
    for width in range(1, 11):
        for _ in range(40):
            blocks = rng.randrange(1, 30)
            span = blocks * width
            # mostly full or empty blocks, so that both folds see both answers
            mask = 0
            for i in range(blocks):
                block = rng.choice([0, (1 << width) - 1, rng.getrandbits(width)])
                mask |= block << (i * width)
            mask |= rng.getrandbits(8) << span  # bits past the last block are ignored
            full = sum(
                1 << i for i in range(blocks) if all(mask >> (i * width + s) & 1 for s in range(width))
            )
            hit = sum(
                1 << i for i in range(blocks) if any(mask >> (i * width + s) & 1 for s in range(width))
            )
            assert _compress(_fold(mask, width, and_), width, span) == full
            assert _compress(_fold(mask, width, or_), width, span) == hit
    assert _compress(0, 3, 9) == 0


@pytest.mark.parametrize("name", ["sl3", "so24", "custom_o3", "sl4"])
def test_c_slot_layout_matches_grid_route(name):
    preset = load_config(str(CUSTOM_O3)) if name == "custom_o3" else load_preset(name)
    tables = compile_group(preset)
    down = _down_masks(tables)
    n = len(tables.pi)
    width = len(tables.C)
    assert sorted(down.place) == list(range(n))
    for k, u in enumerate(tables.U):
        assert tables.at[down.place[k] // width][down.place[k] % width] == k
        assert down.place[k] // width == tables.pi[k]
        word = tables.weyl.word[tables.pi[k]]
        assert down_set(u) == down_set_from_word(u, word)


def test_elements_hash_once_as_their_matrices(sl3):
    u = sl3.generator(1) * sl3.generator(2)
    assert hash(u) == hash((u.matrix,))
    v = UElement(u.matrix, load_preset("so24"))  # the preset takes no part
    assert v == u and hash(v) == hash(u)
    with pytest.raises(AttributeError, match="'matrix'"):
        u.matrix = sl3.identity().matrix
    with pytest.raises(AttributeError, match="'_hash'"):
        u._hash = 0
    tables = compile_group(sl3)
    assert {tables.position(x) for x in tables.U} == set(range(len(tables.U)))


def test_class_layout_rows_inside_a_subgroup(sl4):
    # the partitioned group is itself a subgroup of U: the rest of U sits
    # past every class block and lies in no class
    group = subgroup_U_H(sl4, (1, 2))
    subgroup = subgroup_closure(sl4, [sl4.generator(1)])
    tables = compile_group(sl4)
    inside = sorted(tables.position(u) for u in group)
    for kind, build in (("morse", morse_quotient_order), ("control", control_quotient_order)):
        quotient = build(group, subgroup)
        assert len(quotient.cosets) == len(group) // len(subgroup) == 6
        assert quotient.below == reference_rows(group, subgroup, kind)
        assert [k for k, i in enumerate(quotient.class_of) if i >= 0] == inside
