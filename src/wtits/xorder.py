"""The extended Bruhat order on U and its quotient orders.

The order is generated by single "drop" covers: write u canonically as
s_1 ... s_d c with the deterministic reduced word of pi(u); every position
whose removal leaves a reduced word contributes two covered elements, with
the dropped letter replaced by the identity or by its square.  Reachability
through such covers is the extended Bruhat order.

Everything here runs on the group's compiled tables (`utits.GroupTables`):
a product is a walk along the generator tables, reducedness is a walk
along the Weyl permutation table, and a down-set is an int bitset over
element indices.  The covers of all elements are computed together on the
first question that needs them, and so are all down-sets.

Because this order is the load-bearing piece of the whole package, the
down-set of every element is always computed twice: once as the one
closure of covers (the union of the covers' down-sets, by increasing
length), and once as the subword grid {s_1^{k_1} ... s_d^{k_d} c : k in
{0,1,2}^d} of the canonical reduced word -- the closed Schubert cell as
the image of its characteristic map (the subword property, lifted to U).
The two routes must agree on every element -- a disagreement raises
instead of returning silently wrong data.  This redundancy is permanent,
not test scaffolding.  The same grid with exponents up to 3 gives the
candidates of the partial converse test for control sets.

The down-sets use the C-slot layout: u sits at bit pi(u) * |C| + (the
position of its C part in C), one |C|-bit block per Weyl element.  The
grid of u = lift(pi(u)) c is the grid of the lift times c, and C is
abelian, so right multiplication by c moves each slot to one other slot
in every block: each Weyl element's grid is built once, and each of its
|C| translates is |C| shift-and-mask operations on one int (`_down_masks`).

The Hasse diagram is the cover table itself, its elements in (projection
length, display word) order.  It needs no closure: the order projects
onto the Bruhat order, which is graded by length, so every cover must
join consecutive lengths, and a graded cover set is acyclic and
transitively reduced.  `hasse` checks that grading on every cover.

A quotient order on right cosets (Morse components, control sets) is one
bitset row per class, holding the classes at or below it.  Each quotient
closes the covers again in its class layout: member s of class i sits at
bit i * |H| + s, so a class is an |H|-bit block.  A Morse row AND-folds
the union of its class's down-sets over each block (a full block is a
class wholly below); a control row ANDs, over its class's members, each
member's down-set OR-folded over each block.  The block-start bits are
then compressed into class bits (`_quotient`).  One union per row, of the
strict rows of the classes below it, both checks that the rows are a
partial order and gives the row's covers (`_verify_partial_order`).

The down-sets hold |U|^2 bits.  A group whose |U|^2 / 8 bytes exceed
MAX_ORDER_BYTES is refused by name before its down-sets or quotient rows
are built (`require_order_memory`).  The Hasse diagram builds no bitset,
only the covers, which grow linearly: at most two per letter of each
element's reduced word, so |U| * 2 * |Phi+| entries.  A group predicted
above MAX_COVER_ENTRIES is refused before its covers are built
(`require_cover_memory`).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from itertools import compress
from operator import and_, or_
from typing import Iterable, Iterator, NamedTuple, Sequence

from .errors import InvariantViolation, ReducedLiftUnavailable
from .utits import (
    Coset,
    FiniteGroupTable,
    GroupTables,
    UElement,
    compile_group,
    cosets,
    display_word,
)


MAX_ORDER_BYTES = 1 << 30  # 1 GiB: the largest |U|^2 bits of order bitsets
# the largest |U| * 2 * |Phi+| predicted cover entries: about 0.7 GiB at the
# 350 bytes per predicted entry of sl6 `order hasse --format json` (240 MB
# above its tables for 691,200 entries, 237,312 of them real)
MAX_COVER_ENTRIES = 1 << 21


def require_order_memory(size: int) -> None:
    """Refuse the extended order on `size` elements from its predicted
    memory, before anything is allocated: its down-set bitsets alone hold
    size^2 bits."""
    predicted = size * size // 8
    if predicted > MAX_ORDER_BYTES:
        raise ValueError(
            f"the extended order on |U| = {size} elements needs {predicted} bytes "
            f"of down-set bitsets (|U|^2/8), over the cap of {MAX_ORDER_BYTES}"
        )


def require_cover_memory(size: int, positive_roots: int) -> None:
    """Refuse the covers of `size` elements from their predicted count,
    before any is built: an element covers at most two elements per letter
    of its reduced word, and a reduced word has at most |Phi+| letters."""
    predicted = size * 2 * positive_roots
    if predicted > MAX_COVER_ENTRIES:
        raise ValueError(
            f"the covers of the extended order on |U| = {size} elements may take "
            f"{predicted} entries (2*|Phi+| = {2 * positive_roots} per element), "
            f"over the cap of {MAX_COVER_ENTRIES}"
        )


_DIGITS = bytes.maketrans(b"01", b"\0\1")


def _select(items: Sequence, mask: int) -> Iterator:
    """The items at the set bits of `mask` (which must lie below
    len(items)), ascending: its binary digits, read from the low end, select
    them through `itertools.compress`, all in C.  Faster than `_bits` unless
    the mask is sparse."""
    return compress(items, bin(mask)[:1:-1].encode().translate(_DIGITS))


def _bits(mask: int) -> Iterator[int]:
    """Indices of the set bits, ascending: the positions of the "1"s in the
    binary digits of `mask` read from the low end, one `str.find` each.
    Clearing the lowest bit instead costs the whole width of the int per bit."""
    digits = bin(mask)[:1:-1]
    i = digits.find("1")
    while i >= 0:
        yield i
        i = digits.find("1", i + 1)


# -- covers and the order ------------------------------------------------------


def _drop_covers(tables: GroupTables, w: int) -> set[int]:
    """Indices of the elements covered by the lift s_1 ... s_d of the Weyl
    element w (see `down_covers`), whose C part is 1."""
    word = tables.weyl.word[w]
    letters = [i - 1 for i in word]
    prefix = [tables.identity]
    for g in letters:
        prefix.append(tables.right[g][prefix[-1]])
    out = set()
    for pos, g in enumerate(letters):
        if not tables.weyl.is_reduced(word[:pos] + word[pos + 1 :]):
            continue
        step = tables.right[g]
        for start in (prefix[pos], step[step[prefix[pos]]]):
            out.add(tables.walk(start, letters[pos + 1 :]))
    return out


def _covers(tables: GroupTables) -> tuple[tuple[int, ...], ...]:
    """Indices of the elements covered by each element, ascending.  The drops
    of u = lift(pi(u)) c are the drops of the lift times c, so each Weyl
    element's lift is dropped once."""
    if tables.covers is None:
        require_cover_memory(len(tables.pi), len(tables.preset.root_datum.positive_roots))
        lifted = [_drop_covers(tables, w) for w in range(len(tables.weyl))]
        tables.covers = tuple(
            tuple(sorted(map(tables.c_right[c].__getitem__, lifted[w])))
            for w, c in zip(tables.pi, tables.c_part)
        )
    return tables.covers


def _grid(tables: GroupTables, word: Sequence[int], top: int) -> set[int]:
    """Indices of every s_1^{k_1} ... s_d^{k_d} with k in {0..top}^d, for
    the 1-based letters of `word`: one pass along the generator tables per
    letter and exponent."""
    grid = {tables.identity}
    for letter in word:
        step = tables.right[letter - 1]
        power = grid
        for _ in range(top):
            power = {step[x] for x in power}
            grid |= power
    return grid


def _mask(positions: Iterable[int], width: int) -> int:
    """The bitset of `positions` (all below `width`): one digit string,
    converted once, where setting bit by bit costs the whole int per bit."""
    digits = bytearray(b"0" * width)  # most significant first
    top = width - 1
    for p in positions:
        digits[top - p] = 49  # "1"
    return int(digits, 2)


def _down_closure(tables: GroupTables, place: Sequence[int]) -> list[int]:
    """The down-set of every element as a bitset with u_j at bit place[j]:
    the union of its covers' down-sets, by increasing length."""
    down = [0] * len(place)
    covers = _covers(tables)
    lengths = [tables.weyl.length[w] for w in tables.pi]
    for k in sorted(range(len(place)), key=lengths.__getitem__):
        down[k] = reduce(or_, map(down.__getitem__, covers[k]), 1 << place[k])
    return down


class DownSets(NamedTuple):
    """The down-set of every element of U in the C-slot layout: u_k sits at
    bit place[k] = pi(k) * |C| + (position of c_part(k) in C), and masks[k]
    holds the elements at or below u_k; members[p] is the element at bit p."""

    place: tuple[int, ...]
    members: tuple[UElement, ...]
    masks: tuple[int, ...]


def _down_masks(tables: GroupTables) -> DownSets:
    """Down-set of every element, by both routes, cross-checked.

    The covers' closure is laid out in C-slot blocks, one block of |C| bits
    per Weyl element.  Write u = lift(pi(u)) c with c = c_part(u): the grid
    of u is the grid of the lift translated by c on the right.  C is
    abelian, so that translation moves every element of one slot to one
    other slot in every block: the lift's grid is built once per Weyl
    element and each translate is |C| shift-and-mask operations.  Every
    element's grid translate must equal its closure row."""
    if tables.down is None:
        require_order_memory(len(tables.pi))
        c_ids = sorted(tables.c_tokens)  # C in index order: slot s holds c_ids[s]
        slot = {c: s for s, c in enumerate(c_ids)}
        width, blocks = len(c_ids), len(tables.weyl)
        place = [w * width + slot[c] for w, c in zip(tables.pi, tables.c_part)]
        down = _down_closure(tables, place)
        column = int(("0" * (width - 1) + "1") * blocks, 2)  # slot 0 of every block
        moves = []  # per c: (shift, the slots that move by it) of the translation by c
        for c in c_ids:
            by_shift: dict[int, int] = {}
            for s, a in enumerate(c_ids):
                d = slot[tables.c_right[c][a]] - s
                by_shift[d] = by_shift.get(d, 0) | column << s
            moves.append((tables.c_right[c], tuple(by_shift.items())))
        lifts = [0] * blocks
        for k, c in enumerate(tables.c_part):
            if c == tables.identity:
                lifts[tables.pi[k]] = k
        for w, lift in enumerate(lifts):
            grid = _mask(map(place.__getitem__, _grid(tables, tables.weyl.word[w], 2)), len(place))
            for c_right, shifts in moves:
                via_grid = 0
                for d, lanes in shifts:
                    via_grid |= (grid & lanes) << d if d >= 0 else (grid & lanes) >> -d
                k = c_right[lift]
                if via_grid != down[k]:
                    raise InvariantViolation(
                        f"down-set routes disagree for {tables.word(k)}: "
                        f"covers give {down[k].bit_count()} elements, "
                        f"the subword grid gives {via_grid.bit_count()}"
                    )
        members: list = [None] * len(place)
        for k, p in enumerate(place):
            members[p] = tables.U.elements[k]
        tables.down = DownSets(tuple(place), tuple(members), tuple(down))
    return tables.down


# no command calls it; kept because benchmarks/tracer.py wraps it
def down_covers(u: UElement) -> frozenset[UElement]:
    """Elements covered by u: one drop position at a time, the dropped
    letter replaced by 1 or by its square (the two coincide when the
    squared generator is trivial)."""
    tables = compile_group(u.preset)
    elements = tables.U.elements
    return frozenset(elements[v] for v in _covers(tables)[tables.position(u)])


# no command calls it; kept because benchmarks/tracer.py wraps it
def down_set_from_word(u: UElement, word: Sequence[int]) -> frozenset[UElement]:
    """Grid route for any reduced expression of pi(u): every
    s_1^{k_1} ... s_d^{k_d} c with k in {0,1,2}^d, where u = s_1 ... s_d c.
    Includes u itself."""
    tables = compile_group(u.preset)
    word = tuple(word)
    if any(not 1 <= i <= u.preset.rank for i in word):
        raise IndexError(f"{word} has a letter outside 1..{u.preset.rank}")
    if not tables.weyl.is_reduced(word):
        raise ValueError(f"{word} is not a reduced expression")
    lift = tables.walk(tables.identity, [i - 1 for i in word])
    c = tables.mul(tables.inverse[lift], tables.position(u))
    if tables.pi[c] != tables.weyl.identity:
        raise ValueError("word does not project to pi(u)")
    c_right = tables.c_right[c]
    elements = tables.U.elements
    return frozenset(elements[c_right[x]] for x in _grid(tables, word, 2))


def down_set(u: UElement) -> frozenset[UElement]:
    """{u' : u' <= u}, computed by both routes and cross-checked."""
    tables = compile_group(u.preset)
    down = _down_masks(tables)
    return frozenset(_select(down.members, down.masks[tables.position(u)]))


def extended_leq(u_lo: UElement, u_hi: UElement) -> bool:
    """The extended Bruhat order (reflexive)."""
    if u_lo.preset is not u_hi.preset:
        raise ValueError("elements come from different presets")
    tables = compile_group(u_hi.preset)
    down = _down_masks(tables)
    return bool(down.masks[tables.position(u_hi)] >> down.place[tables.position(u_lo)] & 1)


# -- Hasse diagrams -----------------------------------------------------------


class Poset:
    """The Hasse diagram of a finite poset: its elements and its covering
    pairs (lower index, upper index).  `hasse` builds the extended order's
    diagram from the cover table; queries on that order go through
    `extended_leq`."""

    def __init__(self, elements: Sequence, covers: Iterable[tuple[int, int]]):
        self.elements = tuple(elements)
        self.covers = frozenset(covers)
        n = len(self.elements)
        for lo, hi in self.covers:
            if not (0 <= lo < n and 0 <= hi < n) or lo == hi:
                raise ValueError(f"bad cover pair ({lo}, {hi})")

    def __len__(self) -> int:
        return len(self.elements)


def hasse(group: FiniteGroupTable) -> Poset:
    """Hasse diagram of the extended Bruhat order on an enumerated group:
    the cover table itself, elements sorted by (projection length, display
    tokens), the order the CLI writes.

    Every drop cover must join consecutive lengths, since the order
    projects onto the Bruhat order, which is graded by length; a cover
    that does not raises.  A graded cover set is acyclic and transitively
    reduced (a path of two or more covers spans two or more lengths), so
    it is its own Hasse diagram and no closure is built."""
    tables = compile_group(group.preset)
    ids = sorted((tables.position(u) for u in group.elements), key=tables.display_key)
    pos = {k: n for n, k in enumerate(ids)}
    covers = _covers(tables)
    elements = tables.U.elements
    edges = []
    for k in ids:
        top = tables.length(k)
        for v in covers[k]:
            if tables.length(v) != top - 1:
                raise InvariantViolation(
                    f"cover {display_word(elements[k])} -> {display_word(elements[v])} "
                    f"joins lengths {top} and {tables.length(v)}, which are not consecutive"
                )
            edges.append((pos[v], pos[k]))
    return Poset([elements[k] for k in ids], edges)


# -- quotient orders ----------------------------------------------------------


@dataclass(frozen=True)
class QuotientPoset:
    """Partial order on right cosets.

    `below[j]` and `cover_rows[j]` are the bitsets of the classes at or below
    class j and of those it covers; `class_of[k]` is the class of element k
    of U (-1 outside the partitioned group).  `kind` names the rule: "morse"
    (Morse components) or "control-forward" (control sets).
    """

    kind: str
    cosets: tuple[Coset, ...]
    below: tuple[int, ...]
    cover_rows: tuple[int, ...]
    class_of: tuple[int, ...]

    @property
    def relation(self) -> frozenset[tuple[int, int]]:
        """The strict pairs (lower index, upper index) of the order."""
        return frozenset(
            (i, j) for j, row in enumerate(self.below) for i in _bits(row ^ (1 << j))
        )

    def leq(self, i: int, j: int) -> bool:
        return bool(self.below[j] >> i & 1)

    def covers(self) -> frozenset[tuple[int, int]]:
        return frozenset((i, j) for j, row in enumerate(self.cover_rows) for i in _bits(row))

    def index_of(self, u: UElement) -> int:
        k = self.class_of[compile_group(u.preset).position(u)]
        if k < 0:
            raise KeyError(f"{u.matrix} lies in no coset")
        return k


def _verify_partial_order(below: Sequence[int], what: str) -> list[int]:
    """Check that rows `below[j]` (the elements at or below j) form a partial
    order and return its cover rows, from one union per row.  Every row
    must hold j, no two rows may be equal, and the union of the strict rows
    of the elements strictly below j must lie in row j.  For i strictly
    below j, row i is i joined with its strict row, so row i lies in row j:
    that is transitivity, and with distinct rows it gives antisymmetry.
    Row j covers the elements of its strict row outside that union."""
    first: dict[int, int] = {}  # the first index holding each row
    for j, row in enumerate(below):
        if not row >> j & 1:
            raise InvariantViolation(f"{what} relation fails reflexivity on {j}")
        i = first.setdefault(row, j)
        if i != j:
            raise InvariantViolation(f"{what} relation fails antisymmetry on ({i}, {j})")
    strict = [row ^ (1 << j) for j, row in enumerate(below)]
    cover_rows = []
    for j, lows in enumerate(strict):
        implied = reduce(or_, _select(strict, lows), 0)
        outside = implied & ~below[j]
        if outside:
            k = next(_bits(outside))
            i = next(i for i in _bits(lows) if strict[i] >> k & 1)
            raise InvariantViolation(
                f"{what} relation fails transitivity on ({k}, {i}): "
                f"({i}, {j}) holds but ({k}, {j}) does not"
            )
        cover_rows.append(lows & ~implied)
    return cover_rows


def _fold(mask: int, width: int, op) -> int:
    """Bit i of the result is `op` (and_ or or_) over bits i .. i + width - 1
    of mask, by doubling the window: about log2(width) big-int operations."""
    span = 1
    while 2 * span <= width:
        mask = op(mask, mask >> span)
        span *= 2
    if span < width:
        mask = op(mask, mask >> (width - span))
    return mask


def _compress(mask: int, width: int, span: int) -> int:
    """Bits 0, width, 2 * width, ... below `span` of mask, made consecutive:
    every width-th binary digit, read from the low end."""
    return int(bin(mask)[:1:-1][:span:width][::-1], 2)


def _quotient(group: FiniteGroupTable, subgroup: FiniteGroupTable, kind: str) -> QuotientPoset:
    """The cosets of `subgroup` with one row per class, built by the `kind`
    rule and verified to be a partial order.

    The rows come from the quotient's own closure of the covers in the class
    layout: member s of class i sits at bit i * |H| + s, so class i is the
    |H|-bit block at i * |H| (elements of U outside `group` come after every
    block).  Class i lies below class j under the Morse rule when block i of
    the union of j's members' down-sets is full, and under the control rule
    when block i of every member's down-set is not empty: a block fold of
    one big int per row, compressed to one bit per class."""
    tables = compile_group(group.preset)
    require_order_memory(len(tables.pi))
    classes = cosets(group, subgroup)
    _down_masks(tables)  # the order's two routes agree before any row is built
    width = len(subgroup)
    span = len(classes) * width
    place = [-1] * len(tables.pi)
    for i, c in enumerate(classes):
        for s, k in enumerate(c.ids, start=i * width):
            place[k] = s
    outside = [k for k, p in enumerate(place) if p < 0]
    for p, k in enumerate(outside, start=span):
        place[k] = p
    down = _down_closure(tables, place)
    below = []
    for c in classes:
        if kind == "morse":
            folded = _fold(reduce(or_, map(down.__getitem__, c.ids)), width, and_)
        else:
            folded = reduce(and_, (_fold(down[k], width, or_) for k in c.ids))
        below.append(_compress(folded, width, span))
    cover_rows = _verify_partial_order(below, kind)
    class_of = tuple(p // width if p < span else -1 for p in place)  # -1: outside `group`
    return QuotientPoset(kind, tuple(classes), tuple(below), tuple(cover_rows), class_of)


def morse_quotient_order(group: FiniteGroupTable, U_H: FiniteGroupTable) -> QuotientPoset:
    """Order on U_H \\ U indexing minimal Morse components: class(u) below
    class(v) iff every member of class(u) sits below some member of
    class(v).  This is the Schubert-inclusion direction; the dynamical
    order of the Morse components themselves is its inverse."""
    return _quotient(group, U_H, "morse")


def control_quotient_order(group: FiniteGroupTable, U_S: FiniteGroupTable) -> QuotientPoset:
    """Order on U(S) \\ U indexing control sets: class(u) below class(v) iff
    every member of class(v) sits above some member of class(u)."""
    return _quotient(group, U_S, "control-forward")


def _require_control(quotient: QuotientPoset, what: str) -> None:
    if quotient.kind != "control-forward":
        raise ValueError(f"{what} require a control-forward quotient")


def control_forward_pairs(quotient: QuotientPoset) -> list[tuple[int, int]]:
    """Control-set order facts implied by the coset order, direction
    reversed: a pair (src, dst) of class indices asserts that the control
    set of class src strictly precedes that of class dst.  The classes are
    in representative-key order, so sorting the indices sorts the
    representatives."""
    _require_control(quotient, "forward edges")
    return sorted((hi, lo) for lo, hi in quotient.covers())


# -- the partial converse test -------------------------------------------------


def _reduced_lift_of_class(
    tables: GroupTables, coset: Coset
) -> tuple[UElement, tuple[int, ...]]:
    """Some member of the coset that is a plain product of generators along a
    reduced word (no trailing C part), together with that word: the first
    member by key, and its first word in `WeylTable.reduced_words` order."""
    for k in coset.ids:
        for word in tables.weyl.reduced_words(tables.pi[k]):
            if tables.walk(tables.identity, [i - 1 for i in word]) == k:
                return tables.U.elements[k], word
    raise ReducedLiftUnavailable(
        "no member of the class is a generator product with reduced projection"
    )


def _grid_candidates(u_class: Coset, v_class: Coset) -> frozenset[UElement]:
    """Necessary-condition candidates for the hypothesis that the control
    set of `v_class` precedes that of `u_class`: the members of `u_class`
    on the grid of every s_1^{k_1} ... s_d^{k_d}, k_i in {0, 1, 2, 3}, of
    a reduced generator product s_1 ... s_d in `v_class`.  An empty result
    refutes the hypothesis; a nonempty one decides nothing."""
    tables = compile_group(v_class.representative.preset)
    _, word = _reduced_lift_of_class(tables, v_class)
    grid = _grid(tables, word, 3)
    return frozenset(tables.U.elements[k] for k in u_class.ids if k in grid)


@dataclass(frozen=True)
class PairVerdict:
    """Relation status of two control-set classes.

    status is one of "equal", "leq" (D of `a` precedes D of `b`), "geq",
    or "undetermined".  For undetermined pairs the two converse tests are
    reported: None means the test was inapplicable (no reduced lift),
    an empty set means that direction is refuted, a nonempty set lists the
    surviving candidates.
    """

    status: str
    a_before_b_candidates: frozenset[UElement] | None = None
    b_before_a_candidates: frozenset[UElement] | None = None


def pair_status(quotient: QuotientPoset, a: UElement, b: UElement) -> PairVerdict:
    """Decide what the machinery can about the control sets of the classes
    of a and b in a control quotient: coset-order comparability settles
    the question (in reversed direction); otherwise both converse tests
    are run on the quotient's classes and reported."""
    _require_control(quotient, "pair verdicts")
    i, j = quotient.index_of(a), quotient.index_of(b)
    if i == j:
        return PairVerdict(status="equal")
    if quotient.leq(i, j):
        # class(a) below class(b) in the coset order reverses for control sets
        return PairVerdict(status="geq")
    if quotient.leq(j, i):
        return PairVerdict(status="leq")

    def run(u: int, v: int) -> frozenset[UElement] | None:
        try:
            return _grid_candidates(quotient.cosets[u], quotient.cosets[v])
        except ReducedLiftUnavailable:
            return None

    return PairVerdict(
        status="undetermined",
        a_before_b_candidates=run(j, i),
        b_before_a_candidates=run(i, j),
    )
