"""The extended Weyl group U = M*/M0 as an exact integer matrix group.

A preset packages the generators s_i (one per simple root), the extra C
generators (none for the built-in groups), the restricted root datum, and a
basis of the Cartan subspace realized as matrices.  Loading validates that
data with exact arithmetic, including pi(s_i) = r_i and pi(c_j) = 1 for the
projection pi onto the Weyl group, read off by conjugating the Cartan basis.

The first query then compiles the group once into `GroupTables`: the
closure of the generators (`rootsys.closure`, the one breadth-first loop
that also enumerates the Weyl group) numbers the elements of U and records
right multiplication by every generator as it finds each product.  Row i
of u * g is (row i of u) * g, so the closure first closes the orbit of the
n unit rows under the generators, sorts it, and then keys each element by
its code, the orbit indices of its rows: a product with a generator is n
lookups, for every group, whatever its generators.  Everything else is read
off those integer tables by lookups: inverses (u^-1 walks the reversed
word of u on the inverted generator rows, one lookup per letter), pi
(propagated along the generator edges into the root datum's `WeylTable`
of permutations), canonical reduced lifts u = s_1 ... s_d c, their
display words, and right-coset partitions.
Every subgroup of U (C, U_H and U(S)) is closed by the same loop on U's
table, with one step k -> mul(k, g) per generator index g, and held as its
sorted U indices.

U is an extension of W by the abelian C, so the tables index each element
u = lift(pi(u)) c by that pair.  Compiling is bounded by the closure bound,
and `load_preset` refuses by name an sl<n> whose n! * 2^(n-1) elements
exceed it; the order commands and the Schubert report apply `xorder`'s
caps from the exact |U| = |W| * |C| (`GroupPreset.predicted_size`,
computed once) before U is closed.

The orbit is sorted, so a code compares as its matrix does and U's
indices, in code order, are in matrix key order.  A `UElement` (equal and
hashed by its exact matrix) is built from its code only when an edge asks
(`GroupTables.element`); `GroupTables.position` bisects the sorted codes.
"""

from __future__ import annotations

import gc
import json
import math
import re
from bisect import bisect_left
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Sequence

from .errors import ClosureBoundExceeded, Frozen, InvariantViolation, PresetError
from .exact import (
    IntMatrix,
    as_int_matrix,
    determinant,
    identity_matrix,
    mat_inverse,
    mat_mul,
    mat_pow,
    solve_many,
)
from .rootsys import (
    DEFAULT_CLOSURE_BOUND,
    RootDatum,
    WeylElement,
    closure,
    length,
    make_weyl_element,
    simple_reflection,
    weyl_table,
)

class GroupPreset(Frozen):
    """Full algebraic datum of one concrete group: n x n `IntMatrix` tuples
    `generators`, `c_generators` and `a_basis`, a `RootDatum`, and a
    display `label` ("" by default).

    Instances compare by identity; `load_preset` caches them so each named
    preset is a singleton.  The compiled group `_tables` (read through
    `compile_group`) and `predicted_size` are computed once each on first
    use; nothing else about a preset changes.
    """

    _fields = ("name", "n", "generators", "c_generators", "root_datum", "a_basis", "label")
    _defaults = {"label": ""}

    @property
    def rank(self) -> int:
        return self.root_datum.rank

    @cached_property
    def predicted_size(self) -> int:
        """|U| = |W| * |C|, before U is closed and once per preset: |W| from
        the root datum's Weyl table, |C| from the closure of the s_i^2 and
        c_j.  Exact for every preset that compiles, since compiling checks
        |U| = |W| * |C|."""
        c_gens = [mat_mul(s, s) for s in self.generators] + list(self.c_generators)
        return len(weyl_table(self.root_datum)) * closed_size(self.n, c_gens)

    @cached_property
    def _tables(self) -> "GroupTables":
        return GroupTables(self)

    def identity(self) -> "UElement":
        return UElement(identity_matrix(self.n), self)

    def generator(self, i: int) -> "UElement":
        if not 1 <= i <= len(self.generators):
            raise IndexError(f"generator index {i} out of range 1..{len(self.generators)}")
        return UElement(self.generators[i - 1], self)


class UElement(Frozen):
    """Element of U, keyed by its exact matrix: equal when the matrices are.
    The hash is the matrix's, `hash((matrix,))`, computed once on creation,
    so sets and dicts never hash the matrix again."""

    __slots__ = ("matrix", "preset", "_hash")

    def __init__(self, matrix: IntMatrix, preset: GroupPreset):
        super().__init__(matrix, preset, hash((matrix,)))

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.matrix == other.matrix

    def __hash__(self) -> int:
        return self._hash

    def __mul__(self, other: "UElement") -> "UElement":
        if self.preset is not other.preset:
            raise ValueError("cannot multiply elements of different presets")
        return UElement(mat_mul(self.matrix, other.matrix), self.preset)

    def __pow__(self, k: int) -> "UElement":
        return UElement(mat_pow(self.matrix, k), self.preset)

    def inverse(self) -> "UElement":
        return UElement(mat_inverse(self.matrix), self.preset)

    def is_identity(self) -> bool:
        return self.matrix == identity_matrix(self.preset.n)


class FiniteGroupTable:
    """A subgroup of U (or U itself) as its sorted U indices `ids`, so
    sorting indices sorts by matrix key.  Iterating it yields its elements,
    each built on first use (`GroupTables.element`)."""

    def __init__(self, tables: "GroupTables", ids: Sequence[int]):
        self.tables = tables
        self.preset = tables.preset
        self.ids = ids

    def __len__(self) -> int:
        return len(self.ids)

    def __iter__(self):
        return map(self.tables.element, self.ids)


def _closure(
    identity: IntMatrix, generators: Sequence[IntMatrix], bound: int
) -> tuple[list[tuple[int, ...]], list[tuple[int, ...]], list[list[int]], list[tuple[int, ...]]]:
    """Breadth-first closure of generator matrices inside GL(n, Z), by
    `rootsys.closure`, for U itself and `predicted_size`: the sorted orbit
    rows, each element's code in discovery order (identity first), the
    table right[g][k] = index of element k * generators[g], and the word
    each element was first reached by (a shortest one).  More than `bound`
    elements raise.

    Row i of a * g is (row i of a) * g, so the rows are closed first: the
    orbit of the n unit rows under v -> v * g gives each generator as a
    permutation of the orbit.  The rows of an element are the images of
    the unit rows, so the orbit is finite exactly when the group is, and it
    has at most n * |U| rows: it is cut at n * bound.  U is then closed on
    codes, the tuples of (sorted) orbit indices of an element's rows, where
    a product with a generator is n lookups in its permutation.  Discovery
    order depends only on which keys are equal, so the table and words are
    those of a closure on matrix products.
    """
    n = len(identity)
    columns = [tuple(zip(*gen)) for gen in generators]
    row_steps = [
        lambda v, cols=cols: tuple([sum(x * y for x, y in zip(v, col)) for col in cols])
        for cols in columns
    ]
    found, perms, _ = closure(identity, row_steps, n * bound)
    order = sorted(range(len(found)), key=found.__getitem__)
    new = [0] * len(found)
    for pos, old in enumerate(order):
        new[old] = pos
    steps = [
        lambda code, perm=[new[perm[old]] for old in order]: tuple([perm[i] for i in code])
        for perm in perms
    ]
    codes, right, words = closure([tuple(new[:n])], steps, bound)
    return [found[old] for old in order], codes, right, words


def closed_size(n: int, generators: Sequence[IntMatrix]) -> int:
    """The order of the group the n x n matrices `generators` generate,
    closed on matrices (`_closure`) without compiling U."""
    return len(_closure(identity_matrix(n), generators, DEFAULT_CLOSURE_BOUND)[1])


# -- presets ------------------------------------------------------------------


def _rotation_block(n: int, p: int) -> IntMatrix:
    """Identity with the 2x2 block [[0,-1],[1,0]] at rows/cols (p, p+1), 1-based."""
    rows = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    i = p - 1
    rows[i][i] = 0
    rows[i][i + 1] = -1
    rows[i + 1][i] = 1
    rows[i + 1][i + 1] = 0
    return as_int_matrix(rows)


def _diag_unit(n: int, p: int) -> IntMatrix:
    rows = [[0] * n for _ in range(n)]
    rows[p - 1][p - 1] = 1
    return as_int_matrix(rows)


def _sl_preset(n: int, block_positions: Sequence[int], name: str, label: str) -> GroupPreset:
    """SL(n, R): a-coordinates are the n diagonal entries; generator i is the
    quarter-turn block at diagonal position block_positions[i-1]."""
    simples = []
    for p in block_positions:
        root = [0] * n
        root[p - 1] = 1
        root[p] = -1
        simples.append(root)
    positives = []
    for i in range(n):
        for j in range(i + 1, n):
            root = [0] * n
            root[i] = 1
            root[j] = -1
            positives.append(root)
    datum = RootDatum.create(simples, positives, multiplicities=(1,) * (n - 1))
    return GroupPreset(
        name=name,
        n=n,
        generators=tuple(_rotation_block(n, p) for p in block_positions),
        c_generators=(),
        root_datum=datum,
        a_basis=tuple(_diag_unit(n, p) for p in range(1, n + 1)),
        label=label,
    )


def _so24_preset() -> GroupPreset:
    k1 = ((0, 1), (-1, 0))
    k2 = ((1, 0), (0, -1))
    eye2 = ((1, 0), (0, 1))

    def block_diag(b1, b2, b3):
        rows = [[0] * 6 for _ in range(6)]
        for off, blk in ((0, b1), (2, b2), (4, b3)):
            for r in range(2):
                for c in range(2):
                    rows[off + r][off + c] = blk[r][c]
        return as_int_matrix(rows)

    s1 = block_diag(k1, k1, eye2)
    s2 = block_diag(eye2, k2, k2)
    h1 = [[0] * 6 for _ in range(6)]
    h1[0][2] = h1[2][0] = 1
    h2 = [[0] * 6 for _ in range(6)]
    h2[1][3] = h2[3][1] = 1
    # simple roots lambda_1 - lambda_2 and lambda_2 on coordinates (a1, a2);
    # lambda_2 carries the multiplicity-2 rank-one sphere, so s2^2 = 1.
    datum = RootDatum.create(
        simple_roots=[(1, -1), (0, 1)],
        positive_roots=[(1, -1), (0, 1), (1, 0), (1, 1)],
        multiplicities=(1, 2),
    )
    return GroupPreset(
        name="so24",
        n=6,
        generators=(s1, s2),
        c_generators=(),
        root_datum=datum,
        a_basis=(as_int_matrix(h1), as_int_matrix(h2)),
        label="SO(2,4)_0",
    )


_SL_NAME = re.compile(r"sl(?:(\d+)|\((\d+)\))$")
_PRESETS: dict[str, GroupPreset] = {}


def load_preset(name: str) -> GroupPreset:
    """Load and validate a built-in preset, once per group.

    Accepted names: "so24", and "sl<n>" spelled in any case, padded, or as
    "sl(<n>)".  The name is read once into its key, "so24" or "sl<n>",
    which names the preset and keys the cache, so every spelling of a group
    gives one object.  "sl3" has the special labeling (s1 acting in
    coordinates (2,3) and s2 in (1,2), so emitted diagrams match the usual
    SO(3) conventions); every other sl<n> has the generic one, s_i at
    (i, i+1).  By name alone this refuses unknown names, n < 2, and an
    sl<n> whose |U| = n! * 2^(n-1) exceeds the closure bound; every other
    size check runs on the loaded group (`predicted_size`).
    """
    key = name.strip().lower()
    if key != "so24":
        m = _SL_NAME.match(key)
        if not m:
            raise PresetError(f"unknown preset {name!r}; expected sl<n>, sl(<n>) or so24")
        n = int(m.group(1) or m.group(2))
        if n < 2:
            raise PresetError("sl(n) requires n >= 2")
        # past n = 1000 the bound is certainly exceeded, and n! is not worth computing
        predicted = math.factorial(n) << (n - 1) if n <= 1000 else None
        if predicted is None or predicted > DEFAULT_CLOSURE_BOUND:
            size = f"{n}!*2^{n - 1}" + ("" if predicted is None else f" = {predicted}")
            raise ClosureBoundExceeded(
                f"sl{n} would have |U| = {size} elements, "
                f"above the closure bound {DEFAULT_CLOSURE_BOUND}"
            )
        key = f"sl{n}"
    preset = _PRESETS.get(key)
    if preset is None:
        if key == "so24":
            preset = _so24_preset()
        elif key == "sl3":
            preset = _sl_preset(3, (2, 1), "sl3", "SL(3,R)")
        else:
            preset = _sl_preset(n, tuple(range(1, n)), key, f"SL({n},R)")
        validate_preset(preset)
        preset = _PRESETS.setdefault(key, preset)
    return preset


def load_config(source) -> GroupPreset:
    """Build a custom group from a JSON config (a path, or the parsed dict).

    Schema: {"n": int, "generators": [[..int..]], "c_generators": [[..]],
    "simple_roots": [[rational]], "a_basis": [[..int..]],
    "multiplicities": [int]}, with rationals written either as integers or
    as {"num": p, "den": q}.  Positive roots are derived by reflection
    closure of the simple roots.  A file that cannot be read, or holds no
    JSON, raises a `PresetError` naming its path; a bool, float or string
    where an integer belongs raises one naming its field.
    """
    if isinstance(source, dict):
        cfg = source
    else:
        try:
            with open(source, "r", encoding="utf-8") as fh:
                cfg = json.load(fh)
        except OSError as exc:
            raise PresetError(f"cannot read group config {source}: {exc.strerror}") from exc
        except ValueError as exc:
            raise PresetError(f"group config {source} is not valid JSON: {exc}") from exc

    def integer(x, field: str) -> int:
        # bool is an int subclass, and int() would truncate a float or read a string
        if isinstance(x, bool) or not isinstance(x, int):
            raise ValueError(f"{field} must be an integer, got {x!r}")
        return x

    def rational(x) -> Fraction:
        if isinstance(x, dict):
            num, den = x["num"], x["den"]
            return Fraction(integer(num, "simple_roots num"), integer(den, "simple_roots den"))
        return Fraction(integer(x, "simple_roots entry"))

    def matrices(field: str, items) -> tuple[IntMatrix, ...]:
        try:
            return tuple(as_int_matrix(m) for m in items)
        except ValueError as exc:
            raise ValueError(f"{field}: {exc}") from None

    try:
        n = integer(cfg["n"], "n")
        gens = matrices("generators", cfg["generators"])
        c_gens = matrices("c_generators", cfg.get("c_generators", []))
        simples = [tuple(rational(x) for x in root) for root in cfg["simple_roots"]]
        a_basis = matrices("a_basis", cfg["a_basis"])
        mults = cfg.get("multiplicities", [1] * len(simples))
        mults = tuple(integer(m, "multiplicities entry") for m in mults)
    except (KeyError, ValueError, TypeError, ZeroDivisionError) as exc:
        raise PresetError(f"malformed group config: {exc}") from exc
    try:
        datum = RootDatum.create(simples, multiplicities=mults)
    except ValueError as exc:
        raise PresetError(f"invalid root data: {exc}") from exc
    preset = GroupPreset(
        name=str(cfg.get("name", "custom")),
        n=n,
        generators=gens,
        c_generators=c_gens,
        root_datum=datum,
        a_basis=a_basis,
        label=str(cfg.get("name", "custom")),
    )
    validate_preset(preset)
    return preset


def validate_preset(preset: GroupPreset) -> None:
    """Check every load-time invariant, naming the first violation."""
    n = preset.n
    datum = preset.root_datum
    if len(preset.generators) != datum.rank:
        raise PresetError(
            f"need one generator per simple root: {len(preset.generators)} != {datum.rank}"
        )
    for mat in preset.generators + preset.c_generators:
        if len(mat) != n:
            raise PresetError(f"matrix dimension {len(mat)} != n = {n}")
        if determinant(mat) != 1:
            raise PresetError(f"generator {mat} must have determinant +1")
    if len(preset.a_basis) == 0:
        raise PresetError("a_basis must not be empty")
    for j, h in enumerate(preset.a_basis, start=1):
        if len(h) != n or any(len(row) != n for row in h):
            shape = f"{len(h)}x{len(h[0]) if h else 0}"
            raise PresetError(f"a_basis matrix {j} is {shape}, not n x n = {n}x{n}")
    if len(preset.a_basis) != datum.dim:
        raise PresetError(
            f"a_basis has {len(preset.a_basis)} matrices, but the simple roots "
            f"have {datum.dim} coordinates"
        )
    for i in range(1, datum.rank + 1):
        s = preset.generator(i)
        if not (s * s * s * s).is_identity():
            raise PresetError(f"s{i}^4 != identity")
        if datum.multiplicities[i - 1] > 1 and not (s * s).is_identity():
            raise PresetError(
                f"s{i}^2 != identity although multiplicity m_{i} > 1"
            )
        w = project_by_conjugation(s)  # raises PresetError if s does not normalize a
        if w.matrix != simple_reflection(datum, i).matrix:
            raise PresetError(f"pi(s{i}) != r{i}")
        s_sq = (s * s).matrix
        for c in preset.c_generators:
            if mat_mul(s_sq, c) != mat_mul(c, s_sq):
                raise PresetError(f"s{i}^2 does not commute with a C generator")
    for j, mat in enumerate(preset.c_generators, start=1):
        if not project_by_conjugation(UElement(mat, preset)).is_identity():
            raise PresetError(f"pi(c{j}) != 1")
    for a in preset.c_generators:
        for b in preset.c_generators:
            if mat_mul(a, b) != mat_mul(b, a):
                raise PresetError("C generators do not commute")


# -- the group U, its subgroups, and the projection onto W --------------------


class GroupTables:
    """U compiled into integer tables; `compile_group` builds one per preset.

    The elements of U are the indices 0..|U|-1, in the order of their
    codes `codes[k]`, the indices of u_k's rows in the sorted orbit `rows`
    (`_closure`), so sorting indices sorts by matrix key.  The compile builds
    no matrix or `UElement`: `matrix(k)` and `element(k)` (memoized) build
    them from the code, and `position(u)` is the one way back to an index.
    Generators are numbered 0..r+m-1: s_1 .. s_r, then c_1 .. c_m.

    * `right[g][k]`: the index of u_k * (generator g), recorded by the closure,
    * `words[k]`: a shortest generator word of u_k, so `mul(a, b)` is a walk
      along `right`,
    * `inverse[k]`: for u_k = g_1 ... g_d (its word), u_k^-1 = g_d^-1 ...
      g_1^-1, walked from the identity on the inverse permutations of the
      `right` rows: d lookups, with no generator orders,
    * `pi[k]`, an index into `weyl`, the root datum's own `WeylTable`
      (`rootsys.weyl_table`), so the group and the public Weyl functions
      share one table,
    * `c_ids[s]`: the index of the element of C in slot s; slots follow
      index order,
    * `slot[k]`: the slot of the C factor c of the canonical decomposition
      u_k = s_1 ... s_d c, where s_1 ... s_d lifts the word `weyl.word[pi[k]]`,
    * `at[w][s]`: the index of lift(w) c_s, the inverse of k -> (pi[k], slot[k]),
    * `c_mul[s][t]`: C's own table, the slot of c_s c_t, so right
      multiplication by c_t is `at[pi[k]][c_mul[slot[k]][t]]` (`times_c`),
    * `s_tokens[w]`, `c_tokens[s]`: display spellings of canonical words and
      of C elements; `word(k)` joins u_k's once, on first use.

    Construction checks, on lookups and exhaustively: pi is well defined on
    every generator edge, C lies in the kernel of pi, |U| = |W| * |C|, C is
    abelian, C is normal in U, and every canonical C part lies in C.
    Normality is checked on the generators: g C g^-1 lies in C for each
    of the r + m generators g.  That is the same check as u C u^-1 in C for
    every u, at (r + m) * |C| walks instead of |U| * |C|: conjugation by g
    is injective, so it maps the finite C onto itself, and every u is a
    positive word in the generators.  The tables never change afterwards; the
    extended order, computed by `xorder` on first use, is published once
    each into `covers` and `down`.
    """

    def __init__(self, preset: GroupPreset):
        rank = preset.rank
        self.preset = preset
        self.weyl = weyl = weyl_table(preset.root_datum)
        generators = preset.generators + preset.c_generators
        rows, codes, right, words = _closure(
            identity_matrix(preset.n), generators, DEFAULT_CLOSURE_BOUND
        )
        pi: list[int | None] = [None] * len(codes)
        pi[0] = weyl.identity
        for k in range(len(codes)):  # discovery order: each element after its parent
            for g, row in enumerate(right):
                w = weyl.right[g][pi[k]] if g < rank else pi[k]
                if pi[row[k]] is None:
                    pi[row[k]] = w
                elif pi[row[k]] != w:
                    raise InvariantViolation("pi is not well defined on the generator edges")
        order = sorted(range(len(codes)), key=codes.__getitem__)
        ids = list(range(len(codes)))  # one int per index, shared by every table
        new = [0] * len(codes)
        for pos, old in zip(ids, order):
            new[old] = pos
        self.rows = tuple(rows)
        self._row_index = {row: i for i, row in enumerate(rows)}
        self.codes = tuple([codes[old] for old in order])
        self.right = tuple(tuple([new[row[old]] for old in order]) for row in right)
        self.words = tuple([words[old] for old in order])
        self.pi = tuple([pi[old] for old in order])
        self.identity = e = new[0]
        del codes, right, words, pi, order, new  # freed before the inverse rows are built

        # u^-1 = g_d^-1 ... g_1^-1 for u = g_1 ... g_d: the reversed word,
        # walked on the inverse permutations of the `right` rows
        back = []
        for row in self.right:
            inverted = [0] * len(row)
            for k, x in zip(ids, row):
                inverted[x] = k
            back.append(inverted)
        inverse = []
        for word in self.words:
            k = e
            for g in reversed(word):
                k = back[g][k]
            inverse.append(k)
        self.inverse = tuple(inverse)

        c_tokens = self._close_c()
        self.c_ids = c_ids = tuple(sorted(c_tokens))
        for c in c_ids:
            if self.pi[c] != weyl.identity:
                raise InvariantViolation(
                    f"C element {self._word_name(c)} has nontrivial Weyl projection"
                )
        if len(ids) != len(weyl) * len(c_ids):
            raise InvariantViolation(
                f"|U| = {len(ids)} != |W| * |C| = {len(weyl)} * {len(c_ids)}"
            )
        slot_of = {c: s for s, c in enumerate(c_ids)}
        self.c_mul = tuple(tuple(slot_of[self.mul(a, b)] for b in c_ids) for a in c_ids)
        for s, row in enumerate(self.c_mul):
            for t in range(s):
                if row[t] != self.c_mul[t][s]:
                    raise InvariantViolation(
                        f"C is not abelian: {self._word_name(c_ids[s])} and "
                        f"{self._word_name(c_ids[t])} do not commute"
                    )
        for row in self.right:
            g = row[e]
            back = self.words[self.inverse[g]]
            for c in c_ids:
                if self.walk(self.mul(g, c), back) not in slot_of:
                    raise InvariantViolation(
                        f"C is not normal in U: g c g^-1 escapes C for the generator "
                        f"g = {self._word_name(g)}, c = {self._word_name(c)}"
                    )
        lifts = [self.walk(e, [i - 1 for i in word]) for word in weyl.word]
        parts = [self.mul(self.inverse[lifts[w]], k) for k, w in enumerate(self.pi)]
        for k, c in enumerate(parts):
            if c not in slot_of:
                raise InvariantViolation(
                    f"canonical C part {self._word_name(c)} of {self._word_name(k)} "
                    "escapes C; preset data corrupted"
                )
        self.slot = tuple(map(slot_of.__getitem__, parts))
        at = [[0] * len(c_ids) for _ in range(len(weyl))]
        for k, (w, s) in enumerate(zip(self.pi, self.slot)):
            at[w][s] = k
        self.at = tuple(map(tuple, at))
        self.U = FiniteGroupTable(self, range(len(ids)))
        self.C = FiniteGroupTable(self, c_ids)
        self.c_tokens = tuple(map(c_tokens.__getitem__, c_ids))
        self.s_tokens = tuple(tuple(f"s{i}" for i in word) for word in weyl.word)
        self._words: list[str | None] = [None] * len(ids)
        self._elements: list[UElement | None] = [None] * len(ids)
        self.covers: tuple[tuple[int, ...], ...] | None = None
        self.down = None  # an `xorder.DownSets` once built

    def _close_c(self) -> dict[int, tuple[str, ...]]:
        """C as the closure of the s_i^2 and c_j on U's table: the shortest
        token spelling of each element (lexicographic tie-break).  A step
        equal to an earlier one (in the order s_1^2 .. s_r^2, c_1 .. c_m) is
        dropped and the rest are sorted by token, so first in, first out,
        each element keeps its least shortest spelling and equal steps keep
        the earlier generator's."""
        rank, e = self.preset.rank, self.identity
        steps: dict[int, str] = {}
        for i in range(rank):
            steps.setdefault(self.walk(e, (i, i)), f"s{i + 1}^2")
        for j in range(len(self.preset.c_generators)):
            steps.setdefault(self.right[rank + j][e], f"c{j + 1}")
        ids = sorted(steps, key=steps.__getitem__)
        keys, _, words = self.close(ids)
        return {key: tuple(steps[ids[s]] for s in word) for key, word in zip(keys, words)}

    def close(self, ids: Iterable[int]) -> tuple[list, list[list[int]], list[tuple[int, ...]]]:
        """`rootsys.closure` of the subgroup generated by the elements `ids`."""
        steps = [lambda k, g=g: self.mul(k, g) for g in ids]
        return closure([self.identity], steps, DEFAULT_CLOSURE_BOUND)

    def _word_name(self, k: int) -> str:
        """u_k spelled by its generator word `words[k]`, e.g. "s1 s2 c1": the
        name compile-time errors use, since display words need the
        finished tables."""
        rank = self.preset.rank
        letters = (f"s{g + 1}" if g < rank else f"c{g - rank + 1}" for g in self.words[k])
        return " ".join(letters) or "1"

    def walk(self, k: int, letters: Iterable[int]) -> int:
        """The index of u_k times the generators `letters` (0-based)."""
        for g in letters:
            k = self.right[g][k]
        return k

    def mul(self, a: int, b: int) -> int:
        return self.walk(a, self.words[b])

    def times_c(self, ks: Iterable[int], t: int) -> list[int]:
        """The index of u_k c_t for each k in `ks`: u_k = lift(pi(u_k)) c_s
        moves to slot c_mul[s][t] = c_mul[t][s] (C is abelian)."""
        at, pi, slot, row = self.at, self.pi, self.slot, self.c_mul[t]
        return [at[pi[k]][row[slot[k]]] for k in ks]

    def matrix(self, k: int) -> IntMatrix:
        """The matrix of u_k, from its code."""
        return tuple(map(self.rows.__getitem__, self.codes[k]))

    def element(self, k: int) -> UElement:
        """u_k as a `UElement`, built on first use."""
        u = self._elements[k]
        if u is None:
            u = self._elements[k] = UElement(self.matrix(k), self.preset)
        return u

    def position(self, u: UElement) -> int:
        """The index of u: its rows' orbit indices, found in the sorted codes."""
        code = tuple([self._row_index.get(row, -1) for row in u.matrix])
        k = bisect_left(self.codes, code)
        if k == len(self.codes) or self.codes[k] != code:
            raise ValueError(f"{u.matrix} is not an element of U")
        return k

    def length(self, k: int) -> int:
        """Length of the projection pi(u_k)."""
        return self.weyl.length[self.pi[k]]

    def tokens(self, k: int) -> tuple[str, ...]:
        """The display tokens of u_k: the deterministic reduced word of
        pi(u_k) followed by the shortest squared-generator factorization of
        its C part (lexicographic tie-break), e.g. ("s2", "s1", "s1^2", "s2^2")."""
        return self.s_tokens[self.pi[k]] + self.c_tokens[self.slot[k]]

    def word(self, k: int) -> str:
        """The display word of u_k (see `display_word`), spelled on first use."""
        word = self._words[k]
        if word is None:
            word = self._words[k] = " ".join(self.tokens(k)) or "1"
        return word

    def display_key(self, k: int) -> tuple[int, tuple[str, ...]]:
        """(projection length, display tokens) of u_k: the order in which
        elements are listed in every output."""
        return self.length(k), self.tokens(k)


def compile_group(preset: GroupPreset) -> GroupTables:
    """The preset's compiled tables, built on first use.

    The cyclic garbage collector is paused while they are built: every
    code, word and row tuple of the compile is a tracked allocation, so it
    would run collections that free nothing, 1,894 of them on sl7 (whose
    compile took 4.2-6.5 s with them, 3.7-4.7 s without, in fresh
    processes on a 2-vCPU VM, when it still built an element per index).
    It is resumed afterwards, and stays off if the caller had turned it
    off."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        return preset._tables
    finally:
        if enabled:
            gc.enable()


def enumerate_U(preset: GroupPreset) -> FiniteGroupTable:
    """The full group U as the closure of the s_i and the C generators.

    Compiling verifies |U| = |W| * |C| and the normality of C inside U.
    """
    return compile_group(preset).U


def enumerate_C(preset: GroupPreset) -> FiniteGroupTable:
    """The subgroup C: closure of the squared generators and the extra C
    generators.  Verified abelian and inside the kernel of pi."""
    return compile_group(preset).C


def _flatten(mat: IntMatrix) -> tuple[int, ...]:
    return tuple(x for row in mat for x in row)


def project_by_conjugation(u: UElement) -> WeylElement:
    """The projection pi(u) read off by conjugating the Cartan basis with u
    and expressing the result in that basis.  Exact and slow: it validates
    the generators at load time and cross-checks the table in tests.

    The n conjugates u h u^-1 and the n conjugates u^-1 h u are expressed
    in the basis by one elimination (`solve_many`), each verified."""
    preset = u.preset
    g, g_inv = u.matrix, mat_inverse(u.matrix)
    conjugates = [mat_mul(mat_mul(g, h), g_inv) for h in preset.a_basis]
    conjugates += [mat_mul(mat_mul(g_inv, h), g) for h in preset.a_basis]
    solutions = solve_many(
        [_flatten(h) for h in preset.a_basis], [_flatten(m) for m in conjugates]
    )
    if None in solutions:
        raise PresetError("element does not normalize the Cartan subspace")
    dim = len(preset.a_basis)
    # column j of each matrix holds the coefficients of the j-th conjugate
    forward = tuple(zip(*solutions[:dim]))
    backward = tuple(zip(*solutions[dim:]))
    try:
        return make_weyl_element(preset.root_datum, forward, backward)
    except ValueError as exc:
        raise PresetError(f"conjugation action is not a Weyl element: {exc}") from exc


def project_to_W(u: UElement) -> WeylElement:
    """The natural projection pi: U -> W, looked up in the compiled table."""
    tables = compile_group(u.preset)
    return tables.weyl.element(tables.pi[tables.position(u)])


def canonical_form(u: UElement) -> tuple[tuple[int, ...], UElement]:
    """Canonical decomposition u = s_{i_1} ... s_{i_d} c: the deterministic
    reduced word of pi(u) and the trailing C factor."""
    tables = compile_group(u.preset)
    k = tables.position(u)
    return tables.weyl.word[tables.pi[k]], tables.element(tables.c_ids[tables.slot[k]])


def subgroup_U_H(
    preset: GroupPreset,
    theta: Iterable[int],
    extra_gens: Sequence[UElement] = (),
) -> FiniteGroupTable:
    """U_H for a chamber-closure direction H with Theta = {i : alpha_i(H)=0},
    realized as the closure of {s_i : i in Theta} plus any extra generators
    (the escape hatch for groups where U_H exceeds that closure)."""
    theta = sorted(set(theta))
    if any(not 1 <= i <= preset.rank for i in theta):
        raise IndexError(f"Theta {theta} not within 1..{preset.rank}")
    return subgroup_closure(preset, [preset.generator(i) for i in theta] + list(extra_gens))


def subgroup_closure(preset: GroupPreset, gens: Sequence[UElement]) -> FiniteGroupTable:
    """Smallest subgroup of U containing the given elements, on U's table."""
    tables = compile_group(preset)
    try:
        ids = [tables.position(g) for g in gens]
    except ValueError as exc:
        raise ValueError(f"generator {exc}") from None
    keys, _, _ = tables.close(ids)
    return FiniteGroupTable(tables, tuple(sorted(keys)))


class Coset(Frozen):
    """A right coset, as the ascending U indices `ids` of its members in
    `tables`; its canonical representative is the first (smallest matrix
    key)."""

    __slots__ = ("tables", "ids")

    @property
    def representative(self) -> UElement:
        return self.tables.element(self.ids[0])


def cosets(group: FiniteGroupTable, subgroup: FiniteGroupTable) -> list[Coset]:
    """Partition `group` into right cosets Hu of `subgroup`, in representative
    key order: the first element not yet placed is its class's smallest.
    The coset H u_k is the walk of u_k's word from each member of H."""
    tables, walk = group.tables, group.tables.walk
    if subgroup.tables is not tables or not set(subgroup.ids).issubset(group.ids):
        raise ValueError("subgroup is not contained in group")
    seen: set[int] = set()
    out = []
    for k in group.ids:
        if k not in seen:
            word = tables.words[k]
            out.append(Coset(tables, tuple(sorted([walk(h, word) for h in subgroup.ids]))))
            seen.update(out[-1].ids)
    if len(out) * len(subgroup) != len(group):
        raise InvariantViolation("coset partition has the wrong cardinality")
    return out


class QuotientReport(Frozen):
    """Outcome of the U(S)/C(S)/W(S) compatibility check: W(S) as a tuple
    of `WeylElement`s, C(S) as a `FiniteGroupTable`, the three class counts
    and whether |U(S)\\U| = |W(S)\\W| * |C(S)\\C| holds."""

    __slots__ = ("W_S", "C_S", "classes_in_U", "classes_in_W", "classes_in_C", "identity_holds")


def check_quotient_isomorphism(U_S: FiniteGroupTable, C_table: FiniteGroupTable) -> QuotientReport:
    """Compute C(S) = U(S) n C and W(S) = pi(U(S)) and verify that
    |U(S)\\U| = |W(S)\\W| * |C(S)\\C|."""
    tables = U_S.tables
    c_s = FiniteGroupTable(tables, tuple(sorted(set(U_S.ids).intersection(C_table.ids))))
    w_s = map(tables.weyl.element, {tables.pi[k] for k in U_S.ids})
    w_s = tuple(sorted(w_s, key=lambda w: (length(w), w.matrix)))
    classes_u = len(tables.pi) // len(U_S)
    classes_w = len(tables.weyl) // len(w_s)
    classes_c = len(C_table) // len(c_s)
    return QuotientReport(
        W_S=w_s,
        C_S=c_s,
        classes_in_U=classes_u,
        classes_in_W=classes_w,
        classes_in_C=classes_c,
        identity_holds=(classes_u == classes_w * classes_c),
    )


# -- canonical display words --------------------------------------------------


def display_word(u: UElement) -> str:
    """Human-readable name; parses back to u through the expression grammar."""
    tables = compile_group(u.preset)
    return tables.word(tables.position(u))


def coset_label(coset: Coset) -> str:
    """Display name of a coset: its member with the shortest canonical word
    (ties by token order), which reproduces the conventional class labels."""
    tables = coset.tables
    return tables.word(min(coset.ids, key=lambda k: (len(t := tables.tokens(k)), t)))
