"""Restricted root systems, Weyl groups and reduced words.

Roots are rational covectors on the coordinates of a Cartan subspace and
Weyl elements are rational matrices acting on those coordinates, so every
question asked here (length, descent, reducedness) reduces to exact
arithmetic.  Simple-root indices are 1-based throughout the public API,
matching the generator labels s1, s2, ... used everywhere else.

One table answers every question: `WeylTable` reads the simple reflections
off their validated Fraction matrices once, enumerates the group as
permutations of the root list, and answers lengths, reduced words and
reducedness by lookups.  Each `RootDatum` keeps one such table
(`weyl_table`), which the group layer shares, and the public functions map
a `WeylElement` to its index by its root permutation.  Fraction arithmetic
remains only to validate a datum, to derive its positive roots when none
are given (the same `closure`, run on root vectors), and to build the
`WeylElement`s the library hands out.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from typing import Iterator

from .errors import ClosureBoundExceeded, Frozen
from .exact import (
    FracMatrix,
    FracVector,
    frac_identity,
    frac_mat_mul,
    frac_vec_mat,
    solve_many,
)

Covector = tuple[Fraction, ...]

DEFAULT_CLOSURE_BOUND = 10**6  # the most elements any group closure may reach


class RootDatum(Frozen):
    """A finite root system presented on explicit Cartan coordinates.

    `dim` is the number of coordinates (which may exceed `rank`, e.g. the n
    diagonal coordinates of sl(n) for a rank n-1 system); `simple_roots`
    and `positive_roots` are tuples of `Covector`s.  `multiplicities`
    holds, per simple root, the dimension m of the rank-one flag sphere S^m
    attached to it; m > 1 forces the squared generator lift to be trivial.
    Two data are equal, and hash alike, when those five fields are.
    The Weyl table `_table` (read through `weyl_table`) and the root sets
    `negative_roots` and `roots` are built once each on first use; nothing
    else about a datum changes.
    """

    _fields = ("rank", "dim", "simple_roots", "positive_roots", "multiplicities")

    def _key(self) -> tuple:
        return tuple(map(self.__dict__.__getitem__, self._fields))

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    @staticmethod
    def create(
        simple_roots,
        positive_roots=None,
        multiplicities=None,
    ) -> "RootDatum":
        simples = tuple(tuple(Fraction(x) for x in root) for root in simple_roots)
        if not simples:
            raise ValueError("at least one simple root is required")
        dim = len(simples[0])
        if any(len(r) != dim for r in simples):
            raise ValueError("simple roots must share one coordinate dimension")
        if positive_roots is None:
            positives = _positive_closure(simples)
        else:
            positives = tuple(tuple(Fraction(x) for x in r) for r in positive_roots)
        mults = tuple(int(m) for m in (multiplicities or (1,) * len(simples)))
        if len(mults) != len(simples) or any(m < 1 for m in mults):
            raise ValueError("need one positive multiplicity per simple root")
        datum = RootDatum(len(simples), dim, simples, positives, mults)
        datum._validate()
        return datum

    def _validate(self) -> None:
        for root, coeffs in zip(self.positive_roots, self.positive_coefficients()):
            if coeffs is None or any(c < 0 for c in coeffs):
                raise ValueError(
                    f"positive root {root} is not a nonnegative combination of simple roots"
                )
        for i in range(1, self.rank + 1):
            refl = _reflection_matrix(self.simple_roots[i - 1])
            for root in self.roots:
                if frac_vec_mat(root, refl) not in self.roots:
                    raise ValueError(
                        f"reflection r{i} does not permute the root set"
                    )

    def positive_coefficients(self) -> list[FracVector | None]:
        """The expansion of each positive root over the simple roots (None
        where there is none), in order, from one elimination."""
        return solve_many(self.simple_roots, self.positive_roots)

    @cached_property
    def _table(self) -> "WeylTable":
        return WeylTable(self, DEFAULT_CLOSURE_BOUND)

    @cached_property
    def negative_roots(self) -> frozenset[Covector]:
        return frozenset(_neg(r) for r in self.positive_roots)

    @cached_property
    def roots(self) -> frozenset[Covector]:
        """Every root, positive and negative."""
        return frozenset(self.positive_roots) | self.negative_roots


def _neg(root: Covector) -> Covector:
    return tuple(-x for x in root)


def _positive_closure(simples: tuple[Covector, ...]) -> tuple[Covector, ...]:
    """The simple roots and every positive root: the orbit of the simple
    roots under the simple reflections (one `closure` from all of them),
    kept where its coefficients over the simple roots, from one
    elimination, are nonnegative.

    The reflections are rational, so a finite group they generate is a Weyl
    group of rank at most r = len(simples), and none has more than r^2 + 7r
    reflections (E8: 8^2 + 7 * 8 = 120).  Each reflection has two roots in
    the orbit at most, so an orbit past 2r(r + 7) roots shows an infinite
    group, refused at once as `ClosureBoundExceeded`."""
    reflections = [_reflection_matrix(alpha) for alpha in simples]
    steps = [lambda root, refl=refl: frac_vec_mat(root, refl) for refl in reflections]
    roots = closure(simples, steps, 2 * len(simples) * (len(simples) + 7))[0]
    positives = {
        root
        for root, coeffs in zip(roots, solve_many(simples, roots))
        if coeffs is not None and all(c >= 0 for c in coeffs)
    }
    return tuple(sorted(positives.union(simples)))


def _reflection_matrix(alpha: Covector) -> FracMatrix:
    """Reflection about the hyperplane of the root alpha,
    H |-> H - alpha(H) * 2 H_alpha / <H_alpha, H_alpha>, with H_alpha the
    coordinate vector of alpha under the standard pairing."""
    norm = sum(x * x for x in alpha)
    if norm == 0:
        raise ValueError("simple root has zero length")
    support = [k for k, x in enumerate(alpha) if x]
    rows = [list(row) for row in frac_identity(len(alpha))]
    for r in support:
        for c in support:
            rows[r][c] -= 2 * alpha[r] * alpha[c] / norm
    return tuple(map(tuple, rows))


class WeylElement(Frozen):
    """A Weyl group element as an exact linear map on Cartan coordinates:
    its `RootDatum`, its `FracMatrix` and that matrix's inverse, and its
    length.  Two elements are equal, and hash alike, when their data and
    matrices are."""

    __slots__ = ("datum", "matrix", "inverse_matrix", "cached_length")

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.datum, self.matrix) == (other.datum, other.matrix)

    def __hash__(self) -> int:
        return hash((self.datum, self.matrix))

    def __mul__(self, other: "WeylElement") -> "WeylElement":
        if self.datum is not other.datum and self.datum != other.datum:
            raise ValueError("cannot multiply Weyl elements over different data")
        return make_weyl_element(
            self.datum,
            frac_mat_mul(self.matrix, other.matrix),
            frac_mat_mul(other.inverse_matrix, self.inverse_matrix),
        )

    def inverse(self) -> "WeylElement":
        return make_weyl_element(self.datum, self.inverse_matrix, self.matrix)

    def act_root(self, root: Covector) -> Covector:
        """Coadjoint action: (w . alpha)(H) = alpha(w^{-1} H)."""
        return frac_vec_mat(root, self.inverse_matrix)

    def is_identity(self) -> bool:
        return self.matrix == frac_identity(self.datum.dim)


def make_weyl_element(datum: RootDatum, matrix: FracMatrix, inverse: FracMatrix) -> WeylElement:
    """Validating constructor: checks that the map permutes the root set and
    counts its inversions once."""
    stub = WeylElement(datum, matrix, inverse, -1)
    negatives = datum.negative_roots
    root_set = datum.roots
    inversions = 0
    for root in datum.positive_roots:
        image = stub.act_root(root)
        if image not in root_set:
            raise ValueError("matrix does not permute the root set")
        if image in negatives:
            inversions += 1
    return WeylElement(datum, matrix, inverse, inversions)


def weyl_identity(datum: RootDatum) -> WeylElement:
    eye = frac_identity(datum.dim)
    return WeylElement(datum, eye, eye, 0)


def _check_index(datum: RootDatum, i: int) -> None:
    if not 1 <= i <= datum.rank:
        raise IndexError(f"simple root index {i} out of range 1..{datum.rank}")


def simple_reflection(datum: RootDatum, i: int) -> WeylElement:
    """The reflection r_i attached to the i-th simple root (1-based)."""
    _check_index(datum, i)
    refl = _reflection_matrix(datum.simple_roots[i - 1])
    return make_weyl_element(datum, refl, refl)


def length(w: WeylElement) -> int:
    """Number of positive roots sent negative by w."""
    return w.cached_length


def closure(starts, steps, bound: int) -> tuple[list, list[list[int]], list[tuple[int, ...]]]:
    """Breadth-first closure of the keys `starts` under the maps `steps`:
    the one loop that enumerates the Weyl group (on root permutations), U
    and the orbit of its unit rows (`utits._closure`), its subgroups (on U's
    table indices, `GroupTables.close`) and the orbit of the simple roots
    (`_positive_closure`).

    Keys are taken first in, first out, each through the steps in order.
    Returns the keys in discovery order (the distinct starts first, in
    order), the table right[g][k] = index of steps[g](keys[k]), recorded as
    each image is found, and the step word each key was first reached by
    from a start (a shortest one).  More than `bound` keys raise
    `ClosureBoundExceeded`.  The key index is local, so it is released on
    return."""
    keys = list(dict.fromkeys(starts))
    found = {key: k for k, key in enumerate(keys)}
    words: list[tuple[int, ...]] = [()] * len(keys)
    right: list[list[int]] = [[] for _ in steps]
    k = 0
    while k < len(keys):
        for g, (step, row) in enumerate(zip(steps, right)):
            image = step(keys[k])
            j = found.get(image)
            if j is None:
                if len(keys) >= bound:
                    raise ClosureBoundExceeded(
                        f"closure exceeded {bound} elements; "
                        "the configuration likely does not define the intended finite group"
                    )
                j = found[image] = len(keys)
                keys.append(image)
                words.append(words[k] + (g,))
            row.append(j)
        k += 1
    return keys, right, words


class WeylTable:
    """The Weyl group as permutations of the root list, for table lookups.

    Each simple reflection's permutation is read once off its validated
    Fraction matrix, kept in `reflections`; the group is then enumerated by
    `closure` of those permutations, refusing more than `bound` elements.
    Elements are indices in discovery order, 0 being the identity:

    * `length[w]` counts the positive roots w sends negative,
    * `right[i - 1][w]` is w r_i and `left[i - 1][w]` is r_i w,
    * `word[w]` is the deterministic reduced word (smallest left descent
      stripped first), so `word[w][0]` is the smallest left descent of w,
    * `position(x)` is the index of a `WeylElement` x, found from the
      permutation it makes of the root list, which the images of the
      simple roots determine.

    The tables are tuples and never change; only the Fraction elements
    handed out by `element` are built lazily, once each.
    """

    identity = 0

    def __init__(self, datum: RootDatum, bound: int):
        positives = datum.positive_roots
        roots = positives + tuple(_neg(r) for r in positives)
        where = {root: k for k, root in enumerate(roots)}
        self.reflections = tuple(simple_reflection(datum, i) for i in range(1, datum.rank + 1))
        gens = [tuple(where[r.act_root(root)] for root in roots) for r in self.reflections]
        steps = [lambda perm, gen=gen: tuple([perm[x] for x in gen]) for gen in gens]
        perms, right, _ = closure([tuple(range(len(roots)))], steps, bound)
        index = {perm: w for w, perm in enumerate(perms)}
        n_pos = len(positives)
        self.datum = datum
        # a Weyl element is linear, so the images of the simple roots fix
        # its whole root permutation: they key `position`
        simples = [where[root] for root in datum.simple_roots]
        self._where = where
        self._by_simples = {tuple(perm[k] for k in simples): w for w, perm in enumerate(perms)}
        self.right = tuple(tuple(row) for row in right)
        self.left = tuple(
            tuple(index[tuple(gen[x] for x in perm)] for perm in perms) for gen in gens
        )
        self.length = tuple(sum(x >= n_pos for x in perm[:n_pos]) for perm in perms)
        words: list[tuple[int, ...]] = [()] * len(perms)
        for w in sorted(range(len(perms)), key=self.length.__getitem__):
            if self.length[w]:
                i = next(
                    i for i, row in enumerate(self.left) if self.length[row[w]] < self.length[w]
                )
                words[w] = (i + 1,) + words[self.left[i][w]]
        self.word = tuple(words)
        self._elements: list[WeylElement | None] = [None] * len(perms)

    def __len__(self) -> int:
        return len(self.length)

    def position(self, x: WeylElement) -> int:
        """The index of x, looked up by where x sends the simple roots."""
        if x.datum != self.datum:
            raise ValueError("the element lives over a different root datum")
        return self._by_simples[
            tuple(self._where[x.act_root(root)] for root in self.datum.simple_roots)
        ]

    def is_reduced(self, word) -> bool:
        """Walk the word along `right`; it is reduced iff every letter
        raises the length."""
        w = 0
        for i in word:
            nxt = self.right[i - 1][w]
            if self.length[nxt] < self.length[w]:
                return False
            w = nxt
        return True

    def reduced_words(self, w: int) -> Iterator[tuple[int, ...]]:
        """Every reduced word of w, lazily: first letters (the left
        descents) ascending, each followed by the reduced words of the rest
        in the same order."""
        if not self.length[w]:
            yield ()
            return
        for i, row in enumerate(self.left, start=1):
            if self.length[row[w]] < self.length[w]:
                for tail in self.reduced_words(row[w]):
                    yield (i,) + tail

    def element(self, w: int) -> WeylElement:
        """The Fraction-matrix Weyl element with index w: r_i times the
        element of r_i w, for the first letter i of its word.  The product
        is not validated again: the table already knows it permutes the
        roots, and its length is `length[w]`."""
        elt = self._elements[w]
        if elt is None:
            if not self.word[w]:
                elt = weyl_identity(self.datum)
            else:
                i = self.word[w][0]
                r, rest = self.reflections[i - 1], self.element(self.left[i - 1][w])
                elt = WeylElement(
                    self.datum,
                    frac_mat_mul(r.matrix, rest.matrix),
                    frac_mat_mul(rest.inverse_matrix, r.inverse_matrix),
                    self.length[w],
                )
            self._elements[w] = elt
        return elt


def weyl_table(datum: RootDatum) -> WeylTable:
    """The datum's Weyl table, built on first use and kept on the datum."""
    return datum._table


def reduced_word(w: WeylElement) -> list[int]:
    """Deterministic reduced word: the smallest left descent stripped first."""
    table = weyl_table(w.datum)
    return list(table.word[table.position(w)])


# no command calls it; kept because benchmarks/tracer.py wraps it
def is_reduced(datum: RootDatum, word) -> bool:
    """True iff the word's product has length equal to the word's length.
    A letter outside 1..rank raises IndexError."""
    word = list(word)
    for i in word:
        _check_index(datum, i)
    return weyl_table(datum).is_reduced(word)


# no command calls it; kept because benchmarks/tracer.py wraps it
def weyl_group(datum: RootDatum) -> tuple[WeylElement, ...]:
    """All elements, sorted by (length, matrix)."""
    table = weyl_table(datum)
    return tuple(
        sorted(map(table.element, range(len(table))), key=lambda w: (length(w), w.matrix))
    )

