"""Independent reference routes that share no table with `wtits`.

The library answers every Weyl-group question from `rootsys.WeylTable` and
checks the group axioms on its integer tables.  The functions here answer
the same questions the slow, transparent way, by Fraction-matrix products
of `WeylElement`s and integer-matrix products of `UElement`s, so tests can
compare the two:

* `weyl_group`: closure of the simple reflections, sorted by (length, matrix),
* `reduced_word`: smallest-left-descent stripping,
* `bruhat_leq`: the classical descent recursion (Bjorner-Brenti,
  Combinatorics of Coxeter Groups, Ch. 2),
* `all_reduced_words`, `evaluate_word`, `left_descents`, `is_reduced`,
* `lift_word`: the product s_{i_1} ... s_{i_d} of generator matrices,
* `tableau_leq`: the type-A tableau criterion (Thm 2.6.3),
* `validate_group_table`: the group axioms of a `FiniteGroupTable` by
  brute force.

Caches here are test-only and keyed by exact values.
"""

from functools import lru_cache

from wtits import InvariantViolation
from wtits.rootsys import length, simple_reflection, weyl_identity


@lru_cache(maxsize=None)
def reflection(datum, i):
    """The Fraction reflection r_i, built once per datum and index."""
    return simple_reflection(datum, i)


# left products and `bruhat_leq` answers, keyed by `_key`
_LEFT: dict = {}
_LEQ: dict = {}
_DATA: dict = {}  # id -> root datum, kept alive so that each id keys one datum


def _key(w):
    """w as its datum's id and its matrix entries as (numerator,
    denominator) pairs.  A WeylElement's own hash runs `Fraction.__hash__`
    over its matrix and its whole root datum, which would cost the
    recursions here more than their products."""
    _DATA.setdefault(id(w.datum), w.datum)
    return id(w.datum), tuple((x.numerator, x.denominator) for row in w.matrix for x in row)


def left(i, w):
    """r_i w, by one Fraction-matrix product per (i, w)."""
    key = i, _key(w)
    if key not in _LEFT:
        _LEFT[key] = reflection(w.datum, i) * w
    return _LEFT[key]


def left_descents(w):
    """Simple indices i with l(r_i w) < l(w), ascending."""
    return [i for i in range(1, w.datum.rank + 1) if length(left(i, w)) < length(w)]


def reduced_word(w):
    """Deterministic reduced word: strip the smallest left descent first."""
    word = []
    current = w
    while length(current) > 0:
        i = left_descents(current)[0]
        word.append(i)
        current = left(i, current)
    return word


def evaluate_word(datum, word):
    result = weyl_identity(datum)
    for i in word:
        result = result * reflection(datum, i)
    return result


def lift_word(preset, word):
    """The lift s_{i_1} ... s_{i_d} of a word in simple indices, by
    integer-matrix products of the generators."""
    result = preset.identity()
    for i in word:
        result = result * preset.generator(i)
    return result


def is_reduced(datum, word):
    """True iff the word's product has length equal to the word's length."""
    word = list(word)
    return length(evaluate_word(datum, word)) == len(word)


def bruhat_leq(v, w):
    """Bruhat-Chevalley order via the classical descent recursion:
    for a left descent i of w,  v <= w  iff  (r_i v <= r_i w when i is also
    a descent of v, else v <= r_i w)."""
    key = _key(v), _key(w)
    if key not in _LEQ:
        if length(v) == 0:
            _LEQ[key] = True
        elif length(v) > length(w):
            _LEQ[key] = False
        else:
            i = left_descents(w)[0]
            rv, rw = left(i, v), left(i, w)
            _LEQ[key] = bruhat_leq(rv, rw) if length(rv) < length(v) else bruhat_leq(v, rw)
    return _LEQ[key]


@lru_cache(maxsize=None)
def weyl_group(datum):
    """All elements, enumerated by closure of the simple reflections and
    returned sorted by (length, matrix)."""
    gens = [reflection(datum, i) for i in range(1, datum.rank + 1)]
    seen = {weyl_identity(datum).matrix: weyl_identity(datum)}
    frontier = list(seen.values())
    while frontier:
        new = []
        for w in frontier:
            for g in gens:
                prod = w * g
                if prod.matrix not in seen:
                    seen[prod.matrix] = prod
                    new.append(prod)
        frontier = new
    return tuple(sorted(seen.values(), key=lambda w: (length(w), w.matrix)))


def all_reduced_words(w):
    """Every reduced word of w: left descents ascending, then recursively."""
    if length(w) == 0:
        return ((),)
    words = []
    for i in left_descents(w):
        rest = left(i, w)
        words.extend((i,) + tail for tail in all_reduced_words(rest))
    return tuple(words)


def permutation(w):
    """One-line notation of a permutation matrix: row i has its nonzero
    entry in column perm[i] (signs, if any, are dropped)."""
    return tuple(next(j for j, x in enumerate(row) if x) for row in w.matrix)


def tableau_leq(v, w):
    """Bruhat order on S_n by the tableau criterion (Bjorner-Brenti,
    Combinatorics of Coxeter Groups, Thm 2.6.3): v <= w iff for every k the
    sorted first k values of v are entrywise at most those of w."""
    return all(
        a <= b
        for k in range(1, len(v))
        for a, b in zip(sorted(v[:k]), sorted(w[:k]))
    )


def validate_group_table(table):
    """Check the group axioms by brute force (identity, closure, inverses)."""
    if table.preset.identity() not in table:
        raise InvariantViolation("table does not contain the identity")
    for a in table.elements:
        if a.inverse() not in table:
            raise InvariantViolation(f"inverse of {a.matrix} missing from table")
        for b in table.elements:
            if a * b not in table:
                raise InvariantViolation(
                    f"table not closed: {a.matrix} * {b.matrix} escapes"
                )
