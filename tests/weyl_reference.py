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


def left_descents(w):
    """Simple indices i with l(r_i w) < l(w), ascending."""
    return [
        i
        for i in range(1, w.datum.rank + 1)
        if length(reflection(w.datum, i) * w) < length(w)
    ]


def reduced_word(w):
    """Deterministic reduced word: strip the smallest left descent first."""
    word = []
    current = w
    while length(current) > 0:
        i = left_descents(current)[0]
        word.append(i)
        current = reflection(current.datum, i) * current
    return word


def evaluate_word(datum, word):
    result = weyl_identity(datum)
    for i in word:
        result = result * reflection(datum, i)
    return result


def is_reduced(datum, word):
    """True iff the word's product has length equal to the word's length."""
    word = list(word)
    return length(evaluate_word(datum, word)) == len(word)


@lru_cache(maxsize=None)
def bruhat_leq(v, w):
    """Bruhat-Chevalley order via the classical descent recursion:
    for a left descent i of w,  v <= w  iff  (r_i v <= r_i w when i is also
    a descent of v, else v <= r_i w)."""
    if length(v) == 0:
        return True
    if length(v) > length(w):
        return False
    r = reflection(w.datum, left_descents(w)[0])
    rv = r * v
    if length(rv) < length(v):
        return bruhat_leq(rv, r * w)
    return bruhat_leq(v, r * w)


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
        rest = reflection(w.datum, i) * w
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
