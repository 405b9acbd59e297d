"""
Permutations in one-line notation and the basic pattern-avoidance toolkit.

A permutation of length n is a tuple of the integers 1..n, each appearing
exactly once; the empty tuple is the (valid) permutation of length 0.  Values
and positions are 1-based throughout.  The text form is space-separated
one-line notation, e.g. "3 1 4 2" (the empty string for length 0).

A pattern is itself a permutation; p contains the pattern tau when some
subsequence of p is order-isomorphic to tau.  Pattern sets are frozensets of
patterns, acted on entrywise by the dihedral group of order eight generated
by reverse, complement, and inverse.

The scan `occurrences` is the one containment matcher.  It lists the
occurrences of a pattern of any length as 0-based position tuples in
lexicographic order; `find_occurrence`, `contains` and `avoids` read its
first result.  A memoised per-pattern table, `letter_bounds`, gives the
interval each letter's value must lie in.

The enumeration engine, `weaksort.levels`, reads `letter_bounds` and
`occurrences` to find the forbidden windows of a level's children; this
module knows nothing of levels.
"""
from __future__ import annotations

import functools
import itertools
from typing import Iterable, Iterator, NamedTuple, Sequence

Perm = tuple[int, ...]
PatternSet = frozenset[Perm]


def is_permutation(seq: Sequence[int]) -> bool:
    """
    Check that seq is a rearrangement of 1..n.

    >>> [is_permutation(s) for s in [(), (1,), (2, 1), (1, 1), (0, 1)]]
    [True, True, True, False, False]
    """
    return sorted(seq) == list(range(1, len(seq) + 1))


def as_perm(seq: Iterable[int]) -> Perm:
    """Coerce to a tuple and validate."""
    p = tuple(seq)
    if not is_permutation(p):
        raise ValueError(f"not a permutation of 1..n: {p!r}")
    return p


def parse_int(token: str) -> int:
    """
    An integer read from outside: an optional minus sign and ASCII digits,
    as in a b-file; int() alone would also take "+5", "1_0", blanks and
    non-ASCII digits.

    >>> parse_int("21"), parse_int("-3")
    (21, -3)
    """
    digits = token[1:] if token.startswith("-") else token
    if not (digits.isascii() and digits.isdigit()):
        raise ValueError(f"not an integer (an optional '-' and ASCII digits): {token!r}")
    return int(token)


def parse_perm(text: str) -> Perm:
    """
    Parse space-separated one-line notation ("" gives the empty permutation);
    each entry is read by `parse_int`, and the entries must be 1..n.

    >>> parse_perm("3 1 4 2")
    (3, 1, 4, 2)
    """
    return as_perm([parse_int(tok) for tok in text.split()])


def format_perm(p: Perm) -> str:
    return " ".join(str(v) for v in p)


def parse_pattern_set(text: str) -> PatternSet:
    """
    Parse a semicolon-separated list of one-line permutations; blank parts
    are skipped, and a list with no pattern at all is rejected.

    >>> sorted(parse_pattern_set("3 2 1 4; 4 2 1 3"))
    [(3, 2, 1, 4), (4, 2, 1, 3)]
    """
    patterns = frozenset(parse_perm(part) for part in text.split(";") if part.strip())
    if not patterns:
        raise ValueError(f"no pattern in {text!r}; give at least one, e.g. \"3 2 1 4\"")
    return patterns


# --------------------------------------------------------------------------
# containment


#: the open ends of a letter's interval where no earlier letter bounds it;
#: they compare with any integer, so the entries of p need not be 1..n
_BELOW, _ABOVE = float("-inf"), float("inf")


@functools.cache
def letter_bounds(tau: tuple[int, ...]) -> tuple[tuple[int, int], ...]:
    """
    For each letter t of tau, the positions of two earlier letters: the one
    with the largest value below tau[t] and the one with the smallest value
    above it, -1 where there is none.

    >>> letter_bounds((2, 4, 1, 3))
    ((-1, -1), (0, -1), (-1, 0), (0, 1))
    """
    bounds = []
    for t, v in enumerate(tau):
        below = [(tau[s], s) for s in range(t) if tau[s] < v]
        above = [(tau[s], s) for s in range(t) if tau[s] > v]
        bounds.append((max(below)[1] if below else -1, min(above)[1] if above else -1))
    return tuple(bounds)


def occurrences(p: Sequence[int], tau: Sequence[int]) -> Iterator[tuple[int, ...]]:
    """
    Every occurrence of tau in p as increasing 0-based positions, in
    lexicographic order; the entries of p must be distinct integers.

    The scan places the letters of tau left to right.  The two earlier
    letters that `letter_bounds` names for letter t are its neighbours in
    value, so an entry fits t, in order with every letter placed so far,
    exactly when its value lies strictly between theirs (an open end where
    there is none): one comparison pair per candidate, whatever the length
    of tau.  The candidates for letter t stop at position
    len(p) - len(tau) + t, leaving room for the letters after it; when none
    is left, the scan moves the previous letter on.  The table is memoised
    because most calls scan short inputs, where building it afresh would
    cost about as much as the scan.

    >>> list(occurrences((2, 4, 3, 1), (1, 3, 2)))
    [(0, 1, 2)]
    >>> list(occurrences((3, 1, 2), (2, 1)))
    [(0, 1), (0, 2)]
    """
    k = len(tau)
    stop = len(p) - k  # the last position the current letter may take
    if stop < 0:
        return
    if not k:
        yield ()
        return
    bounds = letter_bounds(tuple(tau))
    chosen, values = [0] * k, [0] * k  # positions and values of placed letters
    last = k - 1
    t = i = 0
    while True:
        if t:
            lo, hi = bounds[t]
            low = values[lo] if lo >= 0 else _BELOW
            high = values[hi] if hi >= 0 else _ABOVE
            while i <= stop:
                v = p[i]
                if low < v < high:
                    break
                i += 1
            else:
                # no candidate left for letter t: move the previous letter on
                t -= 1
                stop -= 1
                i = chosen[t] + 1
                continue
        elif i <= stop:
            v = p[i]  # the first letter has no bounds, so every entry fits it
        else:
            return
        chosen[t] = i
        i += 1
        if t == last:
            yield tuple(chosen)
        else:
            values[t] = v
            t += 1
            stop += 1


def find_occurrence(p: Sequence[int], tau: Sequence[int]) -> tuple[int, ...] | None:
    """
    Positions (1-based, increasing) of the lexicographically first occurrence
    of tau in p, or None.

    >>> find_occurrence((2, 4, 3, 1), (1, 3, 2))
    (1, 2, 3)
    """
    occ = next(occurrences(p, tau), None)
    return None if occ is None else tuple(i + 1 for i in occ)


def contains(p: Sequence[int], tau: Sequence[int]) -> bool:
    """True when some subsequence of p is order-isomorphic to tau: when the
    scan `occurrences` finds one, whatever the length of tau."""
    return next(occurrences(p, tau), None) is not None


def avoids(p: Sequence[int], patterns: Iterable[Sequence[int]]) -> bool:
    """True when p contains none of the given patterns."""
    return not any(contains(p, tau) for tau in patterns)


# --------------------------------------------------------------------------
# the eight symmetries


def reverse(p: Perm) -> Perm:
    return tuple(reversed(p))


def complement(p: Perm) -> Perm:
    n = len(p)
    return tuple(n + 1 - v for v in p)


def inverse(p: Perm) -> Perm:
    out = [0] * len(p)
    for i, v in enumerate(p):
        out[v - 1] = i + 1
    return tuple(out)


_GENERATORS = {"r": reverse, "c": complement, "i": inverse}


def _apply_word(word: tuple[str, ...], p: Perm) -> Perm:
    for g in word:
        p = _GENERATORS[g](p)
    return p


#: name -> generator word for each of the 8 symmetries ("e" is the identity);
#: words act left to right ("ri" applies reverse first, then inverse).
#: Reverse and complement commute, and inverse swaps them by conjugation
#: (reverse then inverse is inverse then complement), so every element is
#: r^a c^b i^d with a, b, d in {0, 1}.
SYMMETRIES: dict[str, tuple[str, ...]] = {
    "e": (),
    "r": ("r",),
    "c": ("c",),
    "i": ("i",),
    "rc": ("r", "c"),
    "ri": ("r", "i"),
    "ci": ("c", "i"),
    "rci": ("r", "c", "i"),
}


def apply_symmetry(name: str, patterns: PatternSet) -> PatternSet:
    """Apply one of the eight symmetries entrywise to a pattern set."""
    if name not in SYMMETRIES:
        raise KeyError(f"unknown symmetry {name!r}; choose from {sorted(SYMMETRIES)}")
    word = SYMMETRIES[name]
    return frozenset(_apply_word(word, t) for t in patterns)


def orbit(patterns: PatternSet) -> set[PatternSet]:
    """All distinct images of the pattern set under the eight symmetries."""
    return {apply_symmetry(name, patterns) for name in SYMMETRIES}


def canonical_form(patterns: PatternSet) -> tuple[Perm, ...]:
    """
    Canonical representative of the symmetry orbit: the lexicographically
    smallest sorted tuple among the eight images.  Used to deduplicate
    pattern sets in the exhaustive search.
    """
    return min(tuple(sorted(img)) for img in orbit(frozenset(patterns)))


# --------------------------------------------------------------------------
# standardization, direct sums, extrema


def standardize(seq: Sequence[int]) -> Perm:
    """
    The permutation order-isomorphic to seq (entries must be distinct).

    >>> standardize((10, 13, 18))
    (1, 2, 3)
    >>> standardize((14, 15, 17, 16, 11, 12, 9))
    (4, 5, 7, 6, 2, 3, 1)
    """
    if len(set(seq)) != len(seq):
        raise ValueError(f"entries not distinct: {seq!r}")
    rank = {v: r + 1 for r, v in enumerate(sorted(seq))}
    return tuple(rank[v] for v in seq)


def direct_sum(p: Perm, q: Perm) -> Perm:
    """Concatenate p with q shifted up by len(p)."""
    m = len(p)
    return p + tuple(v + m for v in q)


def components(p: Perm) -> tuple[Perm, ...]:
    """
    The unique maximal decomposition of a permutation p as a direct sum of
    indecomposable permutations.  A new component closes at every prefix
    whose maximum equals its length, so that its value set is an initial
    segment {1..end}.  The component after the one closing at `start` then
    holds exactly the values start+1..end, and subtracting `start`
    standardizes it; that offset needs p to be a permutation.

    >>> components((2, 1, 3, 4))
    ((2, 1), (1,), (1,))
    """
    comps = []
    start = 0
    for end, high in enumerate(itertools.accumulate(p, max), 1):
        if high == end:
            comps.append(tuple([v - start for v in p[start:end]]))
            start = end
    return tuple(comps)


class Extrema(NamedTuple):
    """Left-to-right maxima and right-to-left maxima, each as a tuple of
    (position, value) pairs in position order."""

    lr_maxima: tuple[tuple[int, int], ...]
    rl_maxima: tuple[tuple[int, int], ...]


def extrema(p: Perm) -> Extrema:
    """Positions and values of the extremal entries (empty tuples for n=0)."""
    lr_max, rl_max = [], []
    high = 0
    for i, v in enumerate(p):
        if v > high:
            lr_max.append((i + 1, v))
            high = v
    high = 0
    for i in range(len(p) - 1, -1, -1):
        if p[i] > high:
            rl_max.append((i + 1, p[i]))
            high = p[i]
    rl_max.reverse()
    return Extrema(tuple(lr_max), tuple(rl_max))


def all_perms(n: int) -> Iterable[Perm]:
    """All permutations of 1..n in lexicographic order."""
    return itertools.permutations(range(1, n + 1))


# --------------------------------------------------------------------------
# the five pattern triples sharing the weak sorting counting sequence

TRIPLES: dict[str, PatternSet] = {
    "pi1": frozenset({(1, 2, 3, 4), (1, 2, 4, 3), (1, 3, 4, 2)}),
    "pi2": frozenset({(1, 2, 4, 3), (1, 3, 2, 4), (1, 3, 4, 2)}),
    "pi3": frozenset({(1, 3, 2, 4), (1, 3, 4, 2), (1, 4, 3, 2)}),
    "pi4": frozenset({(2, 3, 1, 4), (3, 2, 1, 4), (4, 2, 1, 3)}),
    "pi5": frozenset({(3, 2, 1, 4), (3, 2, 4, 1), (4, 2, 1, 3)}),
}

#: the triple avoided by the weak sorting permutations; same symmetry class
#: as TRIPLES["pi1"]
WEAK_SORTING_TRIPLE: PatternSet = frozenset({(3, 2, 4, 1), (3, 4, 2, 1), (4, 3, 2, 1)})

#: the pair whose avoiders are counted by the large Schroder numbers
SCHRODER_PAIR: PatternSet = frozenset({(3, 2, 1, 4), (4, 2, 1, 3)})
