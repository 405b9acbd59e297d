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

Enumeration (`weaksort.counting`) extends a standardized prefix q of
length m by a new last entry of every relative rank r at once (bumping
the entries >= r), and asks this module which ranks end an occurrence of
a pattern tau.  `_head_bounds` splits tau into its standardized head
tau[:-1] and the head letters that bound its last letter, the last entry
of `letter_bounds`.  For every occurrence of the head in q, let lo be the
value of the lower bounding letter (0 if none) and hi that of the upper
one (m+1 if none).  The child with new last rank r ends an occurrence of
tau on it exactly when lo < r <= hi: the entries below r keep their
values and those from r up are bumped.  The window of q for a bound is
the union of those intervals as a bitmask of ranks (bit r for rank r).

`_windows` answers for any patterns and a whole level of prefixes of one
length m at once, one bit-lane per prefix: one integer holds the window
of prefix i in its lane i, bits 8*nbytes*i and up.  The level comes as m
byte columns, column j holding entry j of every prefix, as
`weaksort.counting` keeps it.  Patterns that share a head (1234 and 1243
share 123) share one pass over the level, which gives the window of every
bound they take.  A lane holds data bits 0..m+2 (a window takes bits
1..m+1, and 2 << (m+1) is the largest value a step forms) and a guard bit
above them, and `_lane_bytes` rounds it up to whole bytes, so that
lanes convert to and from bytes at C speed.  A head whose length is not
3 lists its occurrences prefix by prefix with the scan
(`_listed_windows`), on the prefixes as tuples, and the windows are
packed into the same lanes (`_pack`).

A head of length 3 takes one pass for the whole level (`_middle_pass`),
not one per occurrence or per prefix.  Position plane j holds 1 << q[j]
in the lane of every prefix q; `_planes` builds it from column j, one
`bytes.translate` per lane byte.  The pass runs over the position j of the
middle letter y, with the values left of j and those right of j as two
packed bitmasks.  The first head letter x ranges over the left values and
the last letter z over the right ones, each on the side of y that the
head gives it.  When x and z lie on the same side of y, the head also
fixes their order, so only values with a partner are kept: x below the
largest z and z above the least x, or the mirror image.  A window's lo is
then 0, y, or the least kept value of x or z, and its hi is y, the
largest kept value of x or z, or m+1.  For one j and one prefix the
occurrence windows union to one interval, the window of the pair of
extreme kept values: that pair is itself an occurrence, and its lo is at
most and its hi at least those of every other.  So a level costs O(m)
steps per head, each a few operations on one integer for all lanes.

No step carries or borrows from one lane into the next.  Bitwise
operations stay in their lanes.  A subtraction of 1 per lane (bit - 1,
v - 1 for the least set bit) acts on lanes that are at least 1: y is at
least 1, and v is first ORed with the guard bit.  An addition stays
below the top of a lane: values fill data bits only, so both the
highest kept value plus 1 and v + (2**g - 1), with g the place of the
guard bit, fit; the latter sets the guard bit exactly when v is
nonempty.  A window is (hi | guard) - lo, never below 0, and is masked
to the lanes where both sides are nonempty.  The largest kept value is
read off a smear, v | v >> 1 | v >> 2 | ..., which fills each lane from
its highest set bit down; the bits that a right shift brings down from
the lane above are masked off after every shift.  `_listed_windows` is
the oracle of that pass.
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
# forbidden windows of a level's children, one bit-lane per prefix


@functools.cache
def _head_bounds(tau: Perm) -> tuple[Perm, tuple[int, int]]:
    """
    The standardized head tau[:-1] of a nonempty pattern and the head
    letters that bound its last letter: the last entry of `letter_bounds`.

    >>> _head_bounds((1, 3, 4, 2))
    ((1, 2, 3), (0, 1))
    """
    return standardize(tau[:-1]), letter_bounds(tau)[-1]


def _lane_bytes(m: int) -> int:
    """
    Bytes per lane for prefixes of length m: data bits 0..m+2 and a guard
    bit above them, m + 4 bits, rounded up to whole bytes.

    >>> [_lane_bytes(m) for m in (0, 4, 5, 12, 13, 20, 21, 60, 61)]
    [1, 1, 2, 2, 3, 3, 4, 8, 9]
    """
    return (m + 11) // 8


def _pack(values: Iterable[int], nbytes: int) -> int:
    """
    One integer holding each value in a lane of nbytes bytes, the first
    value in the lowest lane.

    >>> hex(_pack([1, 2, 255], 1))
    '0xff0201'
    """
    return int.from_bytes(b"".join([v.to_bytes(nbytes, "little") for v in values]), "little")


def _windows(
    columns: Sequence[bytes], count: int, patterns: Iterable[Perm]
) -> dict[Perm, int]:
    """
    Each nonempty pattern's windows over a level of count prefixes of
    length m = len(columns), held as byte columns (column j holds entry j
    of every prefix), packed one lane per prefix: lane i holds the bitmask
    of the new last ranks r whose child of prefix i ends an occurrence of
    it.

    Patterns that share a head share one pass, which gives the window of
    each of their bounds at once: `_middle_pass` for a head of length 3,
    `_listed_windows` prefix by prefix for every other one, which alone
    needs the prefixes as tuples.  A head and a bound name one pattern,
    since the bound places the last letter among the head's.
    """
    heads: dict[Perm, dict[tuple[int, int], Perm]] = {}
    for tau in patterns:
        head, bound = _head_bounds(tau)
        heads.setdefault(head, {})[bound] = tau
    m = len(columns)
    nbytes = _lane_bytes(m)
    planes: list[int] | None = None
    rows: list[Perm] | None = None
    out: dict[Perm, int] = {}
    for head, by_bound in heads.items():
        bounds = list(by_bound)
        if len(head) == 3:
            if planes is None:
                planes = _planes(columns, count, nbytes)
            windows = _middle_pass(planes, count, nbytes, head, bounds)
        else:
            if rows is None:
                rows = list(zip(*columns)) if columns else [()] * count
            listed = [_listed_windows(q, head, bounds) for q in rows]
            # by index, not zip(*listed), so that an empty level has windows
            windows = [_pack([w[k] for w in listed], nbytes) for k in range(len(bounds))]
        out.update(zip(by_bound.values(), windows))
    return out


def _planes(columns: Sequence[bytes], count: int, nbytes: int) -> list[int]:
    """
    The position planes of a level: plane j holds 1 << q[j] in the lane of
    every prefix q, each lane byte one `bytes.translate` of column j.

    >>> [hex(plane) for plane in _planes([bytes([1, 2]), bytes([2, 1])], 2, 1)]
    ['0x402', '0x204']
    """
    m = len(columns)
    # byte b of 1 << v, for the bytes that an entry 1..m reaches
    one_hot = [bytes((1 << v) >> 8 * b & 255 for v in range(256)) for b in range(m // 8 + 1)]
    planes = []
    for column in columns:
        plane = bytearray(nbytes * count)
        for b, table in enumerate(one_hot):
            plane[b::nbytes] = column.translate(table)
        planes.append(int.from_bytes(plane, "little"))
    return planes


def _listed_windows(
    prefix: Perm, head: Perm, bounds: list[tuple[int, int]]
) -> list[int]:
    """For each bound, the union of the window of every occurrence of head
    in prefix, listed by `occurrences`."""
    m = len(prefix)
    occs = list(occurrences(prefix, head))
    windows = []
    for lo_at, hi_at in bounds:
        window = 0
        for occ in occs:
            lo = prefix[occ[lo_at]] if lo_at >= 0 else 0
            hi = prefix[occ[hi_at]] if hi_at >= 0 else m + 1
            window |= (1 << (hi + 1)) - (1 << (lo + 1))
        windows.append(window)
    return windows


def _middle_pass(
    planes: list[int], count: int, nbytes: int, head: Perm, bounds: list[tuple[int, int]]
) -> list[int]:
    """
    The packed windows of a head of length 3 over count prefixes, from
    their position planes, without listing an occurrence: one pass over
    the position of the middle letter y, with the values before it and
    after it as packed bitmasks.  The first letter x is drawn from those
    before and the last letter z from those after, each on its own side of
    y; on the same side they are coupled by their order in the head.  Each
    lane's union of windows is the window of its extreme pair.  Every step
    acts on all lanes at once; the module docstring says why none carries
    or borrows into the next lane.
    """
    m = len(planes)
    windows = [0] * len(bounds)
    if m < 3:
        return windows
    guard_at = 8 * nbytes - 1
    lane = int.from_bytes((b"\1" + bytes(nbytes - 1)) * count, "little")  # 1 in every lane
    guard = lane << guard_at
    nonzero = guard - lane  # carries into the guard bit of every nonzero lane
    two, top = lane << 1, lane << (m + 2)  # 2 << 0 and 2 << (m + 1)
    # shifts by 1, 2, 4, ... until a run of set bits spans m + 1 bits
    shifts = [1 << s for s in range(m.bit_length())]
    keep = [((1 << (guard_at + 1 - k)) - 1) * lane for k in shifts]

    def smear(v: int) -> int:
        # each lane's bits from its highest down to bit 0; keep drops the
        # bits that a shift brings down from the lane above
        for k, own in zip(shifts, keep):
            v |= v >> k & own
        return v

    def through_least(v: int) -> int:
        # each lane's bits up to its lowest set one, and its guard bit; every
        # bit but the guard in an empty lane.  It is v ^ (v - 1), with the
        # guard holding every lane above 0
        return v ^ ((v | guard) - lane)

    a, b, c = head
    x_below, z_below, x_first = a < b, c < b, a < c
    coupled = x_below == z_below
    lo_ats = {lo_at for lo_at, _ in bounds}
    hi_ats = {hi_at for _, hi_at in bounds}
    before = planes[0]
    after = ((1 << (m + 1)) - 2) * lane ^ before
    for bit in planes[1:-1]:
        after ^= bit
        below = bit - lane  # every lane's y is at least 1
        above = ~(below | bit)
        xs = before & (below if x_below else above)
        zs = after & (below if z_below else above)
        before |= bit
        if coupled:
            # smear(v) >> 1 is each lane's bits below its highest, and the
            # bit it brings down onto a guard bit is dropped by the &
            if x_first:  # x < z: keep x below the largest z, z above the least x
                xs &= smear(zs) >> 1
                zs &= ~through_least(xs)
            else:  # the mirror image
                zs &= smear(xs) >> 1
                xs &= ~through_least(zs)
        # every bit below the guard in the lanes where xs and zs are both
        # nonempty
        ok = (xs + nonzero) & (zs + nonzero) & guard
        ok -= ok >> guard_at
        # 2 << lo and 2 << hi for the letter at each head position (x, y,
        # z, none): lo its least kept value, hi its largest
        lows = {1: bit << 1, -1: two}
        highs = {1: lows[1], -1: top}
        for at, kept in ((0, xs), (2, zs)):
            if at in lo_ats:
                lows[at] = (kept & through_least(kept)) << 1
            if at in hi_ats:
                highs[at] = smear(kept) + lane
        for k, (lo_at, hi_at) in enumerate(bounds):
            # the guard keeps a lane that is not ok from borrowing
            windows[k] |= ((highs[hi_at] | guard) - lows[lo_at]) & ok
    return windows


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
