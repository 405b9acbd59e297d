"""
Brute-force enumeration of pattern avoiders and the exhaustive classification
of triples of 4-letter patterns by counting sequence.

Enumeration builds permutations one entry at a time over *standardized*
prefixes: containment only depends on relative order, so a prefix can be
represented by its standardization, and extending by a new last entry of
relative rank r (bumping existing entries >= r) visits every permutation
exactly once.  A prefix is pruned as soon as it contains a forbidden pattern;
since containment persists under extension, pruning is exact.  At depth n the
standardized prefixes are precisely the avoiders of length n.

`perms._windows` answers every pattern of a carried set once per level,
with the ranks whose child ends an occurrence of it, one bit-lane per
prefix, so a set's forbidden masks for the level are one integer, the OR
of its patterns' windows, and only the ranks outside the mask are
extended.

Many pattern sets go through one shared level.  A prefix is a prefix of an
avoider of several sets at once, so each level is one list of prefixes, and
each prefix carries a bitmask of the sets it avoids (bit i for set i).  A
child has exactly one parent, so no prefix is ever built twice.  The work
per level stays small:

- To build the next level, each set's packed mask is unpacked into one
  mask per prefix.  At each prefix the sets it carries are grouped by
  forbidden mask, and a child is built once per rank that some group
  allows, carrying the bits of those groups.
- Children are built by indexing, not by a loop per entry: for each level,
  bump[r][v] is v below r and v+1 from r up, so the child of q with new last
  rank r is itemgetter(*q)(bump[r]) + (r,).
- A count needs no tuples, so the last level of a counting sequence is never
  built or unpacked: a set's count is the popcount of ranks 1..m+1 in the
  lanes of the prefixes that carry it, less the popcount of its packed
  mask in those lanes.
- The Wilf search drops a set's bit as soon as its count at some length
  differs from the target, so the orbits that diverge early cost nothing
  further.

Nearly all of a sweep's work lies in its last two lengths, nmax - 1 (built)
and nmax (counted), and a child has exactly one parent, so the subtrees
below the prefixes of length nmax - 2 are disjoint and can be counted apart.
`_tails` builds nmax - 1 below that level and counts nmax, giving one tally
per length, keyed by set bits as above.  With W > 1 processes, the level
is split into interleaved chunks level[w::W], so that neighbouring
prefixes, which cost about the same, go to different processes: each chunk
runs `_tails` in a child of `weaksort._fork`, and the tallies are summed.
A set dropped at nmax - 1 is still counted at nmax, but no row reads that
total, and a tally key counts each of its sets alone, so every other row is
exact.  W is `weaksort._fork.cpus()`, capped so that the split level holds
MIN_CHUNK prefixes per process: a small sweep never forks, and neither does
a sweep inside a forked job (each criterion of `weaksort verify`) or while
another thread runs, where `cpus()` is 1.
"""
from __future__ import annotations

import functools
import itertools
import operator
from collections import Counter
from operator import itemgetter
from typing import Iterable, NamedTuple, Sequence

from . import _fork
from .perms import (
    SYMMETRIES,
    PatternSet,
    Perm,
    _lane_bytes,
    _unpack,
    _windows,
    apply_symmetry,
    as_perm,
)

#: _BIT[k][v] is bit k of the byte v: runs of 2**k zeros and ones
_BIT = [(bytes(1 << k) + b"\1" * (1 << k)) * (128 >> k) for k in range(8)]


def _forbidden(
    level: list[Perm], bits: list[int], m: int, sets: Sequence[PatternSet]
) -> dict[int, int]:
    """
    The forbidden masks of the prefixes of length m, packed one lane per
    prefix, for each set that some prefix carries: its bit -> the OR of the
    windows of its patterns, from one `perms._windows` call for the level.
    """
    carried = functools.reduce(operator.or_, bits, 0)
    indices = [i for i in range(carried.bit_length()) if carried >> i & 1]
    windows = _windows(level, m, {tau for i in indices for tau in sets[i]})
    return {
        1 << i: functools.reduce(operator.or_, map(windows.__getitem__, sets[i]), 0)
        for i in indices
    }


def _next_level(
    level: list[Perm], bits: list[int], m: int, sets: Sequence[PatternSet]
) -> tuple[list[Perm], list[int]]:
    """The clean standardized extensions of the prefixes of length m, each
    with the bits of the sets it avoids."""
    ranks = range(1, m + 2)
    # bump[r][v]: entry v of a parent in its child with new last rank r
    bump = [tuple(v if v < r else v + 1 for v in range(m + 1)) for r in range(m + 2)]
    nbytes = _lane_bytes(m)
    masks = {
        bit: _unpack(forbidden, nbytes, len(level))
        for bit, forbidden in _forbidden(level, bits, m, sets).items()
    }
    out: list[Perm] = []
    out_bits: list[int] = []
    for at, (q, live) in enumerate(zip(level, bits)):
        # the sets that q carries, grouped by forbidden mask: mask -> bits
        groups: dict[int, int] = {}
        while live:
            bit = live & -live
            live ^= bit
            forbidden = masks[bit][at]
            groups[forbidden] = groups.get(forbidden, 0) | bit
        if m >= 2:
            take = itemgetter(*q)
        else:  # itemgetter needs an index, and one index returns a bare value
            take = lambda row, q=q: tuple(row[v] for v in q)  # noqa: E731
        for r in ranks:
            allow = 0
            for forbidden, sets in groups.items():
                if not forbidden >> r & 1:
                    allow |= sets
            if allow:
                out.append(take(bump[r]) + (r,))
                out_bits.append(allow)
    return out, out_bits


def _child_counts(
    level: list[Perm], bits: list[int], m: int, sets: Sequence[PatternSet]
) -> dict[int, int]:
    """
    The clean children of the prefixes of length m, counted without being
    built: a set's count is the m + 1 ranks of each prefix that carries it
    less the popcount of its forbidden mask there, two popcounts on the
    packed masks.  Totals are keyed by the bit of the set they count.
    """
    masks = _forbidden(level, bits, m, sets)
    nbytes = _lane_bytes(m)
    ranks = (1 << (m + 2)) - 2
    # each prefix's bits as a row of bytes: set i is bit i & 7 of byte i >> 3
    row = (max(masks, default=0).bit_length() + 7) // 8
    rows = b"".join([b.to_bytes(row, "little") for b in bits])
    tally: dict[int, int] = {}
    for bit, forbidden in masks.items():
        i = bit.bit_length() - 1
        flags = bytearray(nbytes * len(bits))
        flags[::nbytes] = rows[i >> 3 :: row].translate(_BIT[i & 7])
        # ranks 1..m + 1 in the lane of every prefix that carries the set
        live = int.from_bytes(flags, "little") * ranks
        tally[bit] = live.bit_count() - (forbidden & live).bit_count()
    return tally


def _spread(tally: dict[int, int], width: int) -> list[int]:
    """Per-set totals from totals keyed by the bits of the sets they count."""
    totals = [0] * width
    for bits, count in tally.items():
        while bits:
            bit = bits & -bits
            bits ^= bit
            totals[bit.bit_length() - 1] += count
    return totals


#: fewest prefixes of the split level that a process is given; below twice
#: this many the last two levels are counted in one process
MIN_CHUNK = 64


def _processes(size: int) -> int:
    """How many processes count the last two levels below a split level of
    size prefixes: at most `_fork.cpus()`, each with at least MIN_CHUNK
    prefixes, and at least one (this process alone)."""
    return max(1, min(_fork.cpus(), size // MIN_CHUNK))


def _tails(
    level: list[Perm], bits: list[int], m: int, sets: Sequence[PatternSet]
) -> list[dict[int, int]]:
    """The tallies of the two levels below prefixes of length m: the first
    built, the second counted."""
    level, bits = _next_level(level, bits, m, sets)
    return [Counter(bits), _child_counts(level, bits, m + 1, sets)]


def _split_tails(
    level: list[Perm], bits: list[int], m: int, sets: Sequence[PatternSet]
) -> list[dict[int, int]]:
    """`_tails` of the whole level: in this process, or, when `_processes`
    allows several, as the sums of `_tails` of the interleaved chunks
    level[w::processes], each in a forked child."""
    processes = _processes(len(level))
    if processes == 1:
        return _tails(level, bits, m, sets)
    chunks = [
        functools.partial(_tails, level[w::processes], bits[w::processes], m, sets)
        for w in range(processes)
    ]
    tallies: list[dict[int, int]] = [Counter(), Counter()]
    for part in _fork.run(chunks):
        for tally, counts in zip(tallies, part):
            tally.update(counts)
    return tallies


def _sweep(
    sets: Sequence[PatternSet], nmax: int, target: Sequence[int] | None = None
) -> list[list[int]]:
    """
    Carry every set through lengths 0..nmax on one shared level; return each
    set's counts.

    No level outlives the next, and `_split_tails` gives the last two
    levels' tallies.  With a target, a set whose count at length n differs
    from target[n] is dropped after n: its row stops there.
    """
    width = len(sets)
    rows: list[list[int]] = [[] for _ in sets]
    tracked = (1 << width) - 1
    # the empty pattern occurs in every permutation, the empty one included,
    # so its set has no prefix at all and counts 0 at every length
    live = sum(1 << i for i, patterns in enumerate(sets) if () not in patterns)
    level, bits = ([()], [live]) if live else ([], [])
    tails: list[dict[int, int]] = []
    for m in range(nmax + 1):
        if m == nmax - 1 > 0:
            tails = _split_tails(level, bits, m - 1, sets)
            # the tallies stand for both levels; a drop needs no level
            level, bits = [], []
        if tails:
            tally: dict[int, int] = tails.pop(0)
        else:
            if m:
                level, bits = _next_level(level, bits, m - 1, sets)
            tally = Counter(bits)
        counts = _spread(tally, width)
        dropped = 0
        for i in range(width):
            if tracked >> i & 1:
                rows[i].append(counts[i])
                if target is not None and counts[i] != target[m]:
                    dropped |= 1 << i
        if dropped:
            tracked &= ~dropped
            kept = [(q, b & tracked) for q, b in zip(level, bits) if b & tracked]
            level, bits = [q for q, _ in kept], [b for _, b in kept]
        if not tracked:
            break
    return rows


def counting_sequences(
    pattern_sets: Iterable[Iterable[Sequence[int]]], nmax: int
) -> list[list[int]]:
    """
    [|S_0(T)|, ..., |S_nmax(T)|] for each pattern set T, in order, by one
    pruned enumeration that carries all of them.

    >>> counting_sequences([[(1, 2)], [(1, 3, 2), (2, 3, 1)], []], 4)
    [[1, 1, 1, 1, 1], [1, 1, 2, 4, 8], [1, 1, 2, 6, 24]]

    The cost grows like the counting sequences themselves, which may be
    factorial; nmax is taken as given (the command line's size limit is in
    `weaksort.cli`).  Up to `weaksort._fork.cpus()` forked children count
    the last two lengths; the rows do not depend on their number.  Every
    pattern must be a permutation of 1..k, or a ValueError names it.
    """
    if nmax < 0:
        raise ValueError("nmax must be >= 0")
    sets = [frozenset(map(as_perm, patterns)) for patterns in pattern_sets]
    return _sweep(sets, nmax)


def counting_sequence(patterns: Iterable[Sequence[int]], nmax: int) -> list[int]:
    """[|S_0(T)|, ..., |S_nmax(T)|]: `counting_sequences` of one set."""
    return counting_sequences([patterns], nmax)[0]


def avoider_levels(patterns: Iterable[Sequence[int]], nmax: int) -> list[list[Perm]]:
    """
    [S_0(T), ..., S_nmax(T)]: the avoiders of every length up to nmax, each
    level in lexicographic order, by a loop of `_next_level` (`_sweep` only
    counts).  Every pattern must be a permutation of 1..k, or a ValueError
    names it.

    >>> avoider_levels([(1, 3, 2), (2, 3, 1)], 3)
    [[()], [(1,)], [(1, 2), (2, 1)], [(1, 2, 3), (2, 1, 3), (3, 1, 2), (3, 2, 1)]]
    """
    if nmax < 0:
        raise ValueError("nmax must be >= 0")
    pattern_set = frozenset(map(as_perm, patterns))
    # the empty pattern occurs in every permutation, the empty one included
    levels: list[list[Perm]] = [[] if () in pattern_set else [()]]
    for m in range(nmax):
        level = levels[m]
        levels.append(sorted(_next_level(level, [1] * len(level), m, [pattern_set])[0]))
    return levels


def enumerate_avoiders(n: int, patterns: Iterable[Sequence[int]]) -> list[Perm]:
    """
    All permutations of length n avoiding every given pattern, in
    lexicographic order: level n of `avoider_levels`.

    >>> enumerate_avoiders(2, [(3, 2, 1, 4), (4, 2, 1, 3)])
    [(1, 2), (2, 1)]
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    return avoider_levels(patterns, n)[n]


# --------------------------------------------------------------------------
# exhaustive search over triples of 4-letter patterns


class WilfSearchReport(NamedTuple):
    """Outcome of the search over all 2024 triples of 4-letter patterns."""

    target: tuple[int, ...]
    nmax: int
    #: canonical orbit representatives whose counting sequence matches the
    #: target through nmax, sorted lexicographically
    matches: tuple[tuple[Perm, ...], ...]
    #: number of distinct symmetry orbits of triples
    orbits_examined: int
    #: sum of orbit sizes; must equal C(24,3) = 2024
    triples_total: int
    #: (n, number of orbits whose count first differs from the target at
    #: length n), by increasing n
    diverged: tuple[tuple[int, int], ...]


def triple_orbits() -> dict[tuple[Perm, ...], int]:
    """
    Symmetry orbits of all C(24,3) triples of 4-letter patterns:
    canonical representative -> orbit size, in the order in which
    `itertools.combinations` first reaches each orbit.

    Each of the eight symmetries is a map on the 24 patterns, built once.
    The first triple of an orbit that `combinations` reaches gives the
    whole orbit as its eight sorted images: the representative is their
    least, as `perms.canonical_form` would give, and the orbit size their
    number.  Every later triple of the orbit is among them, so it is
    skipped.
    """
    s4 = list(itertools.permutations(range(1, 5)))
    maps = [
        {tau: min(apply_symmetry(name, frozenset([tau]))) for tau in s4}
        for name in SYMMETRIES
    ]
    seen: set[tuple[Perm, ...]] = set()
    orbits: dict[tuple[Perm, ...], int] = {}
    for triple in itertools.combinations(s4, 3):
        if triple not in seen:
            images = {tuple(sorted(map(m.get, triple))) for m in maps}
            seen |= images
            orbits[min(images)] = len(images)
    return orbits


def wilf_search(nmax: int, target: Sequence[int]) -> WilfSearchReport:
    """
    Find every symmetry orbit of triples of 4-letter patterns whose counting
    sequence agrees with target through length nmax.

    nmax must be at least 6: every triple has the same counts up to n=4, so
    shorter prefixes under-discriminate.  All orbits go through one shared
    enumeration, and an orbit is dropped at the first length where its
    count differs from the target.
    """
    if nmax < 6:
        raise ValueError("nmax must be >= 6 for a meaningful search")
    if len(target) < nmax + 1:
        raise ValueError(f"target must supply counts for n=0..{nmax}")
    prefix = tuple(target[: nmax + 1])
    orbits = triple_orbits()
    reps = list(orbits)
    sets = [frozenset(rep) for rep in reps]
    rows = _sweep(sets, nmax, target=prefix)
    matches = sorted(rep for rep, row in zip(reps, rows) if tuple(row) == prefix)
    diverged = Counter(len(row) - 1 for row in rows if tuple(row) != prefix)
    return WilfSearchReport(
        target=prefix,
        nmax=nmax,
        matches=tuple(matches),
        orbits_examined=len(orbits),
        triples_total=sum(orbits.values()),
        diverged=tuple(sorted(diverged.items())),
    )
