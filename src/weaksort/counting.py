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

Many pattern sets go through one shared level.  A prefix is a prefix of an
avoider of several sets at once, so each level is one set of prefixes, and
each prefix carries a flag for each set it avoids.  A child has exactly one
parent, so no prefix is ever built twice.  `weaksort.levels` holds the
level's format and every step over it: the forbidden masks of a level's
children, one bit-lane per prefix, building them and counting them, all in
C with no loop per prefix.  This module keeps the sweep's bookkeeping: which
sets a level carries, which lengths are shared, which are split off, and
the public API.  A level is counted before it is built, and the last level
of a counting sequence is never built.  The Wilf search drops a set as soon
as its count at some length differs from the target, before the level of
that length is built: the level is built without its flag column, and the
prefixes that carry no other set get no child, so the orbits that diverge
early cost nothing further.  Children come grouped by rank, not by parent;
no count depends on their order, and `avoider_levels` sorts each level it
lists.

Sets can differ only from their shortest pattern on.  With k the shortest
pattern length of all the sets, every prefix shorter than k avoids every
set, so lengths 0..k-1 are built once, for no set in particular: their one
flag column is `_ALL`'s, a set with no pattern, and one list holds their
counts, m! at length m, for every set.  At length k the level is every
permutation of length k, and a set's count is k! less its k-letter
patterns, with no level built; a prefix carries the set unless it equals
one of them, and `levels._flagged` finds those prefixes by matching the
byte columns, without listing the k! prefixes.  So the 317 orbits of
`wilf_search` share lengths 0 to 4, all count 21 at length 4, and only
the 21 that count 79 at length 5 have that level built.  The shared
levels stop at nmax - 2, where the last two lengths are split off
(below).  The empty pattern has length 0, so k = 0: nothing is shared,
and its set carries no prefix.

Nearly all of a sweep's work lies in its last two lengths, nmax - 1 (built)
and nmax (counted), and a child has exactly one parent, so the subtrees
below the prefixes of length nmax - 2 are disjoint and can be counted apart.
`_tails` counts nmax - 1 below that level, builds it and counts nmax: one tally
per length, by set.  With W > 1 processes, the level is split into
interleaved chunks (`levels._chunks`, prefix i in chunk i mod W), so that
neighbouring prefixes, which cost about the same, go to different
processes: each chunk runs `_tails` in a child of `weaksort._fork`, and the
tallies are summed.  A set dropped at nmax - 1 is still counted at nmax,
but no row reads that total, and a tally counts each set alone, so every
other row is exact.  W is `weaksort._fork.cpus()`, capped so that the split
level holds MIN_CHUNK prefixes per process.  A fork and its wait cost a few
milliseconds, and since levels are built in C a chunk needs thousands of
prefixes to earn them back: MIN_CHUNK's comment gives the measured
crossover.  So `search --n 8` (at most 720 prefixes at length 6) and the
five classes to n = 10 (14,287 at length 8) count in one process; the five
classes first fork at n = 11 (64,455 at length 9), past the command line's
default size limit.  No sweep forks inside a forked job (each criterion
of `weaksort verify`) or while another thread runs, where `cpus()` is 1.
"""
from __future__ import annotations

import functools
import itertools
from collections import Counter
from typing import Iterable, NamedTuple, Sequence

from . import _fork
from .levels import _EMPTY, MAX_ENTRY, _Level, _chunks, _child_counts, _flagged, _forbidden
from .levels import _next_level, _root, _rows
from .perms import SYMMETRIES, PatternSet, Perm, _apply_word, as_perm

#: the flag of the levels below every set's shortest pattern, which every
#: prefix carries: a set with no pattern, so its forbidden mask is 0
_ALL = -1


#: fewest prefixes of the split level that a process is given; below twice
#: this many the last two levels are counted in one process.  The five
#: classes, timed after import in fresh processes on 2 CPUs (Python
#: 3.11.7), forked against one process in alternating pairs: at a split
#: level of 14,287 prefixes (n = 10) the fork lost 15 of 16 pairs, medians
#: 0.072 s against 0.064 s; at 64,455 (n = 11) it won 9 of 16, 0.34 s
#: against 0.35 s, and 0.25 s against 0.39 s whenever the host ran both
#: children at once; at 285,627 (n = 12) it won 5 of 5, 1.0-1.4 s against
#: 1.9-2.4 s
MIN_CHUNK = 16384


def _processes(size: int) -> int:
    """How many processes count the last two levels below a split level of
    size prefixes: at most `_fork.cpus()`, each with at least MIN_CHUNK
    prefixes, and at least one (this process alone)."""
    return max(1, min(_fork.cpus(), size // MIN_CHUNK))


def _tails(level: _Level, sets: Sequence[PatternSet]) -> list[dict[int, int]]:
    """The tallies of the two levels below the level, each counted by
    `_child_counts` before it is built; the second is never built."""
    forbidden = _forbidden(level, sets)
    first = _child_counts(level, forbidden)
    level = _next_level(level, forbidden)
    return [first, _child_counts(level, _forbidden(level, sets))]


def _split_tails(level: _Level, sets: Sequence[PatternSet]) -> list[dict[int, int]]:
    """`_tails` of the whole level: in this process, or, when `_processes`
    allows several, as the sums of `_tails` of the level's interleaved
    chunks, each in a forked child."""
    processes = _processes(level.count)
    if processes == 1:
        return _tails(level, sets)
    chunks = [functools.partial(_tails, chunk, sets) for chunk in _chunks(level, processes)]
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

    Let k be the shortest pattern length of all the sets.  Every prefix
    shorter than k avoids every set, so those levels are built once,
    flagged for no set in particular (`_ALL`), and one list holds their
    counts for every set.  At length k a set counts k! less its k-letter
    patterns, one prefix each, and `_flagged` gives it flags; the empty
    pattern makes k = 0, and its set carries no prefix from there on.  The
    shared levels stop at nmax - 2, since `_split_tails` gives the last two
    levels' tallies.  Each level between is counted by `_child_counts`
    before it is built, and built only for the sets still tracked: with a
    target, a set whose count at length n differs from target[n] is
    dropped after n, so its row stops there, and the prefixes that carry
    no other set get no child.  No level outlives the next.
    """
    if nmax > MAX_ENTRY + 1:
        raise ValueError(
            f"nmax must be <= {MAX_ENTRY + 1}: enumeration holds entries in bytes"
        )
    if not sets:
        return []
    patterns = set().union(*sets)
    k = min(map(len, patterns), default=nmax + 1)
    # the last length built here: _split_tails gives nmax - 1 and nmax
    top = nmax - 2 if nmax > 1 else nmax
    level = _root(_ALL)
    common: list[int] = []
    for m in range(min(k, top + 1)):
        if m:
            level = _next_level(level, {_ALL: 0})
        common.append(level.count)
        if target is not None and level.count != target[m]:
            break
    rows = [list(common) for _ in sets]
    if target is not None and common != list(target[: len(common)]):
        return rows
    tracked = set(range(len(sets)))

    def record(m: int, tally: dict[int, int]) -> bool:
        # append each tracked set's count at length m, drop those off the
        # target, and tell whether any set is left
        for i in list(tracked):
            rows[i].append(tally.get(i, 0))
            if target is not None and rows[i][-1] != target[m]:
                tracked.discard(i)
        return bool(tracked)

    def own(level: _Level) -> _Level:
        return level._replace(flags={i: f for i, f in level.flags.items() if i in tracked})

    if k <= top:
        if k:
            level = _next_level(level, {_ALL: 0})
        short = {tau for tau in patterns if len(tau) == k}
        if not record(k, {i: level.count - len(p & short) for i, p in enumerate(sets)}):
            return rows
    level = _flagged(level, sets, tracked)
    for m in range(k + 1, top + 1):
        forbidden = _forbidden(level, sets)
        if not record(m, _child_counts(level, forbidden)):
            return rows
        level = _next_level(own(level), forbidden)
    if nmax > 1:
        for m, tally in zip((nmax - 1, nmax), _split_tails(own(level), sets)):
            if not record(m, tally):
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
    `weaksort.cli`) up to MAX_ENTRY + 1 = 256, past which a ValueError
    says that entries are held in bytes.  When the level of length
    nmax - 2 holds at least 2 * MIN_CHUNK prefixes, up to
    `weaksort._fork.cpus()` forked children count the last two lengths;
    the rows do not depend on their number.  Every pattern must be a
    permutation of 1..k, or a ValueError names it.
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
    names it; so does an nmax above MAX_ENTRY, since each level is built.

    >>> avoider_levels([(1, 3, 2), (2, 3, 1)], 3)
    [[()], [(1,)], [(1, 2), (2, 1)], [(1, 2, 3), (2, 1, 3), (3, 1, 2), (3, 2, 1)]]
    """
    if nmax < 0:
        raise ValueError("nmax must be >= 0")
    if nmax > MAX_ENTRY:
        raise ValueError(f"nmax must be <= {MAX_ENTRY}: enumeration holds entries in bytes")
    pattern_set = frozenset(map(as_perm, patterns))
    # the empty pattern occurs in every permutation, the empty one included
    level = _EMPTY if () in pattern_set else _root(0)
    listed = [_rows(level.columns, level.count)]
    for _ in range(nmax):
        level = _next_level(level, _forbidden(level, [pattern_set]))
        listed.append(sorted(_rows(level.columns, level.count)))
    return listed


def enumerate_avoiders(n: int, patterns: Iterable[Sequence[int]]) -> list[Perm]:
    """
    All permutations of length n avoiding every given pattern, in
    lexicographic order: level n of `avoider_levels`, so n is at most
    MAX_ENTRY.

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

    The 24 patterns are indexed in lexicographic order, and a triple of
    them is the 24-bit mask of its indices.  Each of the eight symmetries
    is a map from index to the bit of its image, built once, so a triple's
    image is the OR of three bits, with no sorting.  `combinations` reaches
    the triples in lexicographic order, so the first triple of an orbit
    that it reaches is the least of the orbit's eight sorted images, as
    `perms.canonical_form` would give: it is the representative, and the
    orbit size is the number of distinct images.  Every later triple of
    the orbit is among them, so it is skipped.
    """
    s4 = list(itertools.permutations(range(1, 5)))
    index = {tau: a for a, tau in enumerate(s4)}
    bits = [[1 << index[_apply_word(word, tau)] for tau in s4] for word in SYMMETRIES.values()]
    seen: set[int] = set()
    orbits: dict[tuple[Perm, ...], int] = {}
    for a, b, c in itertools.combinations(range(len(s4)), 3):
        if 1 << a | 1 << b | 1 << c not in seen:
            images = {m[a] | m[b] | m[c] for m in bits}
            seen |= images
            orbits[s4[a], s4[b], s4[c]] = len(images)
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
