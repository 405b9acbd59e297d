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
avoider of several sets at once, so each level is one set of prefixes, and
each prefix carries a flag for each set it avoids.  A child has exactly one
parent, so no prefix is ever built twice.  A level of length m is a
`_Level`: m byte columns, column j holding entry j of every prefix, and one
column of 0/1 flags for each set that some prefix carries.  Every step
runs in C over the whole level, with no loop per prefix:

- The planes of `perms._windows` are translations of the columns, and a
  set's carriers are its flags spread one to a lane.
- The children of rank r are kept where some set is carried and r lies
  outside its forbidden mask: for set i, the lanes carriers_i &
  ~(forbidden_i >> r), read at bit 0 of each lane, and their OR selects
  the parents.  Each column of the next level is the column with the
  other parents' entries set to 0, through one `bytes.translate` that
  deletes the 0s (no entry is 0) and maps v to v below r and to v + 1
  from r up.  The new last column is r for each kept parent, and each
  set's flags are compressed alike, 2 marking those to delete.  Children
  therefore come grouped by rank, not by parent; no count depends on
  their order, and `avoider_levels` sorts each level it lists.
- An entry is one byte, so no level longer than MAX_ENTRY = 255 is built:
  a counting sweep reaches nmax = 256, since it never builds its last
  level, and a listing reaches 255.
- A count needs no level, so a level's children are counted before they
  are built, from the forbidden masks that building them reads too: a
  set's count is the popcount of ranks 1..m+1 in the lanes of the
  prefixes that carry it, less the popcount of its forbidden mask in
  those lanes.  The last level of a counting sequence is never built, and
  a built level's count for a set is the number of its flags that are 1.
- The Wilf search drops a set as soon as its count at some length differs
  from the target, before the level of that length is built: the level is
  built without its flag column, and the prefixes that carry no other set
  get no child, so the orbits that diverge early cost nothing further.

Sets can differ only from their shortest pattern on.  With k the shortest
pattern length of all the sets, every prefix shorter than k avoids every
set, so lengths 0..k-1 are built once, for no set in particular: their one
flag column is `_ALL`'s, a set with no pattern, and one list holds their
counts, m! at length m, for every set.  At length k the level is every
permutation of length k, and a set's count is k! less its k-letter
patterns, with no level built; a prefix carries the set unless it equals
one of them, and `_flagged` finds those prefixes by matching the byte
columns, one `bytes.translate` of each column per pattern, without
listing the k! prefixes.  So the 317 orbits of `wilf_search` share
lengths 0 to 4, all count 21 at length 4, and only the 21 that count 79
at length 5 have that level built.  The shared levels stop at nmax - 2,
where the last two lengths are split off (below).  The empty pattern has
length 0, so k = 0: nothing is shared, and its set carries no prefix.

Nearly all of a sweep's work lies in its last two lengths, nmax - 1 (built)
and nmax (counted), and a child has exactly one parent, so the subtrees
below the prefixes of length nmax - 2 are disjoint and can be counted apart.
`_tails` builds nmax - 1 below that level and counts nmax, giving one tally
per length, by set.  With W > 1 processes, the level is split into
interleaved chunks, each column and flag column sliced [w::W], so that
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
import operator
from collections import Counter
from typing import Collection, Iterable, NamedTuple, Sequence

from . import _fork
from .perms import (
    SYMMETRIES,
    PatternSet,
    Perm,
    _apply_word,
    _lane_bytes,
    _windows,
    as_perm,
)

#: the largest entry a byte column holds, and so the longest level built
MAX_ENTRY = 255


class _Level(NamedTuple):
    """The prefixes of one length m, held as byte columns."""

    #: number of prefixes
    count: int
    #: m columns: column j holds entry j of every prefix, one byte each
    columns: list[bytes]
    #: set index -> one byte per prefix, 1 where the prefix carries the set;
    #: only the sets that some prefix carries, or `_ALL` alone below the
    #: shortest pattern
    flags: dict[int, bytes]


_EMPTY = _Level(0, [], {})

#: the flag of the levels below every set's shortest pattern, which every
#: prefix carries: a set with no pattern, so its forbidden mask is 0
_ALL = -1


def _lanes(flags: bytes, nbytes: int) -> int:
    """The 0/1 flags as one integer, flag i at bit 0 of lane i."""
    lanes = bytearray(nbytes * len(flags))
    lanes[::nbytes] = flags
    return int.from_bytes(lanes, "little")


def _forbidden(level: _Level, sets: Sequence[PatternSet]) -> dict[int, int]:
    """
    The forbidden masks of the level's prefixes, packed one lane per
    prefix, for each set that some prefix carries: its index -> the OR of
    the windows of its patterns, from one `perms._windows` call for the
    level.
    """
    patterns = {tau for i in level.flags for tau in sets[i]}
    windows = _windows(level.columns, level.count, patterns)
    return {
        i: functools.reduce(operator.or_, map(windows.__getitem__, sets[i]), 0)
        for i in level.flags
    }


def _next_level(level: _Level, forbidden: dict[int, int]) -> _Level:
    """The clean standardized extensions of the level's prefixes, grouped by
    new last rank, each flagged for the sets it avoids, given the level's
    forbidden masks of every set it carries."""
    count, columns, flags = level
    m = len(columns)
    nbytes = _lane_bytes(m)
    size = nbytes * count
    carriers = {i: _lanes(f, nbytes) for i, f in flags.items()}
    everyone = _lanes(b"\1" * count, nbytes)
    entries = [int.from_bytes(column, "little") for column in columns]
    out_columns: list[list[bytes]] = [[] for _ in range(m + 1)]
    out_flags: dict[int, list[bytes]] = {i: [] for i in flags}
    for r in range(1, m + 2):
        # bit 0 of lane p: p carries set i and its child of rank r avoids it
        keep = {i: lanes & ~(forbidden[i] >> r) for i, lanes in carriers.items()}
        kept = functools.reduce(operator.or_, keep.values(), 0)
        if not kept:
            continue
        # the prefixes without a child of rank r are compressed out by
        # translate's delete: their entries become 0, which no entry is,
        # and their flags 2
        entry_mask = int.from_bytes(kept.to_bytes(size, "little")[::nbytes], "little") * 255
        flag_drop = (everyone ^ kept) << 1
        # entry v of a parent in its child of rank r: v below r, v + 1 from r up
        bump = bytes(range(r)) + bytes(range(r + 1, 256)) + b"\xff"
        for out, entry in zip(out_columns, entries):
            out.append((entry & entry_mask).to_bytes(count, "little").translate(bump, b"\0"))
        out_columns[m].append(bytes([r]) * kept.bit_count())
        for i, lanes in keep.items():
            own = (lanes | flag_drop).to_bytes(size, "little")[::nbytes]
            out_flags[i].append(own.translate(None, b"\2"))
    new_columns = [b"".join(parts) for parts in out_columns]
    new_flags = {i: b"".join(parts) for i, parts in out_flags.items()}
    return _Level(len(new_columns[m]), new_columns, _carried(new_flags))


def _child_counts(level: _Level, forbidden: dict[int, int]) -> dict[int, int]:
    """
    The clean children of the level's prefixes, counted without being
    built, given the level's forbidden masks of every set it carries: a
    set's count is the m + 1 ranks of each prefix that carries it less the
    popcount of its forbidden mask there, two popcounts on the packed
    masks.  Totals are keyed by set index.
    """
    m = len(level.columns)
    nbytes = _lane_bytes(m)
    ranks = (1 << (m + 2)) - 2
    tally: dict[int, int] = {}
    for i, flags in level.flags.items():
        # ranks 1..m + 1 in the lane of every prefix that carries the set
        live = _lanes(flags, nbytes) * ranks
        tally[i] = flags.count(1) * (m + 1) - (forbidden[i] & live).bit_count()
    return tally


def _flagged(level: _Level, sets: Sequence[PatternSet], keep: Collection[int]) -> _Level:
    """
    A level of every permutation of its length m, flagged for each set in
    keep, none of which has a pattern shorter than m: the set is carried
    by every prefix but those equal to one of its m-letter patterns.  A
    pattern's prefix is found by matching the byte columns, one
    `bytes.translate` of each, not by listing the prefixes.
    """
    count, columns, _ = level
    m = len(columns)
    everyone = int.from_bytes(b"\1" * count, "little")
    hits: dict[Perm, int] = {}
    for tau in {tau for i in keep for tau in sets[i] if len(tau) == m}:
        # 1 in the byte of each prefix whose entry j is tau[j], for every j
        match = everyone
        for column, v in zip(columns, tau):
            match &= int.from_bytes(column.translate(bytes(v) + b"\1" + bytes(255 - v)), "little")
        hits[tau] = match
    flags = {}
    for i in keep:
        found = functools.reduce(operator.or_, map(hits.__getitem__, hits.keys() & sets[i]), 0)
        flags[i] = (everyone ^ found).to_bytes(count, "little")
    return _Level(count, columns, _carried(flags))


def _tally(level: _Level) -> dict[int, int]:
    """How many prefixes of the level carry each set, by set index."""
    return {i: flags.count(1) for i, flags in level.flags.items()}


def _carried(flags: dict[int, bytes]) -> dict[int, bytes]:
    """The flag columns of the sets that some prefix carries."""
    return {i: f for i, f in flags.items() if 1 in f}


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
    """The tallies of the two levels below the level: the first built, the
    second counted."""
    level = _next_level(level, _forbidden(level, sets))
    return [_tally(level), _child_counts(level, _forbidden(level, sets))]


def _split_tails(level: _Level, sets: Sequence[PatternSet]) -> list[dict[int, int]]:
    """`_tails` of the whole level: in this process, or, when `_processes`
    allows several, as the sums of `_tails` of the interleaved chunks, each
    column and flag column sliced [w::processes], each in a forked child."""
    processes = _processes(level.count)
    if processes == 1:
        return _tails(level, sets)
    chunks = []
    for w in range(processes):
        chunk = _Level(
            len(range(w, level.count, processes)),
            [column[w::processes] for column in level.columns],
            _carried({i: f[w::processes] for i, f in level.flags.items()}),
        )
        chunks.append(functools.partial(_tails, chunk, sets))
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
    level = _Level(1, [], {_ALL: b"\1"})
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
    level = _EMPTY if () in pattern_set else _Level(1, [], {0: b"\1"})
    levels: list[list[Perm]] = [[()] * level.count]
    for _ in range(nmax):
        level = _next_level(level, _forbidden(level, [pattern_set]))
        levels.append(sorted(zip(*level.columns)))
    return levels


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
