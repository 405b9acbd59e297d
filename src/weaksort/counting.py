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

Each extension only needs to look for pattern occurrences that use the new
last entry: the rest of the prefix was already checked.  Those are found
once per parent q of length m, for all m+1 children together, as a set of
forbidden insertion ranks.  Split a pattern tau into its head tau[:-1] and
its last letter.  For every occurrence of the standardized head in q, let lo
be the largest value among the head letters that lie below tau[-1] (0 if
none) and hi the smallest among those above it (m+1 if none).  The child
with new last rank r ends an occurrence of tau on that head exactly when
lo < r <= hi: the entries below r keep their values and those from r up are
bumped.  The windows of all occurrences of a set's patterns form its
forbidden mask, and only the ranks outside it are extended.

A head of length 3, which every 4-letter pattern has, is not read
occurrence by occurrence.  One pass runs over the position j of its middle
letter y = q[j], with the values left of j and those right of j as two
bitmasks.  The first head letter x ranges over the left values and the last
letter z over the right ones, each on the side of y that the head gives it.
When x and z lie on the same side of y, the head also fixes their order, so
only values with a partner are kept: x below the largest z and z above the
least x, or the mirror image.  A window's lo is then 0, y, or the least
kept value of x or z, and its hi is y, the largest kept value of x or z, or
m+1; a bitmask's largest value is read off with `bit_length`, its least as
its lowest set bit.  For one j the occurrence windows union to one
interval, because the pair of extreme kept values is itself an occurrence
and its window holds every other.  A parent thus costs O(m) mask steps per
head, not one step per occurrence (O(m^3)).  Heads of every other length,
from patterns of any length but 4, list their occurrences with
`perms.occurrences`, the one containment matcher.

Many pattern sets go through one shared level.  A prefix is a prefix of an
avoider of several sets at once, so each level is one list of prefixes, and
each prefix carries a bitmask of the sets it avoids (bit i for set i).  A
child has exactly one parent, so no prefix is ever built twice.  The work
per parent stays small:

- Each standardized head (1234 and 1243 share 123) is scanned at most once
  per parent, and only when a set the parent carries has a pattern with
  that head.  One scan gives the window of every (lo_at, hi_at) bound that
  the head takes in any set, and each set ORs its own windows into its
  forbidden mask.
- The sets are grouped by forbidden mask, and a child is built once per
  rank that some group allows, carrying the bits of those groups.  A parent
  whose sets all agree (always, for a single set) extends its allowed ranks
  in one run.
- Children are built by indexing, not by a loop per entry: for each level,
  bump[r][v] is v below r and v+1 from r up, so the child of q with new last
  rank r is itemgetter(*q)(bump[r]) + (r,).
- A count needs no tuples, so the last level of a counting sequence is never
  built: parent q gives each set in a group len(q) + 1 - popcount(mask)
  clean children, and a set's count is the sum of that over its parents.
- The Wilf search drops a set's bit as soon as its count at some length
  differs from the target, so the orbits that diverge early cost nothing
  further.

Nearly all of a sweep's work lies in its last two lengths, nmax - 1 (built)
and nmax (counted), and a child has exactly one parent, so the subtrees
below the prefixes of length nmax - 2 are disjoint and can be counted apart.
With workers > 1 and no level kept, that level is split into interleaved
chunks level[w::W], so that neighbouring prefixes, which cost about the
same, go to different processes: each chunk builds its share of length
nmax - 1 and counts its share of nmax in a child of `weaksort._fork`, and
the tallies, keyed by set bits as above, are summed.  A set dropped at
nmax - 1 is still counted at nmax by the children, but no row reads that
total, and a tally key counts each of its sets alone, so every other row
is exact.  The split level must hold MIN_CHUNK prefixes per process, so a
small sweep never forks.  The library default is one process, as
`acceptance.run_all` already runs the criteria one per CPU.
"""
from __future__ import annotations

import functools
import itertools
from collections import Counter
from dataclasses import dataclass
from operator import itemgetter
from typing import Iterable, Sequence

from . import _fork
from .perms import (
    SYMMETRIES,
    PatternSet,
    Perm,
    apply_symmetry,
    letter_bounds,
    occurrences,
    standardize,
)

#: each standardized head with the distinct (lo_at, hi_at) window bounds it
#: takes in any set
Heads = list[tuple[Perm, list[tuple[int, int]]]]
#: for each set, the index of each head of its patterns, with the indices of
#: the bounds its patterns take there
Keys = list[list[tuple[int, list[int]]]]


def _table(sets: Sequence[PatternSet]) -> tuple[Heads, Keys]:
    """
    Each nonempty pattern as its standardized head and the head letters that
    bound its window: the largest below the last letter and the smallest
    above it (-1 if none), the last entry of `perms.letter_bounds`.
    Patterns that share a head, in one set or in several, share one entry.
    """
    index: dict[Perm, int] = {}
    heads: Heads = []
    keys: Keys = []
    for patterns in sets:
        own: dict[int, list[int]] = {}
        for tau in patterns:
            if not tau:
                continue  # such a set never reaches a level
            head = standardize(tau[:-1])
            lo_at, hi_at = letter_bounds(tuple(tau))[-1]
            if head not in index:
                index[head] = len(heads)
                heads.append((head, []))
            h = index[head]
            bounds = heads[h][1]
            if (lo_at, hi_at) not in bounds:
                bounds.append((lo_at, hi_at))
            b = bounds.index((lo_at, hi_at))
            if b not in own.setdefault(h, []):
                own[h].append(b)
        keys.append(list(own.items()))
    return heads, keys


def _windows(prefix: Perm, head: Perm, bounds: list[tuple[int, int]]) -> list[int]:
    """For each bound of head, the bitmask of the new last ranks r whose
    child ends an occurrence on an occurrence of head in prefix."""
    if len(head) == 3:
        return _middle_pass(prefix, head, bounds)
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


def _middle_pass(prefix: Perm, head: Perm, bounds: list[tuple[int, int]]) -> list[int]:
    """
    `_windows` for a head of length 3, without listing its occurrences: one
    pass over the position of the middle letter y, with the values before
    it and after it as bitmasks.  The first letter x is drawn from those
    before and the last letter z from those after, each on its own side of
    y; on the same side they are coupled by their order in the head.  The
    slice's union of windows is the window of its extreme pair.
    """
    windows = [0] * len(bounds)
    m = len(prefix)
    if m < 3:
        return windows
    a, b, c = head
    x_below, z_below, x_first = a < b, c < b, a < c
    coupled = x_below == z_below
    top = 4 << m  # 2 << hi for hi = m + 1
    before = 1 << prefix[0]
    after = (1 << (m + 1)) - 2 - before
    for y in prefix[1:-1]:
        bit = 1 << y
        after ^= bit
        xs = before & (bit - 1) if x_below else before & -(bit << 1)
        zs = after & (bit - 1) if z_below else after & -(bit << 1)
        before |= bit
        if not (xs and zs):
            continue
        if coupled:
            if x_first:  # x < z: keep x below the largest z, z above the least x
                xs &= (1 << (zs.bit_length() - 1)) - 1
                if not xs:
                    continue
                zs &= -((xs & -xs) << 1)
            else:  # the mirror image
                zs &= (1 << (xs.bit_length() - 1)) - 1
                if not zs:
                    continue
                xs &= -((zs & -zs) << 1)
        # 2 << lo and 2 << hi for the letter at each head position (x, y,
        # z): lo is its least kept value, hi its largest, so the window
        # (lo, hi] is highs[hi_at] - lows[lo_at]; position -1 (no such
        # letter) reads lo = 0 and hi = m + 1
        lows = ((xs & -xs) << 1, bit << 1, (zs & -zs) << 1, 2)
        highs = (1 << xs.bit_length(), bit << 1, 1 << zs.bit_length(), top)
        for k, (lo_at, hi_at) in enumerate(bounds):
            windows[k] |= highs[hi_at] - lows[lo_at]
    return windows


def _groups(prefix: Perm, live: int, heads: Heads, keys: Keys) -> dict[int, int]:
    """
    The sets whose bits are in live, grouped by forbidden mask at prefix:
    mask -> bits of the sets that have it.  A head is scanned only when a
    live set needs it, and then once.
    """
    if not live & (live - 1):
        # one set: each of its heads is scanned once, so nothing is kept
        forbidden = 0
        for h, bs in keys[live.bit_length() - 1]:
            windows = _windows(prefix, *heads[h])
            for b in bs:
                forbidden |= windows[b]
        return {forbidden: live}
    windows: dict[int, list[int]] = {}
    groups: dict[int, int] = {}
    while live:
        bit = live & -live
        live ^= bit
        forbidden = 0
        for h, bs in keys[bit.bit_length() - 1]:
            w = windows.get(h)
            if w is None:
                w = windows[h] = _windows(prefix, *heads[h])
            for b in bs:
                forbidden |= w[b]
        groups[forbidden] = groups.get(forbidden, 0) | bit
    return groups


def _next_level(
    level: list[Perm], bits: list[int], m: int, heads: Heads, keys: Keys
) -> tuple[list[Perm], list[int]]:
    """The clean standardized extensions of the prefixes of length m, each
    with the bits of the sets it avoids."""
    ranks = range(1, m + 2)
    # bump[r][v]: entry v of a parent in its child with new last rank r
    bump = [tuple(v if v < r else v + 1 for v in range(m + 1)) for r in range(m + 2)]
    out: list[Perm] = []
    out_bits: list[int] = []
    for q, live in zip(level, bits):
        groups = _groups(q, live, heads, keys)
        if m >= 2:
            take = itemgetter(*q)
        else:  # itemgetter needs an index, and one index returns a bare value
            take = lambda row, q=q: tuple(row[v] for v in q)  # noqa: E731
        if len(groups) == 1:
            ((forbidden, live),) = groups.items()
            kids = [take(bump[r]) + (r,) for r in ranks if not forbidden >> r & 1]
            out += kids
            out_bits += [live] * len(kids)
            continue
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
    level: list[Perm], bits: list[int], m: int, heads: Heads, keys: Keys
) -> dict[int, int]:
    """
    The clean children of the prefixes of length m, counted without being
    built: each parent gives every set of a group m + 1 - popcount(mask)
    children.  Totals are keyed by the bits of the sets they count.
    """
    tally: dict[int, int] = {}
    for q, live in zip(level, bits):
        for forbidden, sets in _groups(q, live, heads, keys).items():
            tally[sets] = tally.get(sets, 0) + m + 1 - forbidden.bit_count()
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


def _processes(workers: int, size: int) -> int:
    """How many processes count the last two levels below a split level of
    size prefixes: at most workers, each with at least MIN_CHUNK prefixes,
    and at least one (this process alone)."""
    return max(1, min(workers, size // MIN_CHUNK))


def _tails(
    level: list[Perm], bits: list[int], m: int, heads: Heads, keys: Keys
) -> list[dict[int, int]]:
    """The tallies of the two levels below prefixes of length m: the first
    built, the second counted."""
    level, bits = _next_level(level, bits, m, heads, keys)
    return [Counter(bits), _child_counts(level, bits, m + 1, heads, keys)]


def _forked_tails(
    level: list[Perm], bits: list[int], m: int, heads: Heads, keys: Keys, processes: int
) -> list[dict[int, int]]:
    """`_tails` of the whole level, as the sums of `_tails` of the
    interleaved chunks level[w::processes], each in a forked child."""
    chunks = [
        functools.partial(_tails, level[w::processes], bits[w::processes], m, heads, keys)
        for w in range(processes)
    ]
    tallies: list[dict[int, int]] = [Counter(), Counter()]
    for part in _fork.run(chunks, processes):
        for tally, counts in zip(tallies, part):
            tally.update(counts)
    return tallies


def _sweep(
    sets: Sequence[PatternSet],
    nmax: int,
    target: Sequence[int] | None = None,
    keep: bool = False,
    workers: int = 1,
) -> tuple[list[list[int]], list[list[Perm]]]:
    """
    Carry every set through lengths 0..nmax on one shared level; return each
    set's counts and, if keep, every level, each sorted.

    The last level is counted, not built, unless keep; without keep no
    level outlives the next.  With a target, a set whose count at length n
    differs from target[n] is dropped after n: its row stops there.
    Without keep, up to workers processes count the last two levels.
    """
    width = len(sets)
    heads, keys = _table(sets)
    rows: list[list[int]] = [[] for _ in sets]
    tracked = (1 << width) - 1
    # the empty pattern occurs in every permutation, the empty one included,
    # so its set has no prefix at all and counts 0 at every length
    live = sum(1 << i for i, patterns in enumerate(sets) if () not in patterns)
    level, bits = ([()], [live]) if live else ([], [])
    levels: list[list[Perm]] = []
    tails: list[dict[int, int]] = []
    for m in range(nmax + 1):
        if m == nmax - 1 > 0 and not keep:
            processes = _processes(workers, len(level))
            if processes > 1:
                tails = _forked_tails(level, bits, m - 1, heads, keys, processes)
                # the tallies stand for both levels; a drop needs no level
                level, bits = [], []
        if tails:
            tally: dict[int, int] = tails.pop(0)
        elif m == nmax > 0 and not keep:
            tally = _child_counts(level, bits, m - 1, heads, keys)
        else:
            if m:
                level, bits = _next_level(level, bits, m - 1, heads, keys)
            tally = Counter(bits)
            if keep:
                levels.append(sorted(level))
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
    return rows, levels


def counting_sequences(
    pattern_sets: Iterable[Iterable[Sequence[int]]], nmax: int, *, workers: int = 1
) -> list[list[int]]:
    """
    [|S_0(T)|, ..., |S_nmax(T)|] for each pattern set T, in order, by one
    pruned enumeration that carries all of them.

    >>> counting_sequences([[(1, 2)], [(1, 3, 2), (2, 3, 1)], []], 4)
    [[1, 1, 1, 1, 1], [1, 1, 2, 4, 8], [1, 1, 2, 6, 24]]

    The cost grows like the counting sequences themselves, which may be
    factorial; nmax is taken as given (the command line's size limit is in
    `weaksort.cli`).  Up to workers forked children count the last two
    lengths; the rows do not depend on workers.
    """
    if nmax < 0:
        raise ValueError("nmax must be >= 0")
    sets = [frozenset(tuple(t) for t in patterns) for patterns in pattern_sets]
    return _sweep(sets, nmax, workers=workers)[0]


def counting_sequence(
    patterns: Iterable[Sequence[int]], nmax: int, *, workers: int = 1
) -> list[int]:
    """[|S_0(T)|, ..., |S_nmax(T)|]: `counting_sequences` of one set."""
    return counting_sequences([patterns], nmax, workers=workers)[0]


def avoider_levels(patterns: Iterable[Sequence[int]], nmax: int) -> list[list[Perm]]:
    """
    [S_0(T), ..., S_nmax(T)]: the avoiders of every length up to nmax, each
    level in lexicographic order, from one pruned enumeration.

    >>> avoider_levels([(1, 3, 2), (2, 3, 1)], 3)
    [[()], [(1,)], [(1, 2), (2, 1)], [(1, 2, 3), (2, 1, 3), (3, 1, 2), (3, 2, 1)]]
    """
    if nmax < 0:
        raise ValueError("nmax must be >= 0")
    return _sweep([frozenset(tuple(t) for t in patterns)], nmax, keep=True)[1]


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


@dataclass(frozen=True)
class WilfSearchReport:
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

    The eight images of each of the 24 patterns are computed once; a
    triple's representative is the least of its eight sorted images, as
    `perms.canonical_form` would give.
    """
    s4 = list(itertools.permutations(range(1, 5)))
    images = {
        tau: [min(apply_symmetry(name, frozenset([tau]))) for name in SYMMETRIES]
        for tau in s4
    }
    orbits: dict[tuple[Perm, ...], int] = {}
    for a, b, c in itertools.combinations(s4, 3):
        rep = min(tuple(sorted(img)) for img in zip(images[a], images[b], images[c]))
        orbits[rep] = orbits.get(rep, 0) + 1
    return orbits


def wilf_search(
    nmax: int, target: Sequence[int], *, workers: int = 1
) -> WilfSearchReport:
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
    rows, _ = _sweep(sets, nmax, target=prefix, workers=workers)
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
