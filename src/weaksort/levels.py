"""
The enumeration level: its byte columns, its bit-lanes and the window
kernel, the one format that `weaksort.counting` builds and counts through.

Enumeration extends a standardized prefix q of length m by a new last
entry of every relative rank r at once (bumping the entries >= r), and
asks which ranks end an occurrence of a pattern tau.  `_head_bounds`
splits tau into its standardized head tau[:-1] and the head letters that
bound its last letter, the last entry of `perms.letter_bounds`.  For
every occurrence of the head in q, let lo be the value of the lower
bounding letter (0 if none) and hi that of the upper one (m+1 if none).
The child with new last rank r ends an occurrence of tau on it exactly
when lo < r <= hi: the entries below r keep their values and those from
r up are bumped.  The window of q for a bound is the union of those
intervals as a bitmask of ranks (bit r for rank r).

A level of length m is a `_Level`: m byte columns, column j holding entry
j of every prefix, and one column of 0/1 flags for each pattern set that
some prefix carries.  An entry is one byte, so no level longer than
MAX_ENTRY = 255 is built: a counting sweep reaches nmax = 256, since it
never builds its last level, and a listing reaches 255.

A level's windows and masks are held one bit-lane per prefix: one integer
holds the value of prefix i in its lane i, bits 8*nbytes*i and up.  A lane
holds data bits 0..m+2 (a window takes bits 1..m+1, and 2 << (m+1) is the
largest value a step forms) and a guard bit above them, and `_lane_bytes`
rounds it up to whole bytes, so that lanes convert to and from bytes at C
speed: `_lanes` writes bytes into lanes, `_low_bytes` reads byte 0 of
each lane back, and `_ones` is 1 in every lane.  Every step runs in C over
the whole level, with no loop per prefix:

- `_windows` answers any patterns for the whole level at once.  Patterns
  that share a head (1234 and 1243 share 123) share one pass over the
  level, which gives the window of every bound they take.  A head whose
  length is not 3 lists its occurrences prefix by prefix with the scan
  `perms.occurrences` (`_listed_windows`), on the prefixes as tuples
  (`_rows`), and the windows are packed into the same lanes (`_pack`).
  A set's forbidden mask is the OR of its patterns' windows (`_forbidden`).
- A head of length 3 takes one pass for the whole level (`_middle_pass`),
  not one per occurrence or per prefix.  Position plane j holds 1 << q[j]
  in the lane of every prefix q; `_planes` builds it from column j, one
  `bytes.translate` per lane byte.  The pass runs over the position j of
  the middle letter y, with the values left of j and those right of j as
  two packed bitmasks.  The first head letter x ranges over the left
  values and the last letter z over the right ones, each on the side of
  y that the head gives it.  When x and z lie on the same side of y, the
  head also fixes their order, so only values with a partner are kept: x
  below the largest z and z above the least x, or the mirror image.  A
  window's lo is then 0, y, or the least kept value of x or z, and its hi
  is y, the largest kept value of x or z, or m+1.  For one j and one
  prefix the occurrence windows union to one interval, the window of the
  pair of extreme kept values: that pair is itself an occurrence, and its
  lo is at most and its hi at least those of every other.  So a level
  costs O(m) steps per head, each a few operations on one integer for all
  lanes.  `_listed_windows` is the oracle of that pass.
- `_next_level` builds the children.  Those of rank r are kept where some
  set is carried and r lies outside its forbidden mask: for set i, the
  lanes carriers_i & ~(forbidden_i >> r), read at bit 0 of each lane, and
  their OR selects the parents.  Each column of the next level is the
  column with the other parents' entries set to 0, through one
  `bytes.translate` that deletes the 0s (no entry is 0) and maps v to v
  below r and to v + 1 from r up.  The new last column is r for each kept
  parent, and each set's flags are compressed alike, 2 marking those to
  delete.  Children therefore come grouped by rank, not by parent; no
  count depends on their order.
- A count needs no level, so `_child_counts` counts a level's children
  before they are built, from the forbidden masks that building them
  reads too: a set's count is the popcount of ranks 1..m+1 in the lanes
  of the prefixes that carry it, less the popcount of its forbidden mask
  in those lanes.
- `_flagged` flags a level of every permutation of its length k for the
  sets none of whose patterns is shorter: a prefix carries a set unless it
  equals one of the set's k-letter patterns, found by matching the byte
  columns, one `bytes.translate` of each column per pattern, without
  listing the k! prefixes.
- `_chunks` deals a level out in interleaved chunks, each column and flag
  column sliced [w::W], so that neighbouring prefixes, which cost about
  the same, go to different chunks.

No step of the middle pass carries or borrows from one lane into the
next.  Bitwise operations stay in their lanes.  A subtraction of 1 per
lane (bit - 1, v - 1 for the least set bit) acts on lanes that are at
least 1: y is at least 1, and v is first ORed with the guard bit.  An
addition stays below the top of a lane: values fill data bits only, so
both the highest kept value plus 1 and v + (2**g - 1), with g the place
of the guard bit, fit; the latter sets the guard bit exactly when v is
nonempty.  A window is (hi | guard) - lo, never below 0, and is masked to
the lanes where both sides are nonempty.  The largest kept value is read
off a smear, v | v >> 1 | v >> 2 | ..., which fills each lane from its
highest set bit down; the bits that a right shift brings down from the
lane above are masked off after every shift.
"""
from __future__ import annotations

import functools
import operator
from typing import Collection, Iterable, NamedTuple, Sequence

from .perms import PatternSet, Perm, letter_bounds, occurrences, standardize

#: the largest entry a byte column holds, and so the longest level built
MAX_ENTRY = 255


class _Level(NamedTuple):
    """The prefixes of one length m, held as byte columns."""

    #: number of prefixes
    count: int
    #: m columns: column j holds entry j of every prefix, one byte each
    columns: list[bytes]
    #: set index -> one byte per prefix, 1 where the prefix carries the set;
    #: only the sets that some prefix carries
    flags: dict[int, bytes]


#: the level of length 0 with no prefix, below a set that holds the empty
#: pattern, which occurs in every permutation
_EMPTY = _Level(0, [], {})


def _root(i: int) -> _Level:
    """The level of length 0: the empty prefix, carrying set i."""
    return _Level(1, [], {i: b"\1"})


def _rows(columns: Sequence[bytes], count: int) -> list[Perm]:
    """The count prefixes held by the columns, as tuples in level order."""
    return list(zip(*columns)) if columns else [()] * count


# --------------------------------------------------------------------------
# bit-lanes


def _lane_bytes(m: int) -> int:
    """
    Bytes per lane for prefixes of length m: data bits 0..m+2 and a guard
    bit above them, m + 4 bits, rounded up to whole bytes.

    >>> [_lane_bytes(m) for m in (0, 4, 5, 12, 13, 20, 21, 60, 61)]
    [1, 1, 2, 2, 3, 3, 4, 8, 9]
    """
    return (m + 11) // 8


def _lanes(nbytes: int, *parts: bytes) -> int:
    """
    One integer of lanes of nbytes bytes, one lane per byte of parts[0]:
    byte b of lane i is parts[b][i], and the bytes above them are 0.

    >>> hex(_lanes(2, bytes([1, 2]), bytes([3, 4])))
    '0x4020301'
    """
    lanes = bytearray(nbytes * len(parts[0]))
    for b, part in enumerate(parts):
        lanes[b::nbytes] = part
    return int.from_bytes(lanes, "little")


def _ones(count: int, nbytes: int) -> int:
    """1 in each of count lanes of nbytes bytes."""
    return _lanes(nbytes, b"\1" * count)


def _low_bytes(lanes: int, count: int, nbytes: int) -> bytes:
    """
    Byte 0 of each of count lanes of nbytes bytes, where a lane keeps its
    flag bits: the inverse of `_lanes(nbytes, flags)`.

    >>> list(_low_bytes(0x20001, 2, 2))
    [1, 2]
    """
    return lanes.to_bytes(nbytes * count, "little")[::nbytes]


def _pack(values: Iterable[int], nbytes: int) -> int:
    """
    One integer holding each value in a lane of nbytes bytes, the first
    value in the lowest lane.

    >>> hex(_pack([1, 2, 255], 1))
    '0xff0201'
    """
    return int.from_bytes(b"".join([v.to_bytes(nbytes, "little") for v in values]), "little")


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


def _windows(
    columns: Sequence[bytes], count: int, patterns: Iterable[Perm]
) -> dict[Perm, int]:
    """
    Each nonempty pattern's windows over a level of count prefixes of
    length m = len(columns), held as byte columns, packed one lane per
    prefix: lane i holds the bitmask of the new last ranks r whose child of
    prefix i ends an occurrence of it.

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
    nbytes = _lane_bytes(len(columns))
    planes = _planes(columns, nbytes) if any(len(head) == 3 for head in heads) else []
    rows = _rows(columns, count) if any(len(head) != 3 for head in heads) else []
    out: dict[Perm, int] = {}
    for head, by_bound in heads.items():
        bounds = list(by_bound)
        if len(head) == 3:
            windows = _middle_pass(planes, count, nbytes, head, bounds)
        else:
            listed = [_listed_windows(q, head, bounds) for q in rows]
            # by index, not zip(*listed), so that an empty level has windows
            windows = [_pack([w[k] for w in listed], nbytes) for k in range(len(bounds))]
        out.update(zip(by_bound.values(), windows))
    return out


def _planes(columns: Sequence[bytes], nbytes: int) -> list[int]:
    """
    The position planes of a level: plane j holds 1 << q[j] in the lane of
    every prefix q, each lane byte one `bytes.translate` of column j.

    >>> [hex(plane) for plane in _planes([bytes([1, 2]), bytes([2, 1])], 1)]
    ['0x402', '0x204']
    """
    m = len(columns)
    # byte b of 1 << v, for the bytes that an entry 1..m reaches
    one_hot = [bytes((1 << v) >> 8 * b & 255 for v in range(256)) for b in range(m // 8 + 1)]
    return [_lanes(nbytes, *[column.translate(table) for table in one_hot]) for column in columns]


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
    lane = _ones(count, nbytes)
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
# a level's children, built and counted


def _forbidden(level: _Level, sets: Sequence[PatternSet]) -> dict[int, int]:
    """
    The forbidden masks of the level's prefixes, packed one lane per
    prefix, for each set that some prefix carries: its index -> the OR of
    the windows of its patterns, from one `_windows` call for the level.
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
    carriers = {i: _lanes(nbytes, f) for i, f in flags.items()}
    everyone = _ones(count, nbytes)
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
        entry_mask = int.from_bytes(_low_bytes(kept, count, nbytes), "little") * 255
        drop = (everyone ^ kept) << 1
        # entry v of a parent in its child of rank r: v below r, v + 1 from r up
        bump = bytes(range(r)) + bytes(range(r + 1, 256)) + b"\xff"
        for out, entry in zip(out_columns, entries):
            out.append((entry & entry_mask).to_bytes(count, "little").translate(bump, b"\0"))
        out_columns[m].append(bytes([r]) * kept.bit_count())
        for i, lanes in keep.items():
            out_flags[i].append(_low_bytes(lanes | drop, count, nbytes).translate(None, b"\2"))
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
        live = _lanes(nbytes, flags) * ranks
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
    everyone = _ones(count, 1)
    hits: dict[Perm, int] = {}
    for tau in {tau for i in keep for tau in sets[i] if len(tau) == len(columns)}:
        # 1 in the byte of each prefix whose entry j is tau[j], for every j
        match = everyone
        for column, v in zip(columns, tau):
            match &= int.from_bytes(column.translate(bytes(v) + b"\1" + bytes(255 - v)), "little")
        hits[tau] = match
    flags = {}
    for i in keep:
        found = functools.reduce(operator.or_, map(hits.__getitem__, hits.keys() & sets[i]), 0)
        flags[i] = _low_bytes(everyone ^ found, count, 1)
    return _Level(count, columns, _carried(flags))


def _carried(flags: dict[int, bytes]) -> dict[int, bytes]:
    """The flag columns of the sets that some prefix carries."""
    return {i: f for i, f in flags.items() if 1 in f}


def _chunks(level: _Level, parts: int) -> list[_Level]:
    """The level dealt out in parts interleaved chunks: chunk w holds
    prefixes w, w + parts, w + 2 * parts, ..., each column and flag column
    sliced [w::parts]."""
    return [
        _Level(
            len(range(w, level.count, parts)),
            [column[w::parts] for column in level.columns],
            _carried({i: f[w::parts] for i, f in level.flags.items()}),
        )
        for w in range(parts)
    ]
