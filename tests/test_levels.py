"""The enumeration level: its bit-lanes, the window kernel, and the import
layering of the modules around it."""
import random

import pytest

from weaksort import counting, levels, perms
from weaksort.levels import (
    MAX_ENTRY,
    _lane_bytes,
    _lanes,
    _listed_windows,
    _low_bytes,
    _ones,
    _pack,
    _planes,
    _windows,
)
from weaksort.perms import all_perms, occurrences


def _four_letter(head):
    # the four patterns of length 4 with a 3-letter head, each with the
    # bound of its last letter s + 1/2: the head letters of values s and
    # s + 1, -1 where there is none
    return {
        tuple(v + (v > s) for v in head) + (s + 1,): (
            head.index(s) if s >= 1 else -1,
            head.index(s + 1) if s < 3 else -1,
        )
        for s in range(4)
    }


def _columns(level, m):
    # a level of prefixes of length m as byte columns, the layout that
    # _windows takes: column j holds entry j of every prefix
    return [bytes(column) for column in zip(*level)] if level else [b""] * m


def _read_lanes(packed, nbytes, count):
    # the values of the count lanes of nbytes bytes of packed, lowest first
    raw = packed.to_bytes(nbytes * count, "little")
    return [int.from_bytes(raw[i : i + nbytes], "little") for i in range(0, len(raw), nbytes)]


def _lanes_against_listed(level, m, head):
    # the four patterns of head in one call, each lane of each against the
    # windows of the listed occurrences of head for its bound
    nbytes = _lane_bytes(m)
    bounds = _four_letter(head)
    windows = _windows(_columns(level, m), len(level), bounds)
    assert windows.keys() == bounds.keys()
    for tau, bound in bounds.items():
        lanes = _read_lanes(windows[tau], nbytes, len(level))
        for q, got in zip(level, lanes):
            assert [got] == _listed_windows(q, head, [bound]), (tau, q)


def test_middle_pass_equals_listed_windows():
    # the level-wide pass of every 3-letter head, asked for its four
    # patterns, each permutation of length <= 7 one lane of a single call,
    # against the windows of the listed occurrences, which enumeration
    # takes for heads of every other length
    for head in all_perms(3):
        for m in range(8):
            _lanes_against_listed(list(all_perms(m)), m, head)
    # lanes wider than 16 bits: seeded random prefixes of lengths 13-24,
    # beside lanes where xs or zs is empty at every middle position (the
    # increasing prefix for every head but 123, the decreasing one for
    # every head but 321) and one where the trim empties the x side of 213
    rng = random.Random(34)
    for m in range(13, 25):
        level = [tuple(rng.sample(range(1, m + 1), m)) for _ in range(12)]
        level[3:3] = [tuple(range(1, m + 1)), tuple(range(m, 0, -1))]
        level.append((m,) + tuple(range(1, m)))
        for head in all_perms(3):
            _lanes_against_listed(level, m, head)


def _ending_window(q, tau):
    """The ranks r whose child of q, q with every entry >= r bumped and r
    put last, holds an occurrence of tau that ends at its last entry."""
    window = 0
    for r in range(1, len(q) + 2):
        child = tuple(v + (v >= r) for v in q) + (r,)
        if any(occ[-1] == len(q) for occ in occurrences(child, tau)):
            window |= 1 << r
    return window


def test_windows_of_many_patterns_equal_single_pattern_calls():
    # one call answers each pattern as a call for it alone does: all 24
    # four-letter patterns, which share their six heads four at a time;
    # lengths 1, 2, 3 and 5 mixed, the listed path beside the middle pass;
    # and both at once.  Every level of length m <= 6, where m < 3 leaves
    # a 3-letter head no middle letter, and the empty level.  For m <= 4
    # each lane is also held against the children themselves
    s4 = list(all_perms(4))
    mixed = [(1,), (2, 1), (1, 2), (1, 3, 2), (2, 3, 1), (2, 4, 1, 5, 3), (1, 2, 3, 4, 5)]
    for patterns in (s4, mixed, s4 + mixed):
        for m in range(7):
            nbytes = _lane_bytes(m)
            level = list(all_perms(m))
            columns = _columns(level, m)
            windows = _windows(columns, len(level), patterns)
            assert windows.keys() == set(patterns)
            for tau in patterns:
                assert windows[tau] == _windows(columns, len(level), [tau])[tau], (tau, m)
                if m <= 4:
                    lanes = _read_lanes(windows[tau], nbytes, len(level))
                    assert lanes == [_ending_window(q, tau) for q in level], (tau, m)
            assert _windows(_columns([], m), 0, patterns) == dict.fromkeys(patterns, 0)


@pytest.mark.parametrize("nbytes", [1, 2, 3, 4, 8, 16])
def test_pack_unpack_roundtrip(nbytes):
    # every lane size, those that are not a power of two too
    rng = random.Random(nbytes)
    values = [rng.getrandbits(8 * nbytes) for _ in range(40)] + [0, (1 << 8 * nbytes) - 1]
    assert _read_lanes(_pack(values, nbytes), nbytes, len(values)) == values


def test_planes_hold_one_hot_entries_in_every_lane_byte():
    # a level of length 255, the longest built: 1 << 255 lies in byte 31
    # of a 33-byte lane
    rng = random.Random(36)
    level = [tuple(rng.sample(range(1, 256), 255)) for _ in range(3)]
    nbytes = _lane_bytes(255)
    planes = _planes(_columns(level, 255), nbytes)
    for j, plane in enumerate(planes):
        assert _read_lanes(plane, nbytes, 3) == [1 << q[j] for q in level], j


def test_lanes_round_trip_flags_through_every_width():
    # the lane writer and the bit-0 reader at every lane width that a level
    # of length 0..MAX_ENTRY takes, against `_pack`, which packs each flag
    # in a lane of its own; then the reader at byte 0 with a flag column's
    # drop marks (2) beside its flags, as `_next_level` reads them
    rng = random.Random(39)
    for m in range(MAX_ENTRY + 1):
        nbytes = _lane_bytes(m)
        for count in (0, 1, 2, 300):
            flags = bytes(rng.getrandbits(1) for _ in range(count))
            lanes = _lanes(nbytes, flags)
            assert lanes == _pack(flags, nbytes), (m, count)
            assert _low_bytes(lanes, count, nbytes) == flags, (m, count)
            ones = _ones(count, nbytes)
            assert ones == _pack([1] * count, nbytes), (m, count)
            marked = _low_bytes(lanes | (ones ^ lanes) << 1, count, nbytes)
            assert marked == flags.translate(bytes([2, 1]) + bytes(254)), (m, count)


def _borrowed(module, above):
    """The names that module binds to one of the modules above or to
    something defined in one of them."""
    names = {m.__name__ for m in above}
    return [
        name
        for name, value in vars(module).items()
        if any(value is m for m in above) or getattr(value, "__module__", None) in names
    ]


def test_imports_run_one_way_perms_levels_counting():
    # the scan and the toolkit import nothing from the enumeration engine,
    # and the engine's level format nothing from the sweep built on it
    assert _borrowed(perms, [levels, counting]) == []
    assert _borrowed(levels, [counting]) == []
    # counting takes the level's steps by name, so tests can patch them there
    assert counting._next_level is levels._next_level
