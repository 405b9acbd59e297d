"""Pruned enumeration, counting sequences, and the triple classification."""
import functools
import math
import os
import random
import re
import signal
import time
from collections import Counter

import pytest
from oracles import enumerate_avoiders_filter, triple_orbits_canonical

from weaksort import counting, oeis
from weaksort.counting import (
    MIN_CHUNK,
    WilfSearchReport,
    _processes,
    avoider_levels,
    counting_sequence,
    counting_sequences,
    enumerate_avoiders,
    triple_orbits,
    wilf_search,
)
from weaksort.perms import (
    SCHRODER_PAIR,
    TRIPLES,
    all_perms,
    apply_symmetry,
    canonical_form,
)

TARGET = (1, 1, 2, 6, 21, 79, 309, 1237, 5026)
#: the forking path's process counts: two processes, and three, which leave
#: chunks of unequal size
FORKED = (2, 3)


@pytest.fixture
def forking(monkeypatch):
    """Split every level of at least one prefix per process, so that small
    sweeps fork too; at the end, no child of this process is left."""
    monkeypatch.setattr(counting, "MIN_CHUNK", 1)
    yield
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@functools.cache
def _filtered(n: int, patterns: frozenset) -> list:
    """The filter oracle, computed once for the sets that two tests share."""
    return enumerate_avoiders_filter(n, patterns)


def test_enumerate_counts_match_trivial_cases():
    assert len(enumerate_avoiders(4, TRIPLES["pi1"])) == 21
    assert enumerate_avoiders(2, SCHRODER_PAIR) == [(1, 2), (2, 1)]
    assert counting_sequence(frozenset(), 4) == [1, 1, 2, 6, 24]


def test_avoiders_ending_in_2():
    ending_in_2 = [p for p in enumerate_avoiders(4, TRIPLES["pi5"]) if p[-1] == 2]
    assert ending_in_2 == [
        (1, 3, 4, 2),
        (1, 4, 3, 2),
        (3, 1, 4, 2),
        (3, 4, 1, 2),
        (4, 1, 3, 2),
        (4, 3, 1, 2),
    ]


def test_lexicographic_order():
    avoiders = enumerate_avoiders(5, TRIPLES["pi3"])
    assert avoiders == sorted(avoiders)


def test_counting_sequence_values():
    assert counting_sequence(TRIPLES["pi1"], 8) == list(TARGET)
    assert counting_sequence(SCHRODER_PAIR, 6) == [1, 1, 2, 6, 22, 90, 394]


def test_counting_sequences_shared_level_equals_filter(forking, cpus):
    # every kind of set on one shared level: the five triples, the Schroder
    # pair, the empty pattern (which zeroes only its own row), lengths 2, 3
    # and 5 in one set, one set twice, and no pattern at all; in one process
    # and with the last two lengths counted in forked children.  Patterns
    # share a head within a set (all three of pi1 have head 123) and across
    # sets, and one pattern lies in several (1342 in pi1, pi2, pi3 and in
    # shared, beside 2341 of the same head)
    mixed = frozenset({(2, 1), (1, 3, 2), (1, 2, 3, 4, 5)})
    shared = frozenset({(1, 3, 4, 2), (2, 3, 4, 1)})
    sets = [*TRIPLES.values(), SCHRODER_PAIR, frozenset({()}), mixed, shared]
    sets += [SCHRODER_PAIR, frozenset()]
    for processes in (1, *FORKED):
        cpus(processes)
        rows = counting_sequences(sets, 7)
        for patterns, row in zip(sets, rows):
            assert row == [len(_filtered(n, patterns)) for n in range(8)], (patterns, processes)
        assert rows[sets.index(mixed)] == [1, 1, 1, 1, 1, 0, 0, 0]


@pytest.mark.parametrize("nmax", range(8))
def test_sets_longer_than_every_length_count_every_permutation(nmax):
    # the shortest pattern is longer than nmax, so no level is built for a
    # set in particular: every set counts n!, with a target of factorials
    # too, and the empty set of patterns alongside
    sets = [
        frozenset({tuple(range(nmax + 1, 0, -1))}),
        frozenset({tuple(range(1, nmax + 2)), (2, 1, *range(3, nmax + 3))}),
        frozenset(),
    ]
    oracle = [[len(_filtered(n, patterns)) for n in range(nmax + 1)] for patterns in sets]
    assert oracle == [[math.factorial(n) for n in range(nmax + 1)]] * 3
    assert counting_sequences(sets, nmax) == oracle
    assert counting._sweep(sets, nmax, target=oracle[0]) == oracle


def test_one_letter_patterns_and_mixed_lengths_equal_filter(forking, cpus):
    # the shortest pattern has one letter, so only length 0 is shared, and
    # sets of longer patterns are flagged at length 1 with every prefix;
    # then lengths 2 to 5 mixed in and across sets, one set twice, and the
    # shortest pattern at length 2 in a sweep of its own
    sets = [
        frozenset({(1,)}),
        frozenset({(1,), (2, 1)}),
        frozenset({(2, 1), (1, 2, 3)}),
        frozenset({(1, 3, 2), (2, 1, 3, 4, 5)}),
        TRIPLES["pi1"],
        frozenset({(2, 1), (1, 2, 3)}),
        frozenset({(2, 4, 1, 5, 3)}),
    ]
    for processes in (1, *FORKED):
        cpus(processes)
        for chosen in (sets, sets[2:]):
            rows = counting_sequences(chosen, 7)
            for patterns, row in zip(chosen, rows):
                assert row == [len(_filtered(n, patterns)) for n in range(8)], (patterns, processes)


def test_sets_that_miss_the_target_at_the_shortest_length_stop_there():
    # 4-letter sets counted against the weak sorting numbers: at length 4
    # they count 24 less their patterns, so all but the 21 of three
    # patterns stop there; a target off at length 2, below every pattern,
    # stops every set there.  Each row is the oracle's, cut after its first
    # count off the target
    sets = [
        frozenset({(1, 2, 3, 4)}),
        SCHRODER_PAIR,
        TRIPLES["pi1"],
        TRIPLES["pi4"],
        frozenset({(1, 2, 3, 4), (1, 2, 4, 3), (1, 3, 2, 4), (2, 1, 3, 4)}),
        frozenset({(1, 3, 2, 4), (1, 2, 3, 4, 5)}),
    ]
    for target in (TARGET, (1, 1, 3, 6, 21, 79, 309, 1237, 5026)):
        rows = counting._sweep(sets, 7, target=target)
        for patterns, row in zip(sets, rows):
            oracle = [len(_filtered(n, patterns)) for n in range(8)]
            miss = next((n for n in range(8) if oracle[n] != target[n]), 7)
            assert row == oracle[: miss + 1], (patterns, target)
    assert [len(row) for row in counting._sweep(sets, 7, target=TARGET)] == [5, 5, 8, 8, 5, 5]


def test_wilf_search_builds_length_5_for_the_matching_orbits_only(monkeypatch):
    # lengths 1 to 4 are built once for no set in particular, and length 5
    # only for the 21 orbits that count A111279(4) = 21 and A111279(5) = 79;
    # the other 296 are counted at length 5, not built
    built = []
    real = counting._next_level

    def recorder(level, forbidden):
        built.append((len(level.columns) + 1, set(level.flags)))
        return real(level, forbidden)

    monkeypatch.setattr(counting, "_next_level", recorder)
    report = wilf_search(8, TARGET)
    assert report.diverged == ((5, 296), (6, 16)) and len(report.matches) == 5
    assert [length for length, _ in built] == [1, 2, 3, 4, 5, 6, 7]
    assert all(flags == {counting._ALL} for _, flags in built[:4])
    monkeypatch.undo()
    sets = [frozenset(rep) for rep in triple_orbits()]
    rows = counting_sequences(sets, 5)
    assert built[4][1] == {i for i, row in enumerate(rows) if row[4:] == [21, 79]}
    assert len(built[4][1]) == 21


def test_forked_counts_equal_serial_for_the_five_classes(forking, cpus):
    # every split from the first (nmax = 4, a level of two prefixes) to the
    # deepest the command line runs by default; then the listed levels, a
    # loop that shares only `_next_level` with the counting sweep, against
    # the rows counted at n = 9, serial and forked alike
    for n in range(10):
        cpus(1)
        serial = counting_sequences(TRIPLES.values(), n)
        assert serial == [[*TARGET, 20626][: n + 1]] * 5, n
        for processes in FORKED:
            cpus(processes)
            assert counting_sequences(TRIPLES.values(), n) == serial, (n, processes)
    for patterns, row in zip(TRIPLES.values(), serial):
        assert [len(level) for level in avoider_levels(patterns, 9)] == row, patterns


def test_long_sweeps_widen_their_lanes(forking, cpus):
    # a lane holds m + 3 data bits and a guard bit, so it widens by a byte
    # every 8 lengths as the prefixes grow: 1, 2, 3 and on to 9 bytes down
    # these sweeps, odd widths among them.  All of S4
    # but 1234 leaves the identity alone from n = 4 on, all but 1234 and
    # 1243 two permutations, and 21 only the decreasing one, through the
    # listed windows of its 1-letter head; in one process and forked
    s4 = list(all_perms(4))
    for processes in (1, *FORKED):
        cpus(processes)
        one = [p for p in s4 if p != (1, 2, 3, 4)]
        assert counting_sequence(one, 64) == [1, 1, 2, 6] + [1] * 61
        two = [p for p in s4 if p not in {(1, 2, 3, 4), (1, 2, 4, 3)}]
        assert counting_sequence(two, 24) == [1, 1, 2, 6] + [2] * 21
        assert counting_sequence([(2, 1)], 40) == [1] * 41


def test_byte_columns_reach_entry_255():
    # a level's entries are bytes: a sweep builds lengths up to nmax - 1 and
    # counts nmax, so it reaches 256, and a listing, which builds every
    # level, 255; 12 puts every new entry first, bumping the rest up to 255
    assert counting_sequence([(2, 1)], 256) == [1] * 257
    assert counting_sequences([[(1, 2)], [(2, 1)]], 256) == [[1] * 257] * 2
    assert enumerate_avoiders(255, [(1, 2)]) == [tuple(range(255, 0, -1))]
    assert avoider_levels([(2, 1)], 255)[255] == [tuple(range(1, 256))]
    with pytest.raises(ValueError, match="<= 256"):
        counting_sequence([(2, 1)], 257)
    with pytest.raises(ValueError, match="<= 255"):
        avoider_levels([(2, 1)], 256)
    with pytest.raises(ValueError, match="<= 255"):
        enumerate_avoiders(256, [(2, 1)])


def test_avoider_levels_equal_filter():
    # one listing builds every level; each against plain filtering, n <= 7,
    # and a shorter listing gives the same first levels
    sets = [*TRIPLES.values(), SCHRODER_PAIR, frozenset({(3, 2, 1)})]
    sets += [frozenset(), frozenset({()})]
    for patterns in sets:
        levels = avoider_levels(patterns, 7)
        assert len(levels) == 8, patterns
        for n, level in enumerate(levels):
            assert level == _filtered(n, patterns), (patterns, n)
            assert avoider_levels(patterns, n) == levels[: n + 1], (patterns, n)
            assert enumerate_avoiders(n, patterns) == level, (patterns, n)
    assert avoider_levels(frozenset({()}), 7) == [[]] * 8
    with pytest.raises(ValueError, match="nmax must be >= 0"):
        avoider_levels(TRIPLES["pi1"], -1)


@pytest.mark.parametrize("pattern", [(1, 1), (0, 1), (2, 3), (2, 2, 1)])
def test_library_sweeps_take_only_permutations(pattern):
    # a repeated entry, an entry outside 1..k, or both: each sweep names
    # the pattern, where it once counted it as some other pattern or failed
    # inside standardization
    sweeps = [
        lambda: counting_sequence([(2, 1), pattern], 5),
        lambda: counting_sequences([[(1, 2)], [pattern]], 5),
        lambda: avoider_levels([pattern], 3),
        lambda: enumerate_avoiders(3, [(1, 3, 2), pattern]),
    ]
    for sweep in sweeps:
        with pytest.raises(ValueError, match=re.escape(repr(pattern))):
            sweep()


def test_empty_pattern_forbids_everything():
    # the empty pattern occurs in every permutation, the empty one included
    assert counting_sequence(frozenset({()}), 3) == [0, 0, 0, 0]
    assert counting_sequence(frozenset({(), (2, 1)}), 3) == [0, 0, 0, 0]
    assert enumerate_avoiders(0, [()]) == enumerate_avoiders_filter(0, [()]) == []


def test_counting_sequence_guard():
    # the library takes any nmax >= 0; the size limit lives in the cli
    seq = counting_sequence(frozenset({(1, 2), (2, 1)}), 12)
    assert seq == [1, 1] + [0] * 11
    with pytest.raises(ValueError, match="nmax must be >= 0"):
        counting_sequence(TRIPLES["pi1"], -1)


def test_no_set_builds_no_level(monkeypatch):
    # the levels below the shortest pattern are built for every set at
    # once, so with no set at all none is built
    monkeypatch.setattr(counting, "_next_level", None)
    assert counting_sequences([], 12) == []


def _assert_pruned_equals_filter(patterns, cpus, processes=(1,)) -> list[int]:
    """
    Hold the built levels and the counted last level, counted with each
    process count in processes (set through the cpus fixture), against
    plain filtering for n <= 7; return the oracle's counting sequence.
    """
    counts = []
    for n in range(8):
        oracle = enumerate_avoiders_filter(n, patterns)
        assert enumerate_avoiders(n, patterns) == oracle, (patterns, n)
        # level n is the last of this sequence, so it is counted, not built
        for w in processes:
            cpus(w)
            seq = counting_sequence(patterns, n)
            assert seq[n] == len(oracle), (patterns, n, w)
        counts.append(len(oracle))
    return counts


def test_pruned_equals_filter_on_sampled_orbits(cpus):
    # spot the pruned enumerator against plain filtering on a reproducible
    # sample of 50 orbits, n <= 7
    orbits = sorted(triple_orbits())
    sample = random.Random(20240).sample(orbits, 50)
    five = {canonical_form(T) for T in TRIPLES.values()}
    filtered = {rep: _assert_pruned_equals_filter(frozenset(rep), cpus) for rep in sample}
    outsider = next(seq for rep, seq in filtered.items() if rep not in five)
    # the search counts its last level too, and drops an orbit at its first
    # mismatch.  For the filtered sequence of an orbit outside the five
    # classes (so that orbit itself must match) and for the weak sorting
    # numbers, a sampled orbit matches exactly when its own filtered counts
    # do
    for target, has_five in ((outsider, False), (TARGET, True)):
        matches = wilf_search(6, target).matches
        assert all((T in matches) == has_five for T in five)
        for sampled, seq in filtered.items():
            assert (sampled in matches) == (seq[:7] == list(target[:7])), sampled


@pytest.mark.parametrize(
    "patterns",
    [
        {(1,)},
        {(1, 2)},
        {(2, 1)},
        {(1, 3, 2)},
        {(2, 3, 1), (3, 1, 2)},
        {(2, 4, 1, 5, 3)},
        {(1, 2, 3, 4, 5), (5, 4, 1, 2, 3)},
        {(2, 1), (1, 2, 3)},
        {(1, 3, 2), (2, 4, 1, 3)},
        {(3, 1, 2), (1, 4, 2, 5, 3)},
        {(1, 2), (3, 1, 4, 2), (2, 4, 1, 5, 3)},
        {(1, 2, 3), (1, 3, 2)},
        {(2, 1, 3), (3, 2, 1), (1, 2)},
        TRIPLES["pi1"],
    ],
)
def test_pruned_equals_filter_on_other_lengths(forking, cpus, patterns):
    # lengths 1, 2, 3 and 5, alone and mixed: the generic occurrence path
    # and the forbidden-rank windows at their extremes; and heads shared by
    # two or three patterns; in one process and in forked children
    _assert_pruned_equals_filter(patterns, cpus, processes=(1, *FORKED))


def test_counting_invariant_under_symmetry():
    for class_id, patterns in TRIPLES.items():
        base = counting_sequence(patterns, 7)
        for name in ("r", "c", "i", "rc", "ri", "ci", "rci"):
            image = apply_symmetry(name, patterns)
            assert counting_sequence(image, 7) == base, (class_id, name)


def test_triple_orbits_match_canonical_forms():
    # the table of pattern images gives the same orbits, sizes and order as
    # canonical_form applied to every triple
    assert list(triple_orbits().items()) == list(triple_orbits_canonical().items())


def test_triple_orbits_partition():
    orbits = triple_orbits()
    assert len(orbits) == 317
    assert sum(orbits.values()) == 2024
    assert Counter(orbits.values()) == {8: 203, 4: 86, 2: 28}
    for rep, size in orbits.items():
        assert 8 % size == 0
        assert canonical_form(frozenset(rep)) == rep


def test_wilf_search_finds_exactly_the_five_classes():
    report = wilf_search(8, TARGET)
    assert isinstance(report, WilfSearchReport)
    assert report.orbits_examined == 317
    assert report.triples_total == 2024
    expected = sorted(canonical_form(T) for T in TRIPLES.values())
    assert list(report.matches) == expected


def test_wilf_search_all_ones_target_matches_nothing():
    report = wilf_search(8, (1,) * 9)
    assert report.matches == ()


@pytest.mark.parametrize("nmax", [6, 7, 8])
def test_forked_wilf_search_equals_serial(forking, cpus, nmax):
    # the weak sorting numbers, and targets off by one only at nmax - 1 or
    # only at nmax, so that every orbit left is dropped after the split: the
    # split counts length nmax for sets it already dropped at nmax - 1
    five = {canonical_form(T) for T in TRIPLES.values()}
    for n in (None, nmax - 1, nmax):
        target = list(TARGET)
        if n is not None:
            target[n] += 1
        cpus(1)
        serial = wilf_search(nmax, target)
        for processes in FORKED:
            cpus(processes)
            assert wilf_search(nmax, target) == serial, (n, processes)
        # the five classes match the weak sorting numbers, and are dropped
        # at n from the others
        assert five <= set(serial.matches) if n is None else not five & set(serial.matches)
        assert n is None or dict(serial.diverged)[n] >= 5, serial.diverged


def test_process_count_is_capped_by_the_split_level(cpus):
    # at 1, 2 and 4096 CPUs, without forking: at most one process per
    # MIN_CHUNK prefixes, and a level too small to split stays in this one
    sizes = (0, 1, MIN_CHUNK - 1, MIN_CHUNK, 2 * MIN_CHUNK - 1, 10**6)
    cpus(1)
    assert [_processes(size) for size in sizes] == [1] * len(sizes)
    cpus(2)
    for size in sizes:
        assert _processes(size) == (2 if size >= 2 * MIN_CHUNK else 1)
    cpus(4096)
    for size in sizes:
        assert _processes(size) == max(1, min(4096, size // MIN_CHUNK))
    assert _processes(4096 * MIN_CHUNK) == 4096


def test_small_sweep_never_forks(monkeypatch, cpus):
    # the split level of n = 7 holds 120 prefixes, too few for two chunks
    def no_fork():
        raise AssertionError("forked")

    monkeypatch.setattr(os, "fork", no_fork)
    cpus(4096)
    assert counting_sequences(TRIPLES.values(), 7) == [list(TARGET[:8])] * 5


def test_a_library_sweep_forks_as_the_command_line_does(monkeypatch):
    # outside a forked job and with no other thread, on two CPUs, as
    # `weaksort count` and `sequence` do: pi5 to n = 9 splits a level of
    # length 7 of 1237 prefixes, fewer than two chunks of MIN_CHUNK, and
    # counts in this process; the five classes to n = 11 split one of
    # 64,455, one child per CPU.  The counts are A111279's either way
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    forks = []
    real_fork = os.fork

    def fork():
        pid = real_fork()
        if pid:
            forks.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", fork)
    target = list(oeis.fetch("A111279").prefix(12))
    assert counting_sequence(TRIPLES["pi5"], 9) == target[:10]
    assert forks == []
    assert counting_sequences(TRIPLES.values(), 11) == [target] * 5
    assert len(forks) == 2


@pytest.fixture
def planted(forking, monkeypatch):
    """
    Replace the count of a chunk with plant(chunk), whose value or exception
    stands for it in the forked child that counts the chunk (the
    `levels._Level` of the prefixes of the split level it was given); a
    guard alarm turns a hang into an error.
    """
    real = counting._tails

    def plant(fn):
        def tails(level, *args):
            result = fn(level)
            return real(level, *args) if result is None else result

        monkeypatch.setattr(counting, "_tails", tails)

    def hung(signum, frame):
        raise TimeoutError("the parent waits on a child that waits on its pipe")

    previous = signal.signal(signal.SIGALRM, hung)
    signal.alarm(60)
    try:
        yield plant
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def test_child_error_is_raised_in_the_parent(planted, cpus):
    # a message far longer than a pipe holds: the parent must read each
    # pipe to its end before it waits for the child
    message = "planted in a child " + "x" * 200_000

    def fail(chunk):
        raise LookupError(message)

    planted(fail)
    cpus(3)
    with pytest.raises(LookupError) as caught:
        counting_sequences(TRIPLES.values(), 8)
    assert caught.value.args == (message,)


def test_child_without_result_raises_runtime_error(planted, cpus):
    planted(lambda chunk: os._exit(3))
    cpus(2)
    with pytest.raises(RuntimeError, match=r"worker \d+ exited with status 3 and no result"):
        counting_sequences(TRIPLES.values(), 8)


def test_child_error_still_reaps_its_slower_siblings(planted, cpus):
    # one chunk fails at once while the other two are still counting; the
    # forking fixture checks that no child is left unreaped
    def fail(chunk):
        if (1, 2, 3, 4, 5, 6) in zip(*chunk.columns):
            raise ValueError("planted in one child")
        time.sleep(0.3)

    planted(fail)
    cpus(3)
    with pytest.raises(ValueError, match="^planted in one child$"):
        wilf_search(8, TARGET)


def test_wilf_search_preconditions():
    with pytest.raises(ValueError, match=">= 6"):
        wilf_search(5, TARGET)
    with pytest.raises(ValueError, match="target"):
        wilf_search(8, TARGET[:5])
