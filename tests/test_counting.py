"""Pruned enumeration, counting sequences, and the triple classification."""
import functools
import os
import random
import signal
import time
from collections import Counter

import pytest
from oracles import (
    enumerate_avoiders_filter,
    occurrence_windows,
    triple_orbits_canonical,
)

from weaksort import counting
from weaksort.counting import (
    MIN_CHUNK,
    WilfSearchReport,
    _middle_pass,
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
#: the forking path's worker counts: two processes, and three, which leave
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


def test_counting_sequences_shared_level_equals_filter(forking):
    # every kind of set on one shared level: the five triples, the Schroder
    # pair, the empty pattern (which zeroes only its own row), lengths 2, 3
    # and 5 in one set, one set twice, and no pattern at all; in one process
    # and with the last two lengths counted in forked children
    mixed = frozenset({(2, 1), (1, 3, 2), (1, 2, 3, 4, 5)})
    sets = [*TRIPLES.values(), SCHRODER_PAIR, frozenset({()}), mixed]
    sets += [SCHRODER_PAIR, frozenset()]
    for workers in (1, *FORKED):
        rows = counting_sequences(sets, 7, workers=workers)
        for patterns, row in zip(sets, rows):
            assert row == [len(_filtered(n, patterns)) for n in range(8)], (patterns, workers)
        assert rows[sets.index(mixed)] == [1, 1, 1, 1, 1, 0, 0, 0]


def test_forked_counts_equal_serial_for_the_five_classes(forking):
    # every split from the first (nmax = 4, a level of two prefixes) to the
    # deepest the command line runs by default
    for n in range(10):
        serial = counting_sequences(TRIPLES.values(), n)
        assert serial == [[*TARGET, 20626][: n + 1]] * 5, n
        for workers in FORKED:
            assert counting_sequences(TRIPLES.values(), n, workers=workers) == serial, n


def test_avoider_levels_equal_filter():
    # one sweep keeps every level; each against plain filtering, n <= 7, and
    # a shorter sweep gives the same first levels
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


def test_middle_pass_equals_occurrence_windows():
    # every 3-letter head with its four bounds in one call, one per last
    # letter (so the 24 patterns of length 4), on every prefix of length
    # <= 7, against the windows of the listed occurrences
    for head in all_perms(3):
        bounds = [
            (head.index(s) if s >= 1 else -1, head.index(s + 1) if s < 3 else -1)
            for s in range(4)
        ]
        for m in range(8):
            for q in all_perms(m):
                want = occurrence_windows(q, head, bounds)
                assert _middle_pass(q, head, bounds) == want, (head, q)


def _assert_pruned_equals_filter(patterns, workers=(1,)) -> list[int]:
    """
    Hold the built levels and the counted last level, counted in each
    number of processes in workers, against plain filtering for n <= 7;
    return the oracle's counting sequence.
    """
    counts = []
    for n in range(8):
        oracle = enumerate_avoiders_filter(n, patterns)
        assert enumerate_avoiders(n, patterns) == oracle, (patterns, n)
        # level n is the last of this sequence, so it is counted, not built
        for w in workers:
            seq = counting_sequence(patterns, n, workers=w)
            assert seq[n] == len(oracle), (patterns, n, w)
        counts.append(len(oracle))
    return counts


def test_pruned_equals_filter_on_sampled_orbits():
    # spot the pruned enumerator against plain filtering on a reproducible
    # sample of 50 orbits, n <= 7
    orbits = sorted(triple_orbits())
    sample = random.Random(20240).sample(orbits, 50)
    five = {canonical_form(T) for T in TRIPLES.values()}
    filtered = {rep: _assert_pruned_equals_filter(frozenset(rep)) for rep in sample}
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
def test_pruned_equals_filter_on_other_lengths(forking, patterns):
    # lengths 1, 2, 3 and 5, alone and mixed: the generic occurrence path
    # and the forbidden-rank windows at their extremes; and heads shared by
    # two or three patterns; in one process and in forked children
    _assert_pruned_equals_filter(patterns, workers=(1, *FORKED))


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
def test_forked_wilf_search_equals_serial(forking, nmax):
    # the weak sorting numbers, and targets off by one only at nmax - 1 or
    # only at nmax, so that every orbit left is dropped after the split: the
    # split counts length nmax for sets it already dropped at nmax - 1
    five = {canonical_form(T) for T in TRIPLES.values()}
    for n in (None, nmax - 1, nmax):
        target = list(TARGET)
        if n is not None:
            target[n] += 1
        serial = wilf_search(nmax, target)
        for workers in FORKED:
            assert wilf_search(nmax, target, workers=workers) == serial, (n, workers)
        # the five classes match the weak sorting numbers, and are dropped
        # at n from the others
        assert five <= set(serial.matches) if n is None else not five & set(serial.matches)
        assert n is None or dict(serial.diverged)[n] >= 5, serial.diverged


def test_process_count_is_capped_by_the_split_level():
    # at 1, 2 and 4096 CPUs, without forking: at most one process per
    # MIN_CHUNK prefixes, and a level too small to split stays in this one
    for size in (0, 1, MIN_CHUNK - 1, MIN_CHUNK, 2 * MIN_CHUNK - 1, 10**6):
        assert _processes(1, size) == 1
        assert _processes(2, size) == (2 if size >= 2 * MIN_CHUNK else 1)
        assert _processes(4096, size) == max(1, min(4096, size // MIN_CHUNK))
    assert _processes(4096, 4096 * MIN_CHUNK) == 4096


def test_small_sweep_never_forks(monkeypatch):
    # the split level of n = 7 holds 120 prefixes, too few for two chunks
    def no_fork():
        raise AssertionError("forked")

    monkeypatch.setattr(os, "fork", no_fork)
    assert counting_sequences(TRIPLES.values(), 7, workers=4096) == [list(TARGET[:8])] * 5


@pytest.fixture
def planted(forking, monkeypatch):
    """
    Replace the count of a chunk with plant(chunk), whose value or exception
    stands for it in the forked child that counts the chunk (the prefixes
    of the split level it was given); a guard alarm turns a hang into an
    error.
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


def test_child_error_is_raised_in_the_parent(planted):
    # a message far longer than a pipe holds: the parent must read each
    # pipe to its end before it waits for the child
    message = "planted in a child " + "x" * 200_000

    def fail(chunk):
        raise LookupError(message)

    planted(fail)
    with pytest.raises(LookupError) as caught:
        counting_sequences(TRIPLES.values(), 8, workers=3)
    assert caught.value.args == (message,)


def test_child_without_result_raises_runtime_error(planted):
    planted(lambda chunk: os._exit(3))
    with pytest.raises(RuntimeError, match=r"worker \d+ exited with status 3 and no result"):
        counting_sequences(TRIPLES.values(), 8, workers=2)


def test_child_error_still_reaps_its_slower_siblings(planted):
    # one chunk fails at once while the other two are still counting; the
    # forking fixture checks that no child is left unreaped
    def fail(chunk):
        if (1, 2, 3, 4, 5, 6) in chunk:
            raise ValueError("planted in one child")
        time.sleep(0.3)

    planted(fail)
    with pytest.raises(ValueError, match="^planted in one child$"):
        wilf_search(8, TARGET, workers=3)


def test_wilf_search_preconditions():
    with pytest.raises(ValueError, match=">= 6"):
        wilf_search(5, TARGET)
    with pytest.raises(ValueError, match="target"):
        wilf_search(8, TARGET[:5])
