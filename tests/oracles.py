"""
Brute-force oracles that the tests hold the library's routes against: plain
filtering and enumeration, slow and independent of the route they check.
"""
from typing import Iterable, Sequence

from weaksort.class5 import decompose
from weaksort.counting import enumerate_avoiders
from weaksort.perms import Perm, all_perms, avoids
from weaksort.schroder import Staircase

STAIRCASE_STEPS = frozenset("NES")


def enumerate_avoiders_filter(n: int, patterns: Iterable[Sequence[int]]) -> list[Perm]:
    """
    Independent reference enumeration: filter all n! permutations.  Slow;
    used to validate the pruned enumeration.
    """
    T = [tuple(t) for t in patterns]
    return [p for p in all_perms(n) if avoids(p, T)]


def keyed_213_count_brute(n: int, k: int, j: int | None = None) -> int:
    """
    Independent oracle for `class5.keyed_213_count` and
    `class5.keyed_213_count_by_max_position`, by enumeration of the
    213-avoiders ending in 1 (optionally restricted to maximum at position j).
    """
    total = 0
    for q in enumerate_avoiders(n, [(2, 1, 3)]):
        if q[-1] != 1:
            continue
        if j is not None and q.index(n) + 1 != j:
            continue
        if decompose(q).k == k:
            total += 1
    return total


def tail_321_count_brute(n: int, i: int) -> int:
    """Oracle for `class5.tail_321_count` by enumeration."""
    tails = (q[n - i :] for q in enumerate_avoiders(n, [(3, 2, 1)]))
    return sum(1 for t in tails if all(a < b for a, b in zip(t, t[1:])))


def validate_staircase(steps: str) -> Staircase:
    """
    Check a step string for the three staircase properties and return it,
    rejecting with the position (1-based) of the first violation where one
    exists.
    """
    n = steps.count("N")
    if n == 0:
        raise ValueError("a staircase needs at least one N step")
    for i, ch in enumerate(steps):
        if ch not in STAIRCASE_STEPS:
            raise ValueError(f"invalid step {ch!r} at position {i + 1}")
    if steps.count("E") != n or steps.count("S") != n:
        raise ValueError(f"step counts differ: need {n} each of N, E, S")
    seen_s = False
    h = 0
    col = 0
    x_of_nth_n: list[int] = []
    x_of_sth_s: list[int] = []
    run_heights: list[int] = []
    prev = ""
    for i, ch in enumerate(steps):
        if ch == "N":
            if seen_s:
                raise ValueError(f"N after S at position {i + 1}")
            x_of_nth_n.append(col)
            h += 1
        elif ch == "S":
            seen_s = True
            x_of_sth_s.append(col)
            h -= 1
        else:
            if prev != "E":
                run_heights.append(h)
            col += 1
        prev = ch
    if len(set(run_heights)) != len(run_heights):
        raise ValueError("two East runs share a height")
    # property (3): i-th matching N/S pair from the top
    for i in range(1, n + 1):
        gap = x_of_sth_s[i - 1] - x_of_nth_n[n - i]
        if i == 1 and gap != 1:
            raise ValueError(f"top N/S pair must be exactly 1 apart, got {gap}")
        if gap < i:
            raise ValueError(f"N/S pair {i} from the top only {gap} apart")
    return steps
