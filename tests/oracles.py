"""
Brute-force oracles that the tests hold the library's routes against: plain
filtering and enumeration, slow and independent of the route they check.
Besides them, the keyed 213 counts of the class-5 analysis, which no route
of the package reads, live here with their census.
"""
from collections import Counter
from itertools import combinations, groupby, permutations
from math import comb
from operator import itemgetter
from typing import Iterable, Iterator, Sequence

from weaksort.class5 import Decomposition, _keyed_dot, decompose
from weaksort.counting import enumerate_avoiders
from weaksort.perms import (
    Perm,
    all_perms,
    avoids,
    canonical_form,
    contains,
    standardize,
)
from weaksort.recurrence import RecurrenceTable
from weaksort.schroder import Staircase, enumerate_paths, path_components
from weaksort.series import catalan, gen_catalan

STAIRCASE_STEPS = frozenset("NES")


def enumerate_avoiders_filter(n: int, patterns: Iterable[Sequence[int]]) -> list[Perm]:
    """
    Independent reference enumeration: filter all n! permutations.  Slow;
    used to validate the pruned enumeration.
    """
    T = [tuple(t) for t in patterns]
    return [p for p in all_perms(n) if avoids(p, T)]


def triple_orbits_canonical() -> dict[tuple[Perm, ...], int]:
    """
    Oracle for `counting.triple_orbits`: every triple of 4-letter patterns
    through `perms.canonical_form`, which applies the eight symmetries to
    the whole triple, in `combinations` order.
    """
    orbits: dict[tuple[Perm, ...], int] = {}
    for triple in combinations(permutations(range(1, 5)), 3):
        rep = canonical_form(frozenset(triple))
        orbits[rep] = orbits.get(rep, 0) + 1
    return orbits


def occurrence_lists(
    n: int, lengths: Sequence[int]
) -> Iterator[tuple[Perm, dict[Perm, list[tuple[int, ...]]]]]:
    """
    Oracle for `perms.occurrences`: for every p in `all_perms(n)`, each
    pattern of the given lengths with the list of its occurrences in p (as
    0-based positions, in lexicographic order), from one pass over the
    k-subsets of positions.  Each subset's pattern is looked up in a table
    from value tuple to its standardization, built once.
    """
    values = range(1, n + 1)
    patterns = {v: standardize(v) for k in lengths for v in permutations(values, k)}
    readers = []
    for k in lengths:
        for c in combinations(range(n), k):
            # itemgetter returns a bare value, not a tuple, for fewer than
            # two positions
            get = itemgetter(*c) if k > 1 else lambda p, c=c: tuple(p[i] for i in c)
            readers.append((c, get))
    taus = [tau for k in lengths for tau in all_perms(k)]
    for p in all_perms(n):
        found: dict[Perm, list[tuple[int, ...]]] = {tau: [] for tau in taus}
        for c, get in readers:
            found[patterns[get(p)]].append(c)
        yield p, found


def keyed_213_count(n: int, k: int) -> int:
    """
    Number of 213-avoiding permutations of 1..n ending in 1 that have k key
    entries:  sum_j binom(k-2, j-1) * C_{n-k, k-2-j}.  The binomial
    vanishes for j >= k, and C_{n-k, .} for k > n, so j runs over 1..k-1.
    The sum is `class5._keyed_dot`, the kernel of the closed formulas.
    """
    if n < 2:
        raise ValueError("defined for n >= 2")
    if k < 2:
        return 0
    binoms = [comb(k - 2, r) for r in range(k - 1)]
    return _keyed_dot(binoms, [gen_catalan(n - k, t - 1) for t in range(k - 1)])


def keyed_213_count_by_max_position(n: int, j: int, k: int) -> int:
    """
    Same count, refined by the position j of the maximum entry n:
    binom(k-2, j-1) * C_{n-k, k-2-j}.  At j = 1 (maximum first) this is
    C_{n-k, k-3}.
    """
    return _comb0(k - 2, j - 1) * gen_catalan(n - k, k - 2 - j)


def keyed_213_census(n: int) -> Counter[tuple[int, int]]:
    """
    Oracle for `keyed_213_count` and `keyed_213_count_by_max_position`:
    the 213-avoiders of length n ending in 1, counted by (number of keys,
    1-based position of n), from one enumeration.
    """
    return Counter(
        (decompose(q).k, q.index(n) + 1)
        for q in enumerate_avoiders(n, [(2, 1, 3)])
        if q[-1] == 1
    )


def tail_321_count_brute(n: int, i: int) -> int:
    """
    Oracle for C_{n-i,i} (`series.gen_catalan(n - i, i)`): the
    321-avoiders of length n whose last i entries increase, by enumeration.
    """
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


def peak_census_from_strings(n: int) -> tuple[dict[int, int], dict[int, int]]:
    """
    Oracle for `schroder.peak_census`: the census over the built step
    strings, counting peaks with str.count and components by slicing.
    """
    census: dict[int, int] = {}
    indec: dict[int, int] = {}
    for path in enumerate_paths(n):
        peaks = path.count("NE")
        census[peaks] = census.get(peaks, 0) + 1
        if len(path_components(path)) == 1:
            indec[peaks] = indec.get(peaks, 0) + 1
    return census, indec


def decompose_groupby(p: Perm) -> Decomposition:
    """
    Oracle for `class5.decompose`: the same split, with the lower blocks
    read off by itertools.groupby.
    """
    n = len(p)
    if n == 0:
        raise ValueError("cannot decompose the empty permutation")
    last = p[-1]
    upper = tuple(v for v in p if v >= last)
    lower = tuple(v for v in p if v < last)
    cut = upper.index(n) + 1
    upper_head, upper_tail = upper[:cut], upper[cut:]
    # every entry before the first upper one is lower
    lower_tail = lower[p.index(upper[0]) :]
    key_values = list(upper_head)
    low = n + 1
    for v in upper_tail:
        if v < low:
            key_values.append(v)
            low = v
    # the keys come in position order, so each search starts after the last
    key_positions = []
    at = 0
    for v in key_values:
        at = p.index(v, at) + 1
        key_positions.append(at)
    blocks = tuple(
        tuple(run) for is_lower, run in groupby(p, lambda v: v < last) if is_lower
    )
    return Decomposition(
        perm=p,
        upper=upper,
        lower=lower,
        upper_head=upper_head,
        upper_tail=upper_tail,
        lower_tail=lower_tail,
        key_positions=tuple(key_positions),
        key_values=tuple(key_values),
        blocks=blocks,
    )


def check_structure_standardized(p: Perm) -> tuple[bool, str | None]:
    """
    Oracle for `class5.check_structure`: the four conditions on
    `decompose_groupby`, with the upper part standardized before the 213
    test.
    """
    d = decompose_groupby(p)
    if contains(standardize(d.upper), (2, 1, 3)):
        return False, "upper part contains 213"
    if contains(d.lower, (3, 2, 1)):
        return False, "lower part contains 321"
    tail = d.lower_tail
    if any(a > b for a, b in zip(tail, tail[1:])):
        return False, "lower tail not increasing"
    keys = set(d.key_values)
    last = p[-1]
    if any(x < last <= y and y not in keys for x, y in zip(p, p[1:])):
        return False, "lower block not flush against a key entry"
    return True, None


def _comb0(m: int, r: int) -> int:
    """Binomial that vanishes outside 0 <= r <= m (m may go negative)."""
    if m < 0 or r < 0 or r > m:
        return 0
    return comb(m, r)


def _catalan_triangle(n: int) -> list[list[int]]:
    """rows[m][k + 1] = C_{m,k} for m + k <= n, -1 <= k."""
    return [[gen_catalan(m, k) for k in range(-1, n - m + 1)] for m in range(n + 1)]


def _keyed_sum(row: list[int], n: int, k: int) -> int:
    """
    sum_j binom(k-2, j-1) * C_{n-k, k-2-j} with row[t] = C_{n-k, t-1}.
    The binomial vanishes for j >= k, so j runs over 1..min(n, k)-1 only.
    """
    return sum(comb(k - 2, j - 1) * row[k - 1 - j] for j in range(1, min(n, k)))


def count_avoiders_termwise(n: int) -> int:
    """
    Oracle for `class5.count_avoiders`: the same closed formula evaluated
    term by term, a `math.comb` per term, looping over a, then k, then j.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    if n <= 2:
        return (1, 1, 2)[n]
    rows = _catalan_triangle(n)
    total = 3 * catalan(n - 1)
    for a in range(3, n):
        for k in range(3, a + 1):
            tail_factor = rows[n - a][k]  # C_{n-a, k-1}
            if tail_factor:
                total += tail_factor * _keyed_sum(rows[a - k], a, k)
    return total


def count_indecomposable_termwise(n: int) -> int:
    """
    Oracle for `class5.count_indecomposable`: the same closed formula
    evaluated term by term, the lower-part sum over i one `math.comb` per
    term.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if n <= 2:
        return 1
    rows = _catalan_triangle(n)
    total = catalan(n - 2) + catalan(n - 1)
    for a in range(3, n):
        b = n - a
        for k in range(3, a + 1):
            inner = sum(
                rows[b - i][i] * _comb0(i + k - 2, i)  # C_{b-i, i-1}
                for i in range(b + 1)
            )
            if inner:
                total += _keyed_sum(rows[a - k], a, k) * inner
    return total


def reference_advance(table: RecurrenceTable, prev_total: int) -> RecurrenceTable:
    """
    Oracle for `recurrence.advance`: the one-level step as two explicit
    prefix-sum loops over a filled vector, the boundary total summed from
    the a-vector below.
    """
    n = table.n + 1
    b = [0] * n
    run = 0
    for i in range(1, n - 2):
        run += table.b[i - 1]
        b[i - 1] = run
    if table.class_id == "pi1":
        b[n - 3], b[n - 2], b[n - 1] = prev_total, 0, prev_total
    else:
        b[n - 3], b[n - 2], b[n - 1] = prev_total, prev_total, 0
    below = table.a
    a = [0] * n
    run = 0
    for i in range(1, n - 2):
        run += below[i - 1]
        a[i - 1] = run + b[i - 1]
    a[n - 3] = a[n - 2] = a[n - 1] = sum(below)
    return RecurrenceTable(table.class_id, n, tuple(a), tuple(b))
