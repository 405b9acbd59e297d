"""
Structure theory and direct counting for the avoiders of the fifth triple
{3214, 3241, 4213}.

Every nonempty permutation p splits at a horizontal line just below its last
entry: the *upper* part holds the entries >= p_n (the last entry included),
the *lower* part the rest.  The upper part splits again at the maximum n into
a head (entries weakly left of n) and a tail.  An entry is a *key* if it lies
in the upper head or is a left-to-right minimum of the upper tail.  The
lower tail collects the lower entries positioned after the first upper entry.
`decompose` returns every part as a tuple of values in position order, and
the keys' positions in p, 1-based.

p avoids the triple exactly when four conditions hold:

    1. the upper part (standardized) avoids 213;
    2. the lower part avoids 321;
    3. the lower tail is increasing;
    4. each maximal block of lower entries that are contiguous in p sits
       immediately left of a key entry (except the initial block, which
       starts the permutation).

`check_structure` reads all four conditions in one left-to-right pass over
p, building no `Decomposition` and calling no containment test: condition 1
from the upper values seen so far, kept as a bitmask, and the least upper
value that a smaller one has followed; condition 2 from the lower maximum
and the last lower entry below it.  Criterion 8 of `weaksort verify` holds
its reasons against the conditions read off `decompose` with `contains`.

Counting by a = |upper|, k = #keys, i = |lower tail| turns the
characterization into the closed formula `count_avoiders`, built from
generalized Catalan numbers C_{n,k} (the n-th coefficient of C(x)^(k+1),
C(x) the Catalan series) and the keyed sum of `_keyed_dot`, which counts
the 213-avoiders ending in 1 by their number of keys; C_{n-i,i} counts
the 321-avoiders of length n whose last i entries increase.
`count_avoiders(n)` and `count_indecomposable(n)` each fill one triangle
of C_{m,k} with m + k <= n at the start of the call (row 0 all ones, every
later row as prefix sums of the row above), read every Catalan factor off
it, the Catalan numbers C_m = C_{m,0} of their boundary terms included,
and loop over k on the outside, carrying the Pascal row binom(k-2, .)
forward one row per k.  Each keyed sum over j is then one dot product of
that row with a reversed slice of the triangle, evaluated by
`sum(map(mul, ...))` at C level, and the lower-part sum over i of
`count_indecomposable` is one dot product of a column of the triangle with
the vector binom(i+k-2, i), itself carried forward per k by prefix sums.
Beyond the triangle, a call keeps O(n) new integers (the Pascal row and
that vector); the columns hold references to the triangle's entries, not
copies.  Nothing outlives the call.  The module reads nothing from
`weaksort.series`, the route the formulas are checked against.
`construct` inverts the analysis: it assembles the unique avoider from a
choice of upper pattern, lower permutation, and block distribution, and is
a bijection onto the avoiders with 3 <= a <= n-1; `constructions(n)`
assembles every one of them.
"""
from __future__ import annotations

from itertools import accumulate, islice
from operator import add, mul
from typing import NamedTuple

from .counting import avoider_levels
from .perms import Perm, contains, is_permutation


class Decomposition(NamedTuple):
    """The split of a permutation used by the structure theorem.  Every part
    is a tuple of values in position order, `blocks` a tuple of such tuples;
    `key_positions` are the keys' positions in p, 1-based."""

    perm: Perm
    upper: tuple[int, ...]
    lower: tuple[int, ...]
    upper_head: tuple[int, ...]
    upper_tail: tuple[int, ...]
    lower_tail: tuple[int, ...]
    key_positions: tuple[int, ...]
    key_values: tuple[int, ...]
    blocks: tuple[tuple[int, ...], ...]

    @property
    def a(self) -> int:
        """Length of the upper part."""
        return len(self.upper)

    @property
    def k(self) -> int:
        """Number of key entries."""
        return len(self.key_values)

    @property
    def i(self) -> int:
        """Number of lower entries after the first key entry."""
        return len(self.lower_tail)


def decompose(p: Perm) -> Decomposition:
    """Split any nonempty permutation (avoider or not) at its last entry."""
    n = len(p)
    if n == 0:
        raise ValueError("cannot decompose the empty permutation")
    last = p[-1]
    upper = tuple([v for v in p if v >= last])
    lower = tuple([v for v in p if v < last])
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
    # maximal runs of lower entries; p ends in an upper entry, which closes
    # the last run
    blocks: list[tuple[int, ...]] = []
    run: list[int] = []
    for v in p:
        if v < last:
            run.append(v)
        elif run:
            blocks.append(tuple(run))
            run = []
    return Decomposition(
        perm=p,
        upper=upper,
        lower=lower,
        upper_head=upper_head,
        upper_tail=upper_tail,
        lower_tail=lower_tail,
        key_positions=tuple(key_positions),
        key_values=tuple(key_values),
        blocks=tuple(blocks),
    )


def check_structure(p: Perm) -> tuple[bool, str | None]:
    """
    Evaluate the four structural conditions in order; returns (True, None)
    or (False, name of the first violated condition).  Agreement with
    avoidance of the fifth triple is the structure theorem under test.

    All four are read in one pass over p, and no `Decomposition` is built.
    Condition 1 ends the pass at once; conditions 2, 3 and 4 are noted as
    they fail and reported in that order after it.

    - Condition 1: the upper part contains 213 exactly when some upper
      entry lies above `least`, the least upper value that a smaller
      upper value has already followed.  The pass carries the upper
      values seen so far as a bitmask; when v arrives it is tested
      against `least`, which then drops to the least seen value above v.
    - Condition 2: the lower part avoids 321 exactly when its entries that
      are not left-to-right maxima of the lower part increase.  The pass
      carries the lower maximum and the last such entry.
    - Conditions 3 and 4: a lower entry after an upper one is in the lower
      tail, an upper entry after the maximum n is in the upper tail, and a
      tail entry below the least tail entry so far is a key.  The pass
      carries the last lower-tail value, the least upper-tail entry, and
      whether the previous entry was lower (the entry after a lower block
      must be a key).
    """
    if not p:
        raise ValueError("cannot decompose the empty permutation")
    n, last = len(p), p[-1]
    seen = 0  # the upper values so far, one bit each
    least = 2 << n  # as a bit; above every value until a descent is seen
    low_max = low_last = tail_last = 0
    tail_low = n + 1
    past_max = after_lower = False
    bad_lower = bad_tail = misplaced = False
    for v in p:
        if v < last:
            if v > low_max:
                low_max = v
            else:
                if v < low_last:
                    bad_lower = True
                low_last = v
            if seen:
                if v < tail_last:
                    bad_tail = True
                tail_last = v
            after_lower = True
            continue
        bit = 1 << v
        if bit > least:
            return False, "upper part contains 213"
        above = seen & -(bit << 1)
        if above:
            least = above & -above
        seen |= bit
        if past_max:
            if v < tail_low:
                tail_low = v
            elif after_lower:
                misplaced = True
        elif v == n:
            past_max = True
        after_lower = False
    if bad_lower:
        return False, "lower part contains 321"
    if bad_tail:
        return False, "lower tail not increasing"
    if misplaced:
        return False, "lower block not flush against a key entry"
    return True, None


# --------------------------------------------------------------------------
# counting ingredients


def _catalan_rows(n: int) -> list[list[int]]:
    """The triangle of generalized Catalan numbers with m + k <= n, as rows
    by m: rows[m][k + 1] = C_{m,k} for -1 <= k <= n - m, so rows[m][1] is
    the Catalan number C_m.  Row 0 is all ones, C_{0,k} = 1 for k >= -1;
    every later row is the prefix sums of the row above from its third
    entry on, by C_{m,k} = C_{m,k-1} + C_{m-1,k+1} (that is, C^{k+1} = C^k
    + x C^{k+2}) and C_{m,-1} = 0 for m > 0."""
    rows = [[1] * (n + 2)]
    for _ in range(n):
        rows.append(list(accumulate(rows[-1][2:], initial=0)))
    return rows


def _next_pascal_row(row: list[int]) -> list[int]:
    """binom(m+1, .) from binom(m, .)."""
    return [1, *map(add, row, row[1:]), 1]


def _keyed_dot(binoms: list[int], row: list[int]) -> int:
    """
    sum_{j=1}^{k-1} binom(k-2, j-1) * C_{m, k-2-j}, for k >= 2, from the
    Pascal row binoms = [binom(k-2, 0), ..., binom(k-2, k-2)] and a
    triangle row with row[t] = C_{m, t-1}: the row is read backwards from
    C_{m, k-3}, index len(binoms) - 1, one factor per binomial.
    """
    return sum(map(mul, binoms, row[len(binoms) - 1 :: -1]))


def _tail_increasing(q: Perm, i: int) -> bool:
    tail = q[len(q) - i :]
    return all(a < b for a, b in zip(tail, tail[1:]))


# --------------------------------------------------------------------------
# the counting formulas


def count_avoiders(n: int) -> int:
    """
    |S_n({3214, 3241, 4213})| by the closed formula

        3 C_{n-1} + sum_{a=3}^{n-1} sum_{k=3}^{a} sum_{j=1}^{a-1}
            binom(k-2, j-1) C_{a-k, k-j-2} C_{n-a, k-1}

    for n >= 3, with 1, 1, 2 directly for n = 0, 1, 2.  The binomial
    vanishes for j >= k, so the sum over j is the keyed dot product of the
    Pascal row binom(k-2, .) with the triangle row of C_{a-k, .}; k runs on
    the outside, carrying that row forward, and a on the inside.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    if n <= 2:
        return (1, 1, 2)[n]
    rows = _catalan_rows(n)
    total = 3 * rows[n - 1][1]  # 3 C_{n-1}
    binoms = [1]
    for k in range(3, n):
        binoms = _next_pascal_row(binoms)  # binom(k-2, .)
        for a in range(k, n):
            # C_{n-a, k-1} * keyed count of the upper part
            total += rows[n - a][k] * _keyed_dot(binoms, rows[a - k])
    return total


def count_indecomposable(n: int) -> int:
    """
    Number of indecomposable avoiders of the fifth triple of length n:
    1, 1, 3, 11, 43, 173, 707, ... for n = 1, 2, 3, ... (OEIS A026671).

    Same shape as `count_avoiders` with the boundary term replaced by
    C_{n-2} + C_{n-1} and the lower-part factor C_{b-i,i} tightened to
    C_{b-i,i-1} (lower prefixes must never form an initial segment of the
    positive integers, which would split off a summand), so the lower
    part of size b = n - a contributes

        sum_{i=0}^{b} C_{b-i, i-1} binom(i+k-2, i),

    one dot product of the column (C_{b-i, i-1})_i of the triangle with the
    vector binom(i+k-2, i), which the k-outer loop carries forward by
    prefix sums (binom(i+k-1, i) = sum_{t<=i} binom(t+k-2, t)).
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if n <= 2:
        return 1
    rows = _catalan_rows(n)
    # columns[b][i] = C_{b-i, i-1}, for the lower sizes b = n - a <= n - 3
    columns = [[rows[b - i][i] for i in range(b + 1)] for b in range(n - 2)]
    total = rows[n - 2][1] + rows[n - 1][1]  # C_{n-2} + C_{n-1}
    binoms = [1]
    lower_binoms = [1] * (n - 2)  # binom(i+k-2, i) for k = 2
    for k in range(3, n):
        binoms = _next_pascal_row(binoms)  # binom(k-2, .)
        lower_binoms = list(accumulate(lower_binoms))  # binom(i+k-2, i)
        for a in range(k, n):
            inner = sum(map(mul, columns[n - a], lower_binoms))
            total += _keyed_dot(binoms, rows[a - k]) * inner
    return total


# --------------------------------------------------------------------------
# constructive generation


def construct(
    upper_pattern: Perm, lower_perm: Perm, distribution: tuple[int, ...]
) -> Perm:
    """
    Assemble the unique avoider of length a + b from:

    upper_pattern
        a 213-avoiding permutation of length a >= 3 ending in 1 (the upper
        part, standardized); its key count k fixes the number of blocks;
    lower_perm
        a 321-avoiding permutation of length b >= 1 whose last
        i = sum(distribution) entries are increasing;
    distribution
        a weak composition of i into k - 1 parts: how many of those final
        increasing entries go immediately before each non-first key.

    The first b - i lower entries open the permutation (before the first
    upper entry); the upper pattern is shifted up by b.  Raises ValueError
    on any incompatible combination.
    """
    a, b = len(upper_pattern), len(lower_perm)
    if a < 3 or b < 1:
        raise ValueError(
            f"need 3 <= len(upper_pattern) and 1 <= len(lower_perm), got a={a}, b={b}"
        )
    for name, perm in (("upper_pattern", upper_pattern), ("lower_perm", lower_perm)):
        if not is_permutation(perm):
            raise ValueError(f"{name} must be a permutation of 1..{len(perm)}, got {perm!r}")
    if upper_pattern[-1] != 1:
        raise ValueError("upper pattern must end in 1")
    if contains(upper_pattern, (2, 1, 3)):
        raise ValueError("upper pattern must avoid 213")
    if contains(lower_perm, (3, 2, 1)):
        raise ValueError("lower permutation must avoid 321")
    i = sum(distribution)
    if any(part < 0 for part in distribution):
        raise ValueError("distribution parts must be >= 0")
    if i > b:
        raise ValueError(f"distribution places {i} entries but only {b} available")
    if not _tail_increasing(lower_perm, i):
        raise ValueError(f"last {i} entries of the lower permutation must increase")
    keys = decompose(upper_pattern).key_positions
    k = len(keys)
    if k < 3:
        raise ValueError(f"upper pattern has only {k} keys; need at least 3")
    if len(distribution) != k - 1:
        raise ValueError(f"distribution needs k-1 = {k - 1} parts")
    # the block before each non-first key, taken in turn off the tail
    sizes = dict(zip(keys[1:], distribution))
    tail = iter(lower_perm[b - i :])
    out = list(lower_perm[: b - i])
    for pos, v in enumerate(upper_pattern, 1):
        out.extend(islice(tail, sizes.get(pos, 0)))
        out.append(v + b)
    return tuple(out)


def constructions(n: int) -> list[Perm]:
    """
    Every avoider of length n with 3 <= a <= n-1, assembled by `construct`
    from each upper pattern (213-avoider ending in 1 with at least 3 keys),
    each lower permutation (321-avoider) and each distribution of its
    increasing tail over the non-first keys.  `construct` being a
    bijection onto that stratum, each avoider should appear once; criterion
    8 of `weaksort verify` checks exactly that.  Each length's upper
    patterns and lower permutations are listed once, by one
    `avoider_levels` call per pattern.
    """
    out: list[Perm] = []
    # upper parts of lengths 3..n-1, lower ones of 1..n-3; none below n = 4
    uppers = avoider_levels([(2, 1, 3)], max(n - 1, 0))
    lowers = avoider_levels([(3, 2, 1)], max(n - 3, 0))
    for a in range(3, n):
        b = n - a
        for upper in uppers[a]:
            if upper[-1] != 1:
                continue
            k = decompose(upper).k
            if k < 3:
                continue
            for i in range(b + 1):
                for lower in lowers[b]:
                    if not _tail_increasing(lower, i):
                        continue
                    for dist in _compositions(i, k - 1):
                        out.append(construct(upper, lower, dist))
    return out


def _compositions(total: int, parts: int):
    """Weak compositions of total into the given number of parts."""
    if parts == 0:
        if total == 0:
            yield ()
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest

