"""
Table recurrences counting the avoiders of the first three triples.

For a class T in {pi1, pi2, pi3} let a_n(i) be the number of avoiders of
length n with first entry i, and let b_n(i) refine by the second entry:

    pi1: b_n(i) counts avoiders starting (i, n-1)
    pi2: b_n(i) counts avoiders starting (i, i+1)
    pi3: b_n(i) counts avoiders starting (i, n)

All three classes satisfy the same interior recurrence for 1 <= i <= n-3,

    a_n(i) = a_{n-1}(1) + ... + a_{n-1}(i) + b_n(i)
    b_n(i) = b_{n-1}(1) + ... + b_{n-1}(i)

with boundary values a_n(n-2) = a_n(n-1) = a_n(n) = a_{n-1} (the full count
one level down) and, writing a_{n-2} for the count two levels down:

    pi1: b_n(n-1) = 0,  b_n(n-2) = b_n(n) = a_{n-2}
    pi2, pi3: b_n(n) = 0,  b_n(n-2) = b_n(n-1) = a_{n-2}

A table stores its b-vector and, in place of the a-vector, the running
sums a_n(1), a_n(1) + a_n(2), ...; the a-vector is their differences,
derived when read.  One step then makes three passes, each one big-integer
addition per entry: prefix sums of the b-vector below, the running sums
below added entrywise to the new b-vector (giving a, which is not kept),
and the running sums of the new a-vector, which the next level reads and
whose last entry is the level's total |S_n(T)|.  No total is a formula in
the boundary values: every entry is summed, so a wrong entry changes every
level above it.

One level costs O(n) arithmetic operations, so a full run to nmax costs
O(nmax^2).  Entries grow like 5^n; Python integers keep them exact.
Levels are produced one at a time and only the last two are held (level n
needs the totals of n-1 and n-2), so a run to nmax = 1000 keeps two tables
of two vectors of about a thousand entries of up to about 2,080 bits, not
a thousand tables.
"""
from __future__ import annotations

from itertools import accumulate, chain, islice
from operator import add, sub
from typing import Iterable, Iterator, Sequence

from . import series

CLASS_IDS = ("pi1", "pi2", "pi3")


class RecurrenceTable(series._Value):
    """
    Vectors a_n(1..n) and b_n(1..n) for one class at one length.

    Built from a and b; a is kept as its running sums, the form `advance`
    reads, and derived from them when read.  No field is reassigned.  Two
    tables are equal when their class, length, a- and b-vectors are.
    """

    __slots__ = ("class_id", "n", "b", "sums")
    class_id: str
    n: int
    b: tuple[int, ...]
    #: running sums of a, a_n(1) + ... + a_n(i) for i = 1..n
    sums: tuple[int, ...]

    def __init__(self, class_id: str, n: int, a: Iterable[int],
                 b: tuple[int, ...]) -> None:
        super().__init__(class_id, n, b, tuple(accumulate(a)))

    def __reduce__(self):
        return RecurrenceTable, (self.class_id, self.n, self.a, self.b)

    @property
    def a(self) -> tuple[int, ...]:
        """a_n(1..n), the differences of the running sums."""
        return tuple(map(sub, self.sums, (0,) + self.sums[:-1]))

    @property
    def total(self) -> int:
        """|S_n(T)|, the sum of the a-vector (1 for n = 0)."""
        return self.sums[-1] if self.n > 0 else 1


def _second_entry(class_id: str, n: int, i: int) -> int:
    """The second entry whose count b_n(i) tracks, given first entry i."""
    if class_id == "pi1":
        return n - 1
    if class_id == "pi2":
        return i + 1
    if class_id == "pi3":
        return n
    raise ValueError(f"unknown class {class_id!r}; choose from {CLASS_IDS}")


def seed_tables(class_id: str) -> list[RecurrenceTable]:
    """Tables for n = 0, 1, 2, computed directly from the definitions."""
    _second_entry(class_id, 3, 1)  # validate class_id
    # b_2(i) counts the single length-2 avoider starting (i, second(i));
    # only (2,1) qualifies for pi1, only (1,2) for pi2 and pi3.
    b2 = (0, 1) if class_id == "pi1" else (1, 0)
    return [
        RecurrenceTable(class_id, 0, (), ()),
        RecurrenceTable(class_id, 1, (1,), (0,)),
        RecurrenceTable(class_id, 2, (1, 1), b2),
    ]


def advance(table: RecurrenceTable, prev_total: int) -> RecurrenceTable:
    """
    The table one level up.  prev_total must be the total of the table one
    level below `table` (needed by the boundary values).
    """
    n = table.n + 1
    if n < 3:
        raise ValueError("advance applies from n=3 up; seed smaller tables directly")
    cid = table.class_id
    # interior 1 <= i <= n-3: prefix sums of the level below
    b = list(accumulate(islice(table.b, n - 3)))
    if cid == "pi1":
        b += (prev_total, 0, prev_total)   # b_n(n-2), b_n(n-1), b_n(n)
    else:
        b += (prev_total, prev_total, 0)
    # interior: the running sums of the level below plus the new b; the
    # table keeps only the running sums of this a
    total = table.total
    a = chain(map(add, islice(table.sums, n - 3), b),
              (total, total, total))       # a_n(n-2), a_n(n-1), a_n(n)
    return RecurrenceTable(cid, n, a, tuple(b))


def _tables(class_id: str) -> Iterator[RecurrenceTable]:
    """Tables for n = 0, 1, 2, ... without end, holding only the last two."""
    seeds = seed_tables(class_id)
    yield from seeds
    below, table = seeds[1], seeds[2]
    while True:
        below, table = table, advance(table, below.total)
        yield table


def tables_upto(class_id: str, nmax: int) -> list[RecurrenceTable]:
    """Tables for n = 0..nmax."""
    if nmax < 0:
        raise ValueError("nmax must be >= 0")
    return list(islice(_tables(class_id), nmax + 1))


def count_via_recurrence(class_id: str, nmax: int) -> list[int]:
    """[|S_0(T)|, ..., |S_nmax(T)|] from the recurrence; O(nmax^2) total,
    with only two levels held at a time."""
    if nmax < 0:
        raise ValueError("nmax must be >= 0")
    return [t.total for t in islice(_tables(class_id), nmax + 1)]


def empirical_table(n: int, class_id: str,
                    avoiders: Iterable[Sequence[int]]) -> RecurrenceTable:
    """
    The same table tallied from the class's avoiders of length n, listed by
    enumeration, for validating `advance`.
    """
    _second_entry(class_id, 3, 1)
    if n == 0:
        return RecurrenceTable(class_id, 0, (), ())
    a = [0] * n
    b = [0] * n
    for p in avoiders:
        i = p[0]
        a[i - 1] += 1
        if n >= 2 and p[1] == _second_entry(class_id, n, i):
            b[i - 1] += 1
    return RecurrenceTable(class_id, n, tuple(a), tuple(b))


def verify_kernel_identity(nmax: int):
    """
    Numerical check of the kernel-method identity tying the b-tables to the
    a-tables of class pi1:

        B(x) = x(sqrt(1-4x) - 1)/2 + (2x^2 + x - x*sqrt(1-4x))/2 * A(x)

    where A and B are the generating functions of the level totals sum_i
    a_n(i) and sum_i b_n(i).  Both sides are scaled by 2, so the check is
    pure integer series arithmetic with no division, and a failure shows as
    a nonzero residual rather than an exception.  Returns (identity holds,
    residual series 2B - rhs) at order nmax.
    """
    if nmax < 2:
        raise ValueError("nmax must be >= 2")
    a_totals, b_totals = [], []
    for t in islice(_tables("pi1"), nmax + 1):
        a_totals.append(t.total)
        b_totals.append(sum(t.b))
    A = series.from_ints(a_totals, nmax)
    B = series.from_ints(b_totals, nmax)
    sq = series.sqrt_one_minus_4x(nmax)
    x = series.x(nmax)
    one = series.one(nmax)
    rhs = x * (sq - one) + (x * x * 2 + x - x * sq) * A
    residual = B * 2 - rhs
    return residual.is_zero(), residual
