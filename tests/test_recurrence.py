"""Table recurrences for the first three triples and the kernel identity."""
import pickle
import tracemalloc
from itertools import accumulate

import pytest

from oracles import reference_advance
from weaksort.counting import counting_sequence, enumerate_avoiders
from weaksort.perms import TRIPLES
from weaksort.recurrence import (
    CLASS_IDS,
    RecurrenceTable,
    advance,
    count_via_recurrence,
    empirical_table,
    seed_tables,
    tables_upto,
    verify_kernel_identity,
)
from weaksort.series import gf_catalog


def test_seed_tables_first_class():
    t0, t1, t2 = seed_tables("pi1")
    assert (t0.a, t0.b, t0.total) == ((), (), 1)
    assert (t1.a, t1.b, t1.total) == ((1,), (0,), 1)
    assert (t2.a, t2.b, t2.total) == ((1, 1), (0, 1), 2)


def test_recurrence_table_is_an_immutable_value():
    # built from a and b, equal and hashed by class, length, b and the
    # running sums of a, printed in field order, and closed to assignment
    t = RecurrenceTable("pi2", 3, (2, 2, 2), (1, 1, 0))
    assert repr(t) == "RecurrenceTable(class_id='pi2', n=3, b=(1, 1, 0), sums=(2, 4, 6))"
    same = RecurrenceTable("pi2", 3, iter([2, 2, 2]), (1, 1, 0))
    assert t == same and hash(t) == hash(same)
    assert t != RecurrenceTable("pi3", 3, (2, 2, 2), (1, 1, 0))
    assert t != RecurrenceTable("pi2", 3, (2, 2, 2), (1, 0, 1))
    assert t != RecurrenceTable("pi2", 3, (1, 3, 2), (1, 1, 0))
    assert t != ("pi2", 3, (1, 1, 0), (2, 4, 6))
    assert len({t, same}) == 1
    assert pickle.loads(pickle.dumps(t)) == t
    for name in ("class_id", "n", "b", "sums", "a"):
        with pytest.raises(AttributeError):
            setattr(t, name, None)
    with pytest.raises(AttributeError):
        del t.sums
    assert (t.a, t.total) == ((2, 2, 2), 6)


def test_seed_tables_other_classes_track_their_own_definitions():
    # b_2 counts the avoider starting (i, i+1) resp. (i, n): only 12 does
    for class_id in ("pi2", "pi3"):
        t2 = seed_tables(class_id)[2]
        assert t2.b == (1, 0)
        avoiders = enumerate_avoiders(2, TRIPLES[class_id])
        assert empirical_table(2, class_id, avoiders).b == (1, 0)


@pytest.mark.parametrize("class_id", CLASS_IDS)
def test_empirical_table_at_length_zero(class_id):
    t0 = empirical_table(0, class_id, [()])
    assert t0 == seed_tables(class_id)[0]
    assert (t0.a, t0.b, t0.total) == ((), (), 1)


def test_advance_small_levels_first_class():
    tabs = tables_upto("pi1", 4)
    assert tabs[3].b == (1, 0, 1)
    assert tabs[3].total == 6
    assert tabs[4].b == (1, 2, 0, 2)
    assert tabs[4].a == (3, 6, 6, 6)
    assert tabs[4].total == 21


def test_advance_boundary_second_class():
    tabs = tables_upto("pi2", 4)
    assert tabs[4].a == (3, 6, 6, 6)
    assert sum(tabs[4].a) == 21


def test_advance_rejects_small_n():
    t1 = seed_tables("pi1")[1]
    with pytest.raises(ValueError, match="n=3"):
        advance(t1, 1)


def test_unknown_class_rejected():
    with pytest.raises(ValueError, match="unknown class"):
        tables_upto("pi9", 4)


def test_recurrence_matches_brute_force():
    for class_id in CLASS_IDS:
        got = count_via_recurrence(class_id, 9)
        want = counting_sequence(TRIPLES[class_id], 9)
        assert got == want, class_id


def test_second_and_third_class_tables_identical():
    assert count_via_recurrence("pi2", 100) == count_via_recurrence("pi3", 100)


def test_b_totals():
    tabs = tables_upto("pi1", 6)
    assert [sum(t.b) for t in tabs] == [0, 0, 1, 2, 5, 16, 57]


def test_kernel_identity_trivial_order():
    ok, _ = verify_kernel_identity(2)
    assert ok


def test_kernel_identity_rejects_tiny_order():
    with pytest.raises(ValueError):
        verify_kernel_identity(1)


def test_growth_needs_bignums():
    # counts pass 2^63 well before n=50; exactness is the whole point
    seq = count_via_recurrence("pi1", 50)
    assert seq[50] > 2**63


@pytest.mark.parametrize("class_id", CLASS_IDS)
def test_streamed_tables_match_reference_advance(class_id):
    tabs = tables_upto(class_id, 200)
    assert [t.n for t in tabs] == list(range(201))
    want = seed_tables(class_id)
    while len(want) <= 200:
        want.append(reference_advance(want[-1], sum(want[-2].a) if want[-2].n else 1))
    for got, ref in zip(tabs, want):
        assert (got.n, got.a, got.b) == (ref.n, ref.a, ref.b), (class_id, got.n)
    totals = count_via_recurrence(class_id, 200)
    assert totals == [t.total for t in tabs]


@pytest.mark.parametrize("class_id", CLASS_IDS)
def test_streamed_tables_carry_the_running_sums_of_a(class_id):
    tabs = tables_upto(class_id, 200)
    assert tabs[0].total == 1
    for t in tabs[1:]:
        assert t.total == sum(t.a), (class_id, t.n)
        assert t.sums == tuple(accumulate(t.a)), (class_id, t.n)


def test_short_runs_are_prefixes_of_a_long_run():
    for class_id in CLASS_IDS:
        long_run = count_via_recurrence(class_id, 200)
        for nmax in range(7):
            assert count_via_recurrence(class_id, nmax) == long_run[: nmax + 1], (class_id, nmax)


def test_recurrence_matches_main_series_to_300():
    assert count_via_recurrence("pi1", 300) == list(gf_catalog("main", 300).coeffs)


def test_count_via_recurrence_holds_two_levels():
    # all 1001 tables of up to ~2080-bit entries (b and the running sums of
    # a) take about 145 MiB; two take ~1.4 MiB
    tracemalloc.start()
    try:
        count_via_recurrence("pi1", 1000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20, peak


def test_negative_order_rejected():
    for fn in (tables_upto, count_via_recurrence):
        with pytest.raises(ValueError, match="nmax"):
            fn("pi1", -1)
