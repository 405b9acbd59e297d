"""Table recurrences for the first three triples and the kernel identity."""
import tracemalloc

import pytest

from weaksort.counting import counting_sequence
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


def test_seed_tables_other_classes_track_their_own_definitions():
    # b_2 counts the avoider starting (i, i+1) resp. (i, n): only 12 does
    for class_id in ("pi2", "pi3"):
        t2 = seed_tables(class_id)[2]
        assert t2.b == (1, 0)
        assert empirical_table(2, class_id).b == (1, 0)


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


def reference_advance(table, prev_total):
    """The one-level step as two explicit prefix-sum loops over a filled
    vector, kept as the oracle for `advance`."""
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
    a = [0] * n
    run = 0
    for i in range(1, n - 2):
        run += table.a[i - 1]
        a[i - 1] = run + b[i - 1]
    a[n - 3] = a[n - 2] = a[n - 1] = sum(table.a)
    return RecurrenceTable(table.class_id, n, tuple(a), tuple(b))


@pytest.mark.parametrize("class_id", CLASS_IDS)
def test_streamed_tables_match_reference_advance(class_id):
    tabs = tables_upto(class_id, 200)
    assert [t.n for t in tabs] == list(range(201))
    want = seed_tables(class_id)
    while len(want) <= 200:
        want.append(reference_advance(want[-1], sum(want[-2].a) if want[-2].n else 1))
    for got, ref in zip(tabs, want):
        assert (got.n, got.a, got.b) == (ref.n, ref.a, ref.b), (class_id, got.n)
        assert got.total == (sum(ref.a) if ref.n else 1)
    totals = count_via_recurrence(class_id, 200)
    assert totals == [t.total for t in tabs]


def test_recurrence_matches_main_series_to_300():
    assert count_via_recurrence("pi1", 300) == list(gf_catalog("main", 300).coeffs)


def test_count_via_recurrence_holds_two_levels():
    # all 1001 tables of ~2300-bit entries take about 145 MB; two take ~1.4 MB
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
