"""Exact series arithmetic and the generating-function catalog."""
from math import comb

import pytest
from hypothesis import given
from hypothesis import strategies as st

from weaksort.series import (
    CATALOG_NAMES,
    BivariateSeries,
    Series,
    catalan,
    catalan_series,
    from_ints,
    gen_catalan,
    gf_catalog,
    invert_transform,
    one,
    sqrt_one_minus_4x,
    x,
)

TARGET = [1, 1, 2, 6, 21, 79, 309, 1237, 5026]


def test_ring_examples():
    N = 10
    assert ((one(N) + x(N)) * (one(N) - x(N))).coeffs[:3] == (1, 0, -1)
    geometric = one(N) / (one(N) - x(N))
    assert all(c == 1 for c in geometric.coeffs)


def test_operands_truncate_to_smaller_order():
    f = one(10)
    g = x(5)
    assert (f + g).order == 5
    assert (f * g).order == 5
    assert (f - g).order == 5


def test_division_requires_unit_constant_term():
    with pytest.raises(ZeroDivisionError, match="zero constant term"):
        one(5) / x(5)


small_series = st.lists(
    st.integers(min_value=-9, max_value=9), min_size=1, max_size=8
)


@given(small_series, small_series)
def test_add_sub_cancel(fs, gs):
    N = min(len(fs), len(gs)) - 1
    f = from_ints(fs, N)
    g = from_ints(gs, N)
    assert ((f + g) - g).coeffs == f.coeffs


@given(small_series)
def test_mul_div_roundtrip(fs):
    f = from_ints([1] + fs, len(fs))
    g = from_ints([3] + fs[::-1], len(fs))
    assert ((f * g) / g).coeffs == f.coeffs


def test_sqrt_series():
    sq = sqrt_one_minus_4x(300)
    assert [int(c) for c in sq.coeffs[:6]] == [1, -2, -2, -4, -10, -28]
    assert int(sq.coeffs[7]) == -264
    square = sq * sq
    assert [int(c) for c in square.coeffs[:3]] == [1, -4, 0]
    assert square.coeffs[2:] == (0,) * 299


def test_catalan_numbers():
    assert [catalan(n) for n in range(9)] == [1, 1, 2, 5, 14, 42, 132, 429, 1430]
    assert catalan_series(300).coeffs == tuple(catalan(n) for n in range(301))
    assert all(gen_catalan(n, 0) == catalan(n) for n in range(13))
    assert gen_catalan(1, 2) == 3
    assert gen_catalan(0, -1) == 1
    assert gen_catalan(3, -1) == 0
    assert gen_catalan(-1, 4) == 0
    assert gen_catalan(2, -3) == 0


def test_gen_catalan_is_convolution_coefficient():
    N = 12
    C = catalan_series(N)
    power = one(N)
    for k in range(-1, 6):
        if k >= 0:
            power = power * C
        for n in range(N + 1):
            assert power.coeffs[n] == gen_catalan(n, k), (n, k)


def test_generalized_catalan_identity():
    for b in range(13):
        for k in range(3, 13):
            lhs = sum(
                comb(i + k - 2, i) * gen_catalan(b - i, i) for i in range(b + 1)
            )
            assert lhs == gen_catalan(b, k - 1), (b, k)


def test_invert_transform():
    N = 40
    assert invert_transform(x(N)).coeffs == (one(N) / (one(N) - x(N))).coeffs
    C = catalan_series(N)
    assert invert_transform(x(N) * C).coeffs == C.coeffs
    assert (
        invert_transform(gf_catalog("indec_le1peak", N)).coeffs
        == gf_catalog("schroder_le1peak_per_comp", N).coeffs
    )
    with pytest.raises(ValueError, match="constant term"):
        invert_transform(one(5))


def test_main_series():
    assert list(gf_catalog("main", 8).coeffs) == TARGET


def test_main_numerator_denominator_expansions():
    N = 6
    sq = sqrt_one_minus_4x(N)
    num = from_ints([1, -5], N) + from_ints([1, 1], N) * sq
    den = from_ints([1, -5], N) + from_ints([1, -1], N) * sq
    assert [int(c) for c in num.coeffs[:3]] == [2, -6, -4]
    assert [int(c) for c in den.coeffs[:3]] == [2, -8, 0]
    assert list((num / den).coeffs)[:5] == [1, 1, 2, 6, 21]


def test_main_equals_one_plus_nonempty():
    N = 40
    main = gf_catalog("main", N)
    assert (main - one(N) - gf_catalog("pi4_nonempty", N)).is_zero()


def test_class5_routes_agree_with_main():
    N = 40
    main = gf_catalog("main", N)
    assert (gf_catalog("class5_F", N) - main).is_zero()
    assert (gf_catalog("class5_F_rationalized", N) - main).is_zero()


def test_indecomposable_series_prefix():
    coeffs = list(gf_catalog("class5_indec", 8).coeffs)
    assert coeffs[0] == 0
    assert coeffs[1:8] == [1, 1, 3, 11, 43, 173, 707]


def test_indec_le1peak_series():
    coeffs = list(gf_catalog("indec_le1peak", 7).coeffs)
    assert coeffs == [0, 2, 2, 5, 15, 49, 168, 594]


def test_catalog_integrality():
    # every entry builds: its divisions are exact, or they would raise
    for name in CATALOG_NAMES:
        f = gf_catalog(name, 40)
        rows = f.coeffs if isinstance(f, BivariateSeries) else (f.coeffs,)
        for row in rows:
            assert all(type(c) is int for c in row), (name, row)


def test_inexact_division_raises():
    with pytest.raises(ValueError, match=r"x\^0 is not an integer: 1/2"):
        one(3) / from_ints([2, 1], 3)
    with pytest.raises(ValueError, match=r"x\^1 is not an integer: 1/2"):
        x(3) / 2


def test_catalog_unknown_name():
    with pytest.raises(KeyError, match="unknown series"):
        gf_catalog("nope", 5)


def test_bivariate_at_y1_matches_nonempty_series():
    biv = gf_catalog("class5_bivariate", 40)
    assert (biv.at_y1() - gf_catalog("pi4_nonempty", 40)).is_zero()


def test_bivariate_rows():
    biv = gf_catalog("class5_bivariate", 10)
    assert biv.coefficient(0, 0) == 0
    assert biv.coefficient(1, 1) == 1
    assert biv.coefficient(4, 1) == 11
    assert biv.coefficient(4, 2) == 6
    assert biv.coefficient(4, 3) == 3
    assert biv.coefficient(4, 4) == 1
    assert biv.coefficient(4, 5) == 0


def test_bivariate_rows_are_indecomposable_times_catalan_powers():
    # every component but the last is an indecomposable 321-avoider, counted
    # by x*C(x), so the y^k row is class5_indec * (x*C(x))^(k-1)
    N = 40
    biv = gf_catalog("class5_bivariate", N)
    assert all(biv.coefficient(n, 0) == 0 for n in range(N + 1))
    ratio = x(N) * catalan_series(N)
    expected = gf_catalog("class5_indec", N)
    for k in range(1, N + 1):
        row = tuple(biv.coefficient(n, k) for n in range(N + 1))
        assert row == expected.coeffs, k
        expected = expected * ratio


def test_series_requires_constant_coefficient():
    with pytest.raises(ValueError):
        Series(())
