"""Structure theory and direct counting for the fifth triple."""
import random
from math import comb

import pytest
from oracles import (
    check_structure_standardized,
    count_avoiders_termwise,
    count_indecomposable_termwise,
    decompose_groupby,
    keyed_213_census,
    tail_321_count_brute,
)

from weaksort.class5 import (
    _catalan_rows,
    check_structure,
    construct,
    constructions,
    count_avoiders,
    count_indecomposable,
    decompose,
    keyed_213_count,
    keyed_213_count_by_max_position,
)
from weaksort.counting import enumerate_avoiders
from weaksort.perms import TRIPLES, all_perms, avoids, components, contains
from weaksort.series import catalan, gen_catalan, gf_catalog

WORKED_AVOIDER = (3, 5, 1, 6, 10, 2, 13, 18, 4, 7, 14, 15, 17, 16, 8, 11, 12, 9)


def test_decompose_worked_example():
    d = decompose(WORKED_AVOIDER)
    assert d.upper_head == (10, 13, 18)
    assert d.upper_tail == (14, 15, 17, 16, 11, 12, 9)
    assert d.lower_tail == (2, 4, 7, 8)
    assert d.key_values == (10, 13, 18, 14, 11, 9)
    assert d.key_positions == (5, 7, 8, 11, 16, 18)
    assert d.blocks == ((3, 5, 1, 6), (2,), (4, 7), (8,))
    assert d.a == 10 and d.k == 6 and d.i == 4


def test_decompose_small_example():
    d = decompose((3, 1, 4, 2))
    assert d.upper == (3, 4, 2)
    assert d.lower == (1,)
    assert d.upper_head == (3, 4)
    assert d.upper_tail == (2,)
    assert d.key_values == (3, 4, 2)
    assert d.key_positions == (1, 3, 4)
    assert d.lower_tail == (1,)
    assert d.blocks == ((1,),)


def test_decompose_identity_degenerate():
    d = decompose(tuple(range(1, 6)))
    assert d.a == 1
    assert d.upper == (5,)


def test_decompose_rejects_empty():
    with pytest.raises(ValueError):
        decompose(())
    with pytest.raises(ValueError):
        check_structure(())


def test_check_structure_examples():
    ok, reason = check_structure((3, 1, 4, 2))
    assert ok and reason is None
    # each of these fails its condition first
    for p, reason in [
        ((3, 2, 4, 1), "upper part contains 213"),
        ((3, 2, 1, 4), "lower part contains 321"),
        ((4, 2, 1, 3), "lower tail not increasing"),
        ((5, 3, 1, 4, 2), "lower block not flush against a key entry"),
    ]:
        assert check_structure(p) == (False, reason), p


def test_decompose_and_check_structure_match_oracles():
    for n in range(1, 8):
        for p in all_perms(n):
            assert vars(decompose(p)) == vars(decompose_groupby(p)), p
            assert check_structure(p) == check_structure_standardized(p), p


def _random_213_ending_in_1(a: int, rng: random.Random) -> tuple[int, ...]:
    """A 213-avoider of length a ending in 1: q followed by 1, with q a
    213-avoider on 2..a, built recursively by placing the minimum between
    a left part whose entries all exceed those of the right part (not
    uniform, which the test does not need)."""

    def avoider(values: list[int]) -> list[int]:
        if not values:
            return []
        low, rest = values[0], values[1:]
        cut = rng.randint(0, len(rest))
        # rest is increasing: the larger values go left of the minimum
        return avoider(rest[cut:]) + [low] + avoider(rest[:cut])

    return (*avoider(list(range(2, a + 1))), 1)


def _random_321_avoider(b: int, rng: random.Random) -> tuple[int, ...]:
    """The union of two increasing subsequences on random positions and
    values, which avoids 321."""
    size = rng.randint(0, b)
    positions = set(rng.sample(range(b), size))
    values = sorted(rng.sample(range(1, b + 1), size))
    others = sorted(set(range(1, b + 1)) - set(values))
    first, second = iter(values), iter(others)
    return tuple(next(first) if pos in positions else next(second) for pos in range(b))


def _random_construction(n: int, rng: random.Random) -> tuple[int, ...]:
    """`construct` on a random upper pattern with at least 3 keys, a random
    321-avoiding lower permutation and a random distribution of an
    increasing suffix of it."""
    while True:
        a = rng.randint(3, n - 1)
        upper = _random_213_ending_in_1(a, rng)
        k = decompose(upper).k
        if k >= 3:
            break
    lower = _random_321_avoider(n - a, rng)
    run = 1 if lower else 0  # length of the increasing suffix
    while run < len(lower) and lower[-run - 1] < lower[-run]:
        run += 1
    i = rng.randint(0, run)
    bounds = [0, *sorted(rng.randint(0, i) for _ in range(k - 2)), i]
    distribution = tuple(y - x for x, y in zip(bounds, bounds[1:]))
    return construct(n, upper, lower, distribution)


def test_check_structure_beyond_exhaustive_sizes():
    # constructed avoiders of lengths 9-40, a single-transposition mutant
    # and a moved-entry mutant of each, and uniform permutations:
    # check_structure stops at the first failed condition, so its reason
    # must match the oracle's, which decomposes before any condition
    rng = random.Random(20161)
    perms = []
    for _ in range(100):
        n = rng.randint(9, 40)
        p = _random_construction(n, rng)
        assert avoids(p, TRIPLES["pi5"]), p
        x, y = rng.sample(range(n), 2)
        swapped = list(p)
        swapped[x], swapped[y] = swapped[y], swapped[x]
        moved = list(p)
        moved.insert(y, moved.pop(x))
        perms += [p, tuple(swapped), tuple(moved), tuple(rng.sample(range(1, n + 1), n))]
    reasons = set()
    for p in perms:
        ok, reason = check_structure(p)
        assert (ok, reason) == check_structure_standardized(p), p
        assert ok == avoids(p, TRIPLES["pi5"]), p
        reasons.add(reason)
    assert reasons == {
        None,
        "upper part contains 213",
        "lower part contains 321",
        "lower tail not increasing",
        "lower block not flush against a key entry",
    }


def test_keyed_213_formula_vs_oracle():
    assert keyed_213_count(2, 2) == 1
    assert keyed_213_count(3, 3) == 2
    for n in range(2, 10):
        census = keyed_213_census(n)
        for k in range(1, n + 1):
            want = sum(c for (keys, _), c in census.items() if keys == k)
            assert keyed_213_count(n, k) == want, (n, k)


def reference_keyed_213_count(n, k):
    """The keyed sum over the full range j = 1..n-1, terms that vanish for
    j >= k included, kept as the oracle for the restricted sum."""
    return sum(
        (comb(k - 2, j - 1) if 0 <= j - 1 <= k - 2 else 0)
        * gen_catalan(n - k, k - 2 - j)
        for j in range(1, n)
    )


def test_keyed_213_count_matches_full_range_sum():
    for n in range(2, 41):
        for k in range(-1, n + 3):
            assert keyed_213_count(n, k) == reference_keyed_213_count(n, k), (n, k)


def test_keyed_count_by_max_position_vs_oracle():
    for n in range(2, 8):
        census = keyed_213_census(n)
        for k in range(2, n + 1):
            for j in range(1, n + 1):
                want = census[k, j]
                assert keyed_213_count_by_max_position(n, j, k) == want, (n, j, k)


def test_keyed_count_max_first():
    # with the maximum in front the count collapses to one term
    for n in range(2, 8):
        for k in range(2, n + 1):
            assert keyed_213_count_by_max_position(n, 1, k) == gen_catalan(n - k, k - 3)


def test_tail_321_count():
    for n in range(0, 8):
        for i in range(n + 1):
            assert gen_catalan(n - i, i) == tail_321_count_brute(n, i), (n, i)


def test_catalan_triangle_entrywise():
    for n in range(41):
        rows = _catalan_rows(n)
        assert len(rows) == n + 1
        for m, row in enumerate(rows):
            assert row == [gen_catalan(m, k) for k in range(-1, n - m + 1)], (n, m)


def test_count_small_values():
    assert [count_avoiders(n) for n in range(9)] == [1, 1, 2, 6, 21, 79, 309, 1237, 5026]
    assert count_avoiders(3) == 6
    assert count_avoiders(4) == 3 * catalan(3) + keyed_213_count(3, 3) * gen_catalan(1, 2)


def test_closed_formulas_match_series_to_100():
    main = gf_catalog("main", 100).coeffs
    indec = gf_catalog("class5_indec", 100).coeffs
    for n in [*range(41), 60, 80, 100]:
        assert count_avoiders(n) == main[n], n
        if n >= 1:
            assert count_indecomposable(n) == indec[n], n


def test_closed_formulas_match_termwise_oracles():
    for n in [*range(61), 130]:
        assert count_avoiders(n) == count_avoiders_termwise(n), n
        if n >= 1:
            assert count_indecomposable(n) == count_indecomposable_termwise(n), n
    for count, smallest in (
        (count_avoiders, 0),
        (count_avoiders_termwise, 0),
        (count_indecomposable, 1),
        (count_indecomposable_termwise, 1),
    ):
        with pytest.raises(ValueError, match=f"n must be >= {smallest}"):
            count(smallest - 1)


def test_count_by_upper_length_matches_enumeration():
    for n in range(3, 8):
        avoiders = enumerate_avoiders(n, TRIPLES["pi5"])
        for a, last in ((1, n), (2, n - 1), (n, 1)):
            got = sum(1 for p in avoiders if p[-1] == last)
            assert got == catalan(n - 1), (n, a)


def test_keys_at_least_3_in_middle_stratum():
    for n in range(4, 9):
        for p in enumerate_avoiders(n, TRIPLES["pi5"]):
            d = decompose(p)
            if 3 <= d.a <= n - 1:
                assert d.k >= 3, p


def test_indecomposable_counts():
    assert [count_indecomposable(n) for n in range(1, 8)] == [1, 1, 3, 11, 43, 173, 707]
    got = sum(
        1
        for p in enumerate_avoiders(3, TRIPLES["pi5"])
        if len(components(p)) == 1
    )
    assert got == count_indecomposable(3) == 3
    coeffs = list(gf_catalog("class5_indec", 8).coeffs)
    assert count_indecomposable(8) == coeffs[8] == 2917


def test_component_structure_of_decomposable_avoiders():
    # all components but the last avoid 321 and are indecomposable; the last
    # is an indecomposable avoider of the triple
    patterns = TRIPLES["pi5"]
    for n in range(2, 9):
        for p in enumerate_avoiders(n, patterns):
            comps = components(p)
            if len(comps) < 2:
                continue
            for c in comps[:-1]:
                assert len(components(c)) == 1
                assert not contains(c, (3, 2, 1)), (p, c)
            assert len(components(comps[-1])) == 1
            assert avoids(comps[-1], patterns)


def test_construct_spec_example():
    built = set()
    for upper in [(2, 3, 1), (3, 2, 1)]:
        built.add(construct(4, upper, (1,), (0, 0)))
        built.add(construct(4, upper, (1,), (1, 0)))
        built.add(construct(4, upper, (1,), (0, 1)))
    assert built == {
        (1, 3, 4, 2),
        (1, 4, 3, 2),
        (3, 1, 4, 2),
        (3, 4, 1, 2),
        (4, 1, 3, 2),
        (4, 3, 1, 2),
    }


def test_constructions_small():
    assert constructions(3) == []
    # the middle stratum at n = 4 is exactly the spec example's six avoiders
    assert sorted(constructions(4)) == [
        (1, 3, 4, 2),
        (1, 4, 3, 2),
        (3, 1, 4, 2),
        (3, 4, 1, 2),
        (4, 1, 3, 2),
        (4, 3, 1, 2),
    ]


def test_construct_decompose_roundtrip():
    p = construct(9, (2, 3, 4, 1), (2, 1, 3, 4, 5), (1, 0, 2))
    assert avoids(p, TRIPLES["pi5"])
    d = decompose(p)
    assert d.a == 4 and d.i == 3
    assert d.upper == (7, 8, 9, 6)


def test_construct_degenerate_all_distributed():
    # i = b: the initial block is empty, the permutation opens with a key
    p = construct(5, (2, 3, 1), (1, 2), (1, 1))
    assert p[0] == 4
    assert avoids(p, TRIPLES["pi5"])


def test_construct_rejects_bad_inputs():
    with pytest.raises(ValueError, match="end in 1"):
        construct(5, (1, 3, 2), (1, 2), (0, 0))
    with pytest.raises(ValueError, match="avoid 213"):
        construct(6, (3, 2, 4, 1), (1, 2), (0, 0, 0))
    with pytest.raises(ValueError, match="length"):
        construct(5, (2, 3, 1), (1,), (0, 0))
    with pytest.raises(ValueError, match="avoid 321"):
        construct(7, (2, 3, 1), (4, 3, 2, 1), (0, 0))
    with pytest.raises(ValueError, match="increase"):
        construct(6, (2, 3, 1), (1, 3, 2), (0, 2))
    with pytest.raises(ValueError, match="parts"):
        construct(5, (2, 3, 1), (1, 2), (1,))
    with pytest.raises(ValueError, match="3 <= len"):
        construct(3, (2, 3, 1), (), ())
