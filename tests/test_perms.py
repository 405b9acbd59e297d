"""Permutation toolkit: containment, symmetries, sums, extrema."""
import functools
import itertools
from collections.abc import Sequence

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import occurrence_lists

from weaksort.perms import (
    SYMMETRIES,
    TRIPLES,
    WEAK_SORTING_TRIPLE,
    all_perms,
    apply_symmetry,
    avoids,
    canonical_form,
    complement,
    components,
    contains,
    direct_sum,
    extrema,
    find_occurrence,
    format_perm,
    inverse,
    is_permutation,
    occurrences,
    orbit,
    parse_perm,
    reverse,
    standardize,
)

perm_strategy = st.integers(min_value=0, max_value=7).flatmap(
    lambda n: st.permutations(list(range(1, n + 1))).map(tuple)
)


def test_is_permutation():
    assert is_permutation(())
    assert is_permutation((2, 1, 3))
    assert not is_permutation((0, 1))
    assert not is_permutation((1, 1, 2))


def test_parse_and_format_roundtrip():
    assert parse_perm("3 1 4 2") == (3, 1, 4, 2)
    assert parse_perm("") == ()
    assert format_perm((3, 1, 4, 2)) == "3 1 4 2"
    with pytest.raises(ValueError):
        parse_perm("1 3")


#: each text and the start of the message it is rejected with: an entry is
#: read as an integer first, and a negative one then fails as_perm
NON_DIGIT_TOKENS = {
    "1 2 3 4 5 6 7 8 9 10 11 1_2": "not an integer",
    "2 \u0661": "not an integer",
    "+1": "not an integer",
    "2 -1": r"not a permutation of 1..n: \(2, -1\)",
    "1 2.0": "not an integer",
}


@pytest.mark.parametrize("text", NON_DIGIT_TOKENS)
def test_parse_perm_rejects_non_digit_tokens(text):
    with pytest.raises(ValueError, match=NON_DIGIT_TOKENS[text]):
        parse_perm(text)


def test_contains_examples():
    # 2,4,3 inside 2431 is ordered like 132
    assert contains((2, 4, 3, 1), (1, 3, 2))
    assert not contains((4, 3, 2, 1), (1, 2, 3, 4))
    # i, n-1, n, n-2 is ordered like 1342 wherever it embeds
    assert contains((1, 5, 6, 4, 3, 2), (1, 3, 4, 2))
    assert contains((2, 4, 3, 1), ())
    assert not contains((1, 2), (1, 2, 3))


def test_find_occurrence_positions():
    occ = find_occurrence((2, 4, 3, 1), (1, 3, 2))
    assert occ == (1, 2, 3)
    assert find_occurrence((1, 2, 3), (3, 2, 1)) is None


def first_witness(expected):
    """The oracle's first occurrence made 1-based, or None if there is none."""
    return tuple(i + 1 for i in expected[0]) if expected else None


@pytest.mark.parametrize("k", [3, 4])
def test_find_occurrence_matches_reference_backtracker(k):
    # the scan's first witness of every k-letter tau in every p with
    # |p| <= 8, against the one-pass oracle
    for n in range(9):
        for p, found in occurrence_lists(n, (k,)):
            for tau, expected in found.items():
                assert find_occurrence(p, tau) == first_witness(expected), (p, tau)


@pytest.mark.parametrize("nmax, lengths", [(7, (3, 4)), (6, (0, 1, 2, 5))])
def test_occurrences_equal_brute_force(nmax, lengths):
    # every occurrence, in lexicographic order, against the oracle; the
    # first witness is checked here too for the lengths that the test above
    # leaves out (it checks 3- and 4-letter witnesses further, to |p| = 8)
    for n in range(nmax + 1):
        for p, found in occurrence_lists(n, lengths):
            for tau, expected in found.items():
                assert list(occurrences(p, tau)) == expected, (p, tau)
                if len(tau) not in (3, 4):
                    want = first_witness(expected)
                    assert find_occurrence(p, tau) == want, (p, tau)


#: entries that are not 1..n: gaps, entries above len(p), 0 and negatives;
#: and sparse entries near +-10^12, far outside any bound sized from len(p)
DISTINCT_INTEGERS = (
    (-5, -1, 0, 2, 7, 11),
    (-(10**12), -(10**12) + 3, -7, 0, 10**12 - 1, 10**12),
)


def test_occurrences_read_any_distinct_integers():
    # containment reads only relative order, so such sequences give the
    # occurrences of their standardization, for every tau with |tau| <= 4
    taus = [tau for k in range(5) for tau in all_perms(k)]
    for values in DISTINCT_INTEGERS:
        for m in range(len(values) + 1):
            for p in itertools.permutations(values, m):
                q = standardize(p)
                for tau in taus:
                    want = list(occurrences(q, tau))
                    assert list(occurrences(p, tau)) == want, (p, tau)


class ReadLog(Sequence):
    """A permutation that records the index of every entry read from it."""

    def __init__(self, p):
        self.p = p
        self.reads = []

    def __len__(self):
        return len(self.p)

    def __getitem__(self, i):
        self.reads.append(i)
        return self.p[i]


def test_backtracker_leaves_room_on_the_right():
    # 12345 in a decreasing p: every entry fits the first letter and none
    # fits the second, so the scan reads a first-letter candidate f, then
    # the second-letter candidates after f, then steps back and reads f + 1.
    # The first read, and every read at or left of the one before it, is
    # thus a first-letter candidate, and every other read a second-letter
    # one.  An occurrence starting past n - 5 has no room for its other
    # four letters, so no first-letter candidate may be read there, and no
    # second-letter one past n - 4
    n = 9
    p = ReadLog(tuple(range(n, 0, -1)))
    assert list(occurrences(p, (1, 2, 3, 4, 5))) == []
    reads = p.reads
    pairs = list(zip(reads, [n] + reads))
    first = [i for i, before in pairs if i <= before]
    second = [i for i, before in pairs if i > before]
    assert max(first) == n - 5
    assert max(second) == n - 4


def test_avoids_examples():
    assert avoids((1, 2, 3), TRIPLES["pi1"])
    assert not avoids((1, 2, 3, 4), TRIPLES["pi1"])
    assert avoids((3, 4, 1, 2), TRIPLES["pi5"])


def test_symmetry_group_order():
    assert len(SYMMETRIES) == 8
    assert SYMMETRIES["e"] == ()


def test_symmetries_are_bijections_on_s4():
    s4 = set(all_perms(4))
    for name in SYMMETRIES:
        image = {apply_symmetry(name, frozenset({p})) for p in s4}
        assert len(image) == 24, name


def test_symmetry_table_is_closed_on_s4():
    # the eight words are eight distinct maps on S_4, and the composite of
    # any two of them is again one of the eight
    s4 = list(all_perms(4))

    def as_map(*names):
        images = []
        for p in s4:
            for name in names:
                (p,) = apply_symmetry(name, frozenset({p}))
            images.append(p)
        return tuple(images)

    maps = {as_map(name) for name in SYMMETRIES}
    assert len(maps) == 8
    for first in SYMMETRIES:
        for second in SYMMETRIES:
            assert as_map(first, second) in maps, (first, second)


def test_involutions_exhaustive():
    # reverse, complement, inverse are involutions for every |p| <= 6
    for n in range(7):
        for p in all_perms(n):
            assert reverse(reverse(p)) == p
            assert complement(complement(p)) == p
            assert inverse(inverse(p)) == p


def test_contains_preserved_by_symmetry_exhaustive():
    # simultaneous symmetry preserves containment, |p| <= 5, |tau| <= 3
    patterns = [t for k in range(1, 4) for t in all_perms(k)]
    for n in range(1, 6):
        for p in all_perms(n):
            for tau in patterns:
                base = contains(p, tau)
                for name in SYMMETRIES:
                    gp = next(iter(apply_symmetry(name, frozenset({p}))))
                    gt = next(iter(apply_symmetry(name, frozenset({tau}))))
                    assert contains(gp, gt) == base


def test_inverse_complement_of_first_triple():
    # complement then inverse carries the first triple onto the weak
    # sorting triple {3241, 3421, 4321}
    assert apply_symmetry("ci", TRIPLES["pi1"]) == WEAK_SORTING_TRIPLE


def test_orbit_examples():
    assert orbit(frozenset({(1, 2)})) == {
        frozenset({(1, 2)}),
        frozenset({(2, 1)}),
    }
    assert reverse(reverse((3, 1, 2))) == (3, 1, 2)


def test_orbit_size_divides_8_for_all_triples():
    s4 = list(all_perms(4))
    for triple in itertools.combinations(s4, 3):
        assert 8 % len(orbit(frozenset(triple))) == 0


def test_canonical_form_is_orbit_invariant():
    rep = canonical_form(TRIPLES["pi1"])
    assert rep == canonical_form(WEAK_SORTING_TRIPLE)
    assert rep == ((1, 2, 3, 4), (1, 2, 4, 3), (1, 3, 4, 2))


def test_standardize_examples():
    assert standardize((10, 13, 18)) == (1, 2, 3)
    assert standardize(()) == ()
    assert standardize((14, 15, 17, 16, 11, 12, 9)) == (4, 5, 7, 6, 2, 3, 1)
    with pytest.raises(ValueError):
        standardize((1, 1))


@given(perm_strategy)
def test_standardize_idempotent(p):
    assert standardize(p) == p


def test_direct_sum_examples():
    assert direct_sum((1,), (2, 1)) == (1, 3, 2)
    assert components((1, 2, 3)) == ((1,), (1,), (1,))
    assert components((2, 1, 3, 4)) == ((2, 1), (1,), (1,))


def test_components_roundtrip_exhaustive():
    # the round trip alone would pass a split that is not maximal
    for n in range(8):
        for p in all_perms(n):
            comps = components(p)
            assert functools.reduce(direct_sum, comps, ()) == p
            assert all(len(components(c)) == 1 for c in comps), (p, comps)


@given(perm_strategy)
@settings(max_examples=50)
def test_components_roundtrip_property(p):
    assert functools.reduce(direct_sum, components(p), ()) == p


def test_extrema_examples():
    ext = extrema((5, 1, 4, 9, 6, 8, 10, 2, 7, 3))
    assert tuple(v for _, v in ext.lr_maxima) == (5, 9, 10)
    assert tuple(v for _, v in ext.rl_maxima) == (10, 7, 3)
    assert tuple(q for q, _ in ext.lr_maxima) == (1, 4, 7)
    assert tuple(q for q, _ in ext.rl_maxima) == (7, 9, 10)


def test_extrema_decreasing():
    n = 6
    ext = extrema(tuple(range(n, 0, -1)))
    assert tuple(v for _, v in ext.lr_maxima) == (n,)
    assert tuple(v for _, v in ext.rl_maxima) == tuple(range(n, 0, -1))


def test_extrema_degenerate():
    ext = extrema(())
    assert ext.lr_maxima == ext.rl_maxima == ()


def test_max_entry_is_both_lr_and_rl_max():
    for p in all_perms(5):
        ext = extrema(p)
        assert (p.index(5) + 1, 5) in ext.lr_maxima
        assert (p.index(5) + 1, 5) in ext.rl_maxima
