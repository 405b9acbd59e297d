"""
End-to-end verification suite: ten independent checks, each tying at least
two routes to the same numbers (enumeration vs formula, formula vs series,
bijection vs census).  Every check is exact; there are no tolerances
anywhere.  `run_all` prints one PASS/FAIL line per criterion and is what
`weaksort verify` executes; the pytest acceptance module runs the same
functions one test each.

The criteria share no state, so `run_all` runs each in a forked child
through `weaksort._fork`, one child per CPU at a time, the last criterion
first, so the costly late ones start at once.  The lines come in index
order, as the bytes of running the criteria one at a time; any exception
but an AssertionError is raised where that loop raised it.
"""
from __future__ import annotations

import functools
from math import comb
from typing import Callable

from . import _fork, class5, counting, oeis, recurrence, schroder, series
from .perms import (
    SCHRODER_PAIR,
    TRIPLES,
    all_perms,
    canonical_form,
    components,
    find_occurrence,
    standardize,
)


def criterion_1_five_class_agreement() -> None:
    """Brute-force counts of all five triples agree with the bundled A111279
    fixture, n <= 8."""
    target = oeis.fetch("A111279").prefix(9)
    rows = counting.counting_sequences(TRIPLES.values(), 8)
    for class_id, got in zip(TRIPLES, map(tuple, rows)):
        assert got == target, f"{class_id}: {got} != {target}"


def criterion_2_generating_function_agreement() -> None:
    """Series division reproduces the A111279 fixture and brute force
    (n <= 8) and the recurrence (n <= 100)."""
    coeffs = list(series.gf_catalog("main", 100).coeffs)
    assert tuple(coeffs[:9]) == oeis.fetch("A111279").prefix(9), coeffs[:9]
    brute = counting.counting_sequence(TRIPLES["pi1"], 8)
    assert coeffs[:9] == brute, (coeffs[:9], brute)
    assert coeffs == recurrence.count_via_recurrence("pi1", 100)


def criterion_3_wilf_classification() -> None:
    """Exactly five symmetry orbits of triples match A111279 at n <= 8."""
    report = counting.wilf_search(8, oeis.fetch("A111279").prefix(9))
    assert report.triples_total == comb(24, 3) == 2024, report.triples_total
    assert len(report.matches) == 5, f"{len(report.matches)} matching orbits"
    expected = {canonical_form(patterns) for patterns in TRIPLES.values()}
    assert set(report.matches) == expected, report.matches


def criterion_4_recurrence_fidelity() -> None:
    """Recurrence tables, from the seed tables (n <= 2) through the levels
    `advance` builds, equal enumerated tables (0 <= n <= 8, all classes);
    the second and third classes stay entrywise identical to n = 50."""
    for class_id in recurrence.CLASS_IDS:
        tabs = recurrence.tables_upto(class_id, 8)
        for n in range(9):
            emp = recurrence.empirical_table(n, class_id)
            assert tabs[n].a == emp.a, (class_id, n, tabs[n].a, emp.a)
            assert tabs[n].b == emp.b, (class_id, n, tabs[n].b, emp.b)
    t2 = recurrence.tables_upto("pi2", 50)
    t3 = recurrence.tables_upto("pi3", 50)
    for x, y in zip(t2, t3):
        assert (x.n, x.a, x.b) == (y.n, y.a, y.b), x.n


def criterion_5_kernel_identity() -> None:
    """The series identity relating the b-tables to the a-tables holds
    exactly through order 40."""
    ok, residual = recurrence.verify_kernel_identity(40)
    assert ok, f"nonzero residual: {residual.coeffs[:10]}"


def criterion_6_bijection_suite() -> None:
    """The permutation <-> Schroder path bijection round-trips on all
    {3214,4213}-avoiders for n <= 7, hits every path of size n-1, and maps
    the fourth triple's avoiders onto paths with <= 1 peak per component;
    every other permutation of length n <= 6 is rejected, and
    `find_occurrence` names a witness of 3214 or 4213 in it whose values
    standardize to the pattern."""
    schroder_numbers = (1, 2, 6, 22, 90, 394, 1806)
    levels = counting.avoider_levels(SCHRODER_PAIR, 7)
    pi4_levels = counting.avoider_levels(TRIPLES["pi4"], 7)
    for n in range(1, 8):
        avoiders = levels[n]
        image = set()
        for p in avoiders:
            path = schroder.perm_to_path(p)
            assert schroder.path_to_perm(path) == p, p
            image.add(path)
        assert len(image) == len(avoiders) == schroder_numbers[n - 1], n
        assert image == set(schroder.enumerate_paths(n - 1)), n
        restricted = {schroder.perm_to_path(p) for p in pi4_levels[n]}
        assert restricted == set(schroder.le1_peak_paths(n - 1)), n
    for n in range(1, 7):
        avoiders = set(levels[n])
        for p in all_perms(n):
            if p in avoiders:
                continue
            witnesses = 0
            for tau in SCHRODER_PAIR:
                occ = find_occurrence(p, tau)
                if occ is not None:
                    witnesses += 1
                    assert standardize([p[i - 1] for i in occ]) == tau, (p, tau, occ)
            assert witnesses, f"no witness of 3214 or 4213 in {p}"
            try:
                schroder.perm_to_path(p)
            except ValueError:
                continue
            raise AssertionError(f"{p} contains 3214 or 4213 but was accepted")


def criterion_7_peak_censuses() -> None:
    """Peak counts over all Schroder n-paths (n <= 9) match the closed
    forms, for all paths and for indecomposable ones."""
    for n in range(1, 10):
        census, indec = schroder.peak_census(n)
        assert census.get(0, 0) == series.catalan(n), (n, census)
        assert census.get(1, 0) == comb(2 * n - 1, n - 1), (n, census)
        if n == 1:
            assert indec == {0: 1, 1: 1}, indec
        else:
            assert indec.get(0, 0) == series.catalan(n - 1), (n, indec)
            assert indec.get(1, 0) == comb(2 * n - 3, n - 2), (n, indec)


def _conditions_3_and_4(p: tuple[int, ...]) -> str | None:
    """
    Conditions 3 and 4 of the structure theorem read off `decompose(p)`:
    the reason `check_structure` gives for the first that fails, or None.
    The head must also end at the maximum: a head cut one entry early
    leaves the keys as they are, since the maximum then opens the tail.
    """
    d = class5.decompose(p)
    assert d.upper_head[-1:] == (len(p),), (p, d.upper_head)
    tail = d.lower_tail
    if any(a > b for a, b in zip(tail, tail[1:])):
        return "lower tail not increasing"
    # p ends in an upper entry, so every block has a right neighbour
    keys = set(d.key_values)
    if any(p[p.index(block[-1]) + 1] not in keys for block in d.blocks):
        return "lower block not flush against a key entry"
    return None


def criterion_8_class5_formula() -> None:
    """Direct count equals brute force (0 <= n <= 9, the values given
    directly for n <= 2 included); the structure theorem agrees with the
    enumerated avoider set on every permutation, n <= 8, and conditions 3
    and 4 read off `decompose` agree with it (n <= 7); construction and
    decomposition are mutually inverse on the middle stratum (n <= 7)."""
    patterns = TRIPLES["pi5"]
    brute = counting.counting_sequence(patterns, 9)
    for n in range(10):
        assert class5.count_avoiders(n) == brute[n], n
    # the kept levels against the counting sweep of the same set
    levels = counting.avoider_levels(patterns, 8)
    sizes = [len(level) for level in levels]
    assert sizes == brute[:9], (sizes, brute[:9])
    conditions_1_and_2 = ("upper part contains 213", "lower part contains 321")
    for n in range(1, 9):
        avoiders = set(levels[n])
        for p in all_perms(n):
            ok, reason = class5.check_structure(p)
            assert ok == (p in avoiders), p
            if n <= 7 and reason not in conditions_1_and_2:
                assert _conditions_3_and_4(p) == reason, (p, reason)
    for n in range(4, 8):
        built = class5.constructions(n)
        stratum = [p for p in levels[n] if 3 <= class5.decompose(p).a <= n - 1]
        assert len(built) == len(set(built)), f"duplicate construction at n={n}"
        assert sorted(built) == stratum, n


def criterion_9_indecomposable_and_bivariate() -> None:
    """Indecomposable counts match the A026671 fixture (1 <= n <= 41); the
    bivariate series matches the per-component census (n <= 8) and
    collapses at y = 1 to the nonempty-avoider series through order 40."""
    fixture = oeis.fetch("A026671")
    assert fixture.offset == 0, fixture.offset
    for index, term in enumerate(fixture.prefix(41)):
        # the term at index n - 1 counts the indecomposable avoiders of
        # length n
        n = index + 1
        assert class5.count_indecomposable(n) == term, n
    biv = series.gf_catalog("class5_bivariate", 40)
    levels = counting.avoider_levels(TRIPLES["pi5"], 8)
    for n in range(1, 9):
        census: dict[int, int] = {}
        for p in levels[n]:
            k = len(components(p))
            census[k] = census.get(k, 0) + 1
        for k in range(0, n + 2):
            assert biv.coefficient(n, k) == census.get(k, 0), (n, k)
    assert (biv.at_y1() - series.gf_catalog("pi4_nonempty", 40)).is_zero()


def criterion_10_generalized_catalan_identity() -> None:
    """sum_i binom(i+k-2, i) C_{b-i,i} = C_{b,k-1} for 0<=b<=12, 3<=k<=12."""
    for b in range(13):
        for k in range(3, 13):
            lhs = sum(
                comb(i + k - 2, i) * series.gen_catalan(b - i, i)
                for i in range(b + 1)
            )
            assert lhs == series.gen_catalan(b, k - 1), (b, k)


CRITERIA: tuple[tuple[str, Callable[[], None]], ...] = (
    ("five-class agreement", criterion_1_five_class_agreement),
    ("generating-function agreement", criterion_2_generating_function_agreement),
    ("wilf classification", criterion_3_wilf_classification),
    ("recurrence fidelity", criterion_4_recurrence_fidelity),
    ("kernel identity", criterion_5_kernel_identity),
    ("bijection suite", criterion_6_bijection_suite),
    ("peak censuses", criterion_7_peak_censuses),
    ("class-5 formula", criterion_8_class5_formula),
    ("indecomposable and bivariate", criterion_9_indecomposable_and_bivariate),
    ("generalized-Catalan identity", criterion_10_generalized_catalan_identity),
)


def _verdict(check: Callable[[], None]) -> Exception | None:
    """One job of `run_all`: the exception that check raises, or None."""
    try:
        check()
    except Exception as exc:
        return exc
    return None


def run_all() -> bool:
    """Run every criterion in a forked child; print one PASS/FAIL line each,
    in index order; True when all pass."""
    jobs = [functools.partial(_verdict, check) for _, check in reversed(CRITERIA)]
    verdicts = _fork.run(jobs, _fork.cpus())[::-1]
    all_ok = True
    for index, ((name, _), verdict) in enumerate(zip(CRITERIA, verdicts)):
        if verdict is None:
            print(f"PASS {index + 1:2d}  {name}")
        elif isinstance(verdict, AssertionError):
            all_ok = False
            print(f"FAIL {index + 1:2d}  {name}: {verdict}")
        else:
            raise verdict
    return all_ok
