"""
End-to-end verification suite: ten independent checks, each tying at least
two routes to the same numbers (enumeration vs formula, formula vs series,
bijection vs census).  Every check is exact; there are no tolerances
anywhere.  `run_all` prints one PASS/FAIL line per criterion and is what
`weaksort verify` executes; the pytest acceptance module runs the same
functions one test each.
"""
from __future__ import annotations

from math import comb
from typing import Callable

from . import class5, counting, recurrence, schroder, series
from .perms import TRIPLES, all_perms, avoids, components

TARGET = (1, 1, 2, 6, 21, 79, 309, 1237, 5026)


def criterion_1_five_class_agreement() -> None:
    """Brute-force counts of all five triples agree with the target, n <= 8."""
    for class_id, patterns in TRIPLES.items():
        got = tuple(counting.counting_sequence(patterns, 8))
        assert got == TARGET, f"{class_id}: {got} != {TARGET}"


def criterion_2_generating_function_agreement() -> None:
    """Series division reproduces brute force (n <= 8) and the recurrence
    (n <= 100)."""
    coeffs = list(series.gf_catalog("main", 100).coeffs)
    assert tuple(coeffs[:9]) == TARGET, coeffs[:9]
    brute = counting.counting_sequence(TRIPLES["pi1"], 8)
    assert coeffs[:9] == brute, (coeffs[:9], brute)
    assert coeffs == recurrence.count_via_recurrence("pi1", 100)


def criterion_3_wilf_classification() -> None:
    """Exactly five symmetry orbits of triples match the target at n <= 8."""
    report = counting.wilf_search(8, TARGET)
    assert report.triples_total == comb(24, 3) == 2024, report.triples_total
    assert len(report.matches) == 5, f"{len(report.matches)} matching orbits"
    expected = {
        counting.canonical_form(patterns) for patterns in TRIPLES.values()
    }
    assert set(report.matches) == expected, report.matches


def criterion_4_recurrence_fidelity() -> None:
    """Recurrence tables equal enumerated tables (3 <= n <= 8, all classes);
    the second and third classes stay entrywise identical to n = 50."""
    for class_id in recurrence.CLASS_IDS:
        tabs = recurrence.tables_upto(class_id, 8)
        for n in range(3, 9):
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
    the fourth triple's avoiders onto paths with <= 1 peak per component."""
    schroder_numbers = (1, 2, 6, 22, 90, 394, 1806)
    for n in range(1, 8):
        avoiders = counting.enumerate_avoiders(n, {(3, 2, 1, 4), (4, 2, 1, 3)})
        image = set()
        for p in avoiders:
            path = schroder.perm_to_path(p)
            assert schroder.path_to_perm(path) == p, p
            image.add(path.steps)
        assert len(image) == len(avoiders) == schroder_numbers[n - 1], n
        all_paths = {q.steps for q in schroder.enumerate_paths(n - 1)}
        assert image == all_paths, n
        restricted = {
            schroder.perm_to_path(p).steps
            for p in counting.enumerate_avoiders(n, TRIPLES["pi4"])
        }
        le1 = {q.steps for q in schroder.le1_peak_paths(n - 1)}
        assert restricted == le1, n


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


def criterion_8_class5_formula() -> None:
    """Direct count equals brute force (3 <= n <= 9); the four-condition
    characterization is equivalent to avoidance (n <= 8); construction and
    decomposition are mutually inverse on the middle stratum (n <= 7)."""
    for n in range(3, 10):
        assert class5.count_avoiders(n) == class5.brute_force_count(n), n
    patterns = TRIPLES["pi5"]
    for n in range(1, 9):
        for p in all_perms(n):
            ok, _ = class5.check_structure(p)
            assert ok == avoids(p, patterns), p
    for n in range(4, 8):
        built = class5.constructions(n)
        stratum = [
            p
            for p in counting.enumerate_avoiders(n, patterns)
            if 3 <= class5.decompose(p).a <= n - 1
        ]
        assert len(built) == len(set(built)), f"duplicate construction at n={n}"
        assert sorted(built) == stratum, n


def criterion_9_indecomposable_and_bivariate() -> None:
    """Indecomposable counts match the published sequence; the bivariate
    series matches the per-component census (n <= 8) and collapses at y = 1
    to the nonempty-avoider series through order 40."""
    assert [class5.count_indecomposable(n) for n in range(1, 8)] == [
        1, 1, 3, 11, 43, 173, 707,
    ]
    biv = series.gf_catalog("class5_bivariate", 40)
    for n in range(1, 9):
        census: dict[int, int] = {}
        for p in counting.enumerate_avoiders(n, TRIPLES["pi5"]):
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


def run_all(report: Callable[[str], None] = print) -> bool:
    """Run every criterion; one PASS/FAIL line each; True when all pass."""
    all_ok = True
    for index, (name, check) in enumerate(CRITERIA, start=1):
        try:
            check()
        except AssertionError as exc:
            all_ok = False
            report(f"FAIL {index:2d}  {name}: {exc}")
        else:
            report(f"PASS {index:2d}  {name}")
    return all_ok
