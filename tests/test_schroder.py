"""Schroder paths, bounding staircases, and the bijections between them."""
import ast
import random

import pytest
from oracles import peak_census_from_strings, validate_staircase

from weaksort import schroder
from weaksort.perms import SCHRODER_PAIR, all_perms, avoids, standardize
from weaksort.schroder import (
    enumerate_paths,
    le1_peak_paths,
    path_components,
    path_to_perm,
    peak_census,
    perm_to_path,
    perm_to_staircase,
    schroder_to_staircase,
    staircase_to_perm,
    staircase_to_schroder,
    validate_path,
)

SCHRODER = [1, 2, 6, 22, 90, 394, 1806, 8558, 41586, 206098, 1037718]

WORKED_PERM = (5, 1, 4, 9, 6, 8, 10, 2, 7, 3)
WORKED_STAIRCASE = "NNNNNEEENNNNEEENESSSEESSSSESSS"
WORKED_PATH = "NNDNNEEENDENNEEE"


def path_size(path):
    return path.count("N") + path.count("D")


def test_validate_and_stats():
    p = validate_path("NNEE")
    assert p == "NNEE"
    assert (path_size(p), p.count("NE"), len(path_components(p))) == (2, 1, 1)
    d = validate_path("D")
    assert path_components(d) == ["D"]  # indecomposable
    assert (path_size(d), d.count("NE")) == (1, 0)
    p = validate_path("NENE")
    assert (p.count("NE"), path_components(p)) == (2, ["NE", "NE"])


def test_validate_path_errors():
    with pytest.raises(ValueError, match="position 1"):
        validate_path("E")
    with pytest.raises(ValueError, match="below the diagonal"):
        validate_path("NEE")
    with pytest.raises(ValueError, match="diagonal"):
        validate_path("NDN")
    with pytest.raises(ValueError, match="invalid step"):
        validate_path("NXE")


def test_enumerate_paths_small():
    assert enumerate_paths(0) == [""]
    assert enumerate_paths(2) == ["DD", "DNE", "NDE", "NED", "NENE", "NNEE"]
    assert all(type(p) is str for n in range(4) for p in enumerate_paths(n))


@pytest.mark.parametrize("n", range(9))
def test_path_counts_are_schroder_numbers(n):
    paths = enumerate_paths(n)
    assert len(paths) == SCHRODER[n]
    # sorted and distinct: each path strictly after the one before
    assert all(p < q for p, q in zip(paths, paths[1:]))


def test_path_count_n10():
    assert len(enumerate_paths(10)) == SCHRODER[10]


def test_peak_census_of_empty_path():
    # one path, no peaks, and no components, so no indecomposable path
    assert peak_census(0) == ({0: 1}, {})


@pytest.mark.parametrize("n", range(10))
def test_peak_census_matches_string_census(n):
    assert peak_census(n) == peak_census_from_strings(n)


def test_peak_census_totals_are_schroder_numbers():
    for n in range(11):
        census, _ = peak_census(n)
        assert sum(census.values()) == SCHRODER[n], n


def test_peak_census_n2():
    census, _ = peak_census(2)
    assert census == {0: 2, 1: 3, 2: 1}
    census, _ = peak_census(3)
    assert census[0] == 5
    assert census[1] == 10


def test_le1_peak_per_component_counts():
    # equals the coefficient list of the component-constrained series
    from weaksort.series import gf_catalog

    counts = [len(le1_peak_paths(n)) for n in range(9)]
    assert counts == list(gf_catalog("schroder_le1peak_per_comp", 8).coeffs)


def test_staircase_of_worked_example():
    assert perm_to_staircase(WORKED_PERM) == WORKED_STAIRCASE


def test_staircase_of_singleton():
    assert perm_to_staircase((1,)) == "NES"


def test_staircases_of_s2_distinct():
    stairs = {perm_to_staircase(p) for p in all_perms(2)}
    assert stairs == {"NENESS", "NNESES"}


def test_validate_staircase_accepts_all_images():
    for n in range(1, 7):
        for p in all_perms(n):
            st = perm_to_staircase(p)
            assert type(st) is str
            validate_staircase(st)


def test_validate_staircase_errors():
    with pytest.raises(ValueError, match="N after S"):
        validate_staircase("NESNES")
    with pytest.raises(ValueError, match="exactly 1 apart"):
        validate_staircase("NNEESS")
    with pytest.raises(ValueError, match="counts"):
        validate_staircase("NES" + "E")
    with pytest.raises(ValueError, match="share a height"):
        validate_staircase("NENNESSES")
    with pytest.raises(ValueError, match="invalid step"):
        validate_staircase("NDS")


def test_staircase_count_equals_schroder():
    for n in range(1, 7):
        stairs = {perm_to_staircase(p) for p in all_perms(n)}
        assert len(stairs) == SCHRODER[n - 1]


def test_lexleast_reconstruction_of_worked_staircase():
    least = staircase_to_perm(WORKED_STAIRCASE)
    assert least == (5, 1, 2, 9, 4, 8, 10, 6, 7, 3)
    assert perm_to_staircase(least) == WORKED_STAIRCASE
    assert avoids(least, SCHRODER_PAIR)


def test_lexleast_characterizes_avoidance():
    # p avoids {3214, 4213} iff it is the least permutation with its staircase
    for n in range(1, 9):
        for p in all_perms(n):
            fixed = staircase_to_perm(perm_to_staircase(p)) == p
            assert fixed == avoids(p, SCHRODER_PAIR), p


def test_singleton_staircase_to_empty_path():
    assert staircase_to_schroder("NES") == ""
    assert staircase_to_perm(schroder_to_staircase("")) == (1,)


def test_worked_staircase_to_path():
    assert staircase_to_schroder(WORKED_STAIRCASE) == WORKED_PATH
    assert schroder_to_staircase(WORKED_PATH) == WORKED_STAIRCASE


def test_staircase_path_roundtrip_exhaustive():
    for n in range(1, 7):
        stairs = {perm_to_staircase(p) for p in all_perms(n)}
        images = set()
        for s in stairs:
            path = staircase_to_schroder(s)
            assert type(path) is str
            assert schroder_to_staircase(path) == s
            images.add(path)
        assert images == set(enumerate_paths(n - 1))


def test_path_to_staircase_roundtrip_to_size_7():
    # every Schroder path of size <= 7 (10,879 of them) goes to a valid
    # staircase that maps back to the same path
    for n in range(8):
        for path in enumerate_paths(n):
            st = schroder_to_staircase(path)
            assert type(st) is str
            validate_staircase(st)
            assert staircase_to_schroder(st) == path, path


def test_perm_to_path_on_s2():
    assert perm_to_path((1, 2)) == "NE"
    assert perm_to_path((2, 1)) == "D"
    assert all(type(perm_to_path(p)) is str for p in all_perms(3))


def test_perm_to_path_rejects_with_witness():
    with pytest.raises(ValueError, match=r"3214 at positions \(1, 3, 8, 9\)"):
        perm_to_path(WORKED_PERM)  # 5,4,2,7 sits at those positions
    with pytest.raises(ValueError, match="4213"):
        perm_to_path((4, 2, 1, 3))


def random_path(rng, size):
    """A random Schroder path of the given size (not uniformly drawn)."""
    steps = []
    h = 0
    budget = size
    while budget:
        step = rng.choice("NDE" if h else "ND")
        steps.append(step)
        if step == "E":
            h -= 1
        else:
            budget -= 1
            h += step == "N"
    return "".join(steps) + "E" * h


def test_perm_to_path_rejects_planted_4213_at_length_100():
    # an avoider of length 96 skew-summed above 4213 contains 4213 but not
    # 3214: a "321" before a larger entry would have to sit inside one block
    rng = random.Random(4213)
    q = path_to_perm(random_path(rng, 95))
    p = tuple(v + 4 for v in q) + (4, 2, 1, 3)
    assert avoids(p, [(3, 2, 1, 4)])
    with pytest.raises(ValueError, match="contains 4213 at positions") as exc:
        perm_to_path(p)
    witness = ast.literal_eval(str(exc.value).rsplit("positions ", 1)[1])
    assert standardize([p[i - 1] for i in witness]) == (4, 2, 1, 3)


def test_perm_to_path_never_accepts_a_failed_round_trip(monkeypatch):
    # an avoider whose staircase round trip fails has no witness to report
    monkeypatch.setattr(schroder, "staircase_to_perm", lambda st: ())
    with pytest.raises(AssertionError, match="avoids 3214 and 4213"):
        perm_to_path((2, 1, 3))


def test_bijection_roundtrip_fuzz_large():
    # path -> perm -> path on seeded random paths of size 20 to 200
    rng = random.Random(20)
    for _ in range(60):
        path = validate_path(random_path(rng, rng.randint(20, 200)))
        perm = path_to_perm(path)
        assert len(perm) == path_size(path) + 1
        assert perm_to_path(perm) == path, path

