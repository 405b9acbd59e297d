"""
The verification gate: one test per criterion, same functions that back
`weaksort verify`.  Every check is exact.
"""
import re

import pytest

from weaksort import acceptance, class5, counting
from weaksort.acceptance import CRITERIA
from weaksort.perms import TRIPLES, all_perms, avoids


@pytest.mark.parametrize(
    "name,check", CRITERIA, ids=[name.replace(" ", "-") for name, _ in CRITERIA]
)
def test_criterion(name, check, capsys):
    check()
    with capsys.disabled():
        print(f"PASS {name}")


# criterion 8 still bites: each planted fault at length 8 must fail it


def _plant_wrong_verdict(monkeypatch, avoider: bool) -> tuple[int, ...]:
    """check_structure gives the wrong verdict on the last permutation of
    length 8 that avoids the fifth triple (or, if not avoider, contains it),
    which is returned."""
    wrong = next(
        p for p in reversed(list(all_perms(8)))
        if avoids(p, TRIPLES["pi5"]) == avoider
    )
    real = class5.check_structure

    def check_structure(p):
        ok, reason = real(p)
        return (not ok, reason) if p == wrong else (ok, reason)

    monkeypatch.setattr(class5, "check_structure", check_structure)
    return wrong


@pytest.mark.parametrize("avoider", [True, False], ids=["avoider", "non-avoider"])
def test_criterion_8_catches_a_wrong_verdict(monkeypatch, avoider):
    wrong = _plant_wrong_verdict(monkeypatch, avoider)
    with pytest.raises(AssertionError, match=re.escape(str(wrong))):
        acceptance.criterion_8_class5_formula()


def test_criterion_8_catches_a_dropped_avoider(monkeypatch):
    real = counting.avoider_levels

    def avoider_levels(patterns, nmax):
        levels = real(patterns, nmax)
        if nmax >= 8:
            del levels[8][len(levels[8]) // 2]
        return levels

    monkeypatch.setattr(counting, "avoider_levels", avoider_levels)
    with pytest.raises(AssertionError):
        acceptance.criterion_8_class5_formula()
