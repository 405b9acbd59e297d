"""
The verification gate: one test per criterion, same functions that back
`weaksort verify`.  Every check is exact.
"""
import inspect
import io
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

import weaksort
from weaksort import acceptance, class5, counting, levels, oeis, recurrence, series
from weaksort.acceptance import CRITERIA
from weaksort.cli import main
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


def test_criterion_8_catches_a_swapped_reason(monkeypatch):
    # the verdict stays right, only the condition named is wrong
    real = class5.check_structure

    def check_structure(p):
        ok, reason = real(p)
        if reason == "upper part contains 213":
            reason = "lower part contains 321"
        return ok, reason

    monkeypatch.setattr(class5, "check_structure", check_structure)
    with pytest.raises(AssertionError):
        acceptance.criterion_8_class5_formula()


# a lower tail that starts one entry late, a head cut one entry early (the
# keys stay as they are, since n then opens the tail), and an upper part
# without its last entry, which is never in a 213
DECOMPOSE_FAULTS = {
    "late-lower-tail": lambda d: {"lower_tail": d.lower_tail[1:]},
    "short-upper": lambda d: {"upper": d.upper[:-1]},
    "early-head-cut": lambda d: {
        "upper_head": d.upper_head[:-1],
        "upper_tail": d.upper_head[-1:] + d.upper_tail,
    },
}


@pytest.mark.parametrize("fault", DECOMPOSE_FAULTS)
def test_criterion_8_catches_a_decompose_fault(monkeypatch, fault):
    real = class5.decompose

    def decompose(p):
        d = real(p)
        return d._replace(**DECOMPOSE_FAULTS[fault](d))

    monkeypatch.setattr(class5, "decompose", decompose)
    with pytest.raises(AssertionError):
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


# a construction at n = 6 that loses one avoider of the middle stratum, and
# one that builds an avoider twice
CONSTRUCTION_FAULTS = {
    "dropped": lambda built: built[:-1],
    "repeated": lambda built: built + built[:1],
}


@pytest.mark.parametrize("fault", CONSTRUCTION_FAULTS)
def test_criterion_8_catches_a_faulty_construction(monkeypatch, fault):
    real = class5.constructions

    def constructions(n):
        built = real(n)
        return CONSTRUCTION_FAULTS[fault](built) if n == 6 else built

    monkeypatch.setattr(class5, "constructions", constructions)
    with pytest.raises(AssertionError):
        acceptance.criterion_8_class5_formula()


def test_criterion_6_catches_a_4213_in_the_pi4_level(monkeypatch):
    # a pi4 level holding a permutation that contains 4213, which the
    # bijection rejects, fails the criterion rather than raising
    real = counting.avoider_levels

    def avoider_levels(patterns, nmax):
        levels = real(patterns, nmax)
        if patterns == TRIPLES["pi4"]:
            levels[4].append((4, 2, 1, 3))
        return levels

    monkeypatch.setattr(counting, "avoider_levels", avoider_levels)
    with pytest.raises(AssertionError, match=re.escape("(4, 2, 1, 3)")):
        acceptance.criterion_6_bijection_suite()


@pytest.mark.parametrize("start", [9, 20, 40])
def test_criterion_4_catches_a_fault_in_the_shared_boundary_branch(monkeypatch, start):
    # b_n(n-2), the boundary entry the next level reads, off by one from
    # length start on, past the enumerated n <= 8, in the branch that pi2
    # and pi3 share: both go wrong alike, so only the series can tell
    real = recurrence.advance

    def advance(table, prev_total):
        level = real(table, prev_total)
        if level.class_id == "pi1" or level.n < start:
            return level
        b = (*level.b[:-3], level.b[-3] + 1, *level.b[-2:])
        return recurrence.RecurrenceTable(level.class_id, level.n, level.a, b)

    monkeypatch.setattr(recurrence, "advance", advance)
    assert recurrence.count_via_recurrence("pi2", 50) == recurrence.count_via_recurrence(
        "pi3", 50
    )
    with pytest.raises(AssertionError, match=re.escape("('pi2', ")):
        acceptance.criterion_4_recurrence_fidelity()


@pytest.mark.parametrize("class_id", recurrence.CLASS_IDS)
def test_criterion_4_catches_a_fault_in_b_n_minus_1(monkeypatch, class_id):
    # b_n(n-1) off by one from length 20 on: no later level reads it, so
    # every total and every a-vector stays right, and only the boundary
    # check sees it
    real = recurrence.advance

    def advance(table, prev_total):
        level = real(table, prev_total)
        if level.class_id != class_id or level.n < 20:
            return level
        b = (*level.b[:-2], level.b[-2] + 1, level.b[-1])
        return recurrence.RecurrenceTable(level.class_id, level.n, level.a, b)

    monkeypatch.setattr(recurrence, "advance", advance)
    coeffs = list(series.gf_catalog("main", 50).coeffs)
    assert recurrence.count_via_recurrence(class_id, 50) == coeffs
    with pytest.raises(AssertionError, match=re.escape(f"('{class_id}', 20, ")):
        acceptance.criterion_4_recurrence_fidelity()


def _faulty_middle_pass():
    """A copy of `levels._middle_pass` whose coupled x < z branch keeps the
    x values below twice the largest z, not below it: a fault in one
    character that the five triples themselves count past."""
    source = inspect.getsource(levels._middle_pass)
    faulty = source.replace("xs &= smear(zs) >> 1", "xs &= smear(zs) << 1")
    assert faulty != source
    namespace = dict(vars(levels))
    exec(faulty, namespace)
    return namespace["_middle_pass"]


def test_criterion_1_catches_a_faulty_middle_pass(monkeypatch, capsys):
    monkeypatch.setattr(levels, "_middle_pass", _faulty_middle_pass())
    # the five triples as given still count right
    rows = counting.counting_sequences(TRIPLES.values(), 8)
    assert rows == [list(oeis.fetch("A111279").prefix(9))] * 5
    with pytest.raises(AssertionError, match="image"):
        acceptance.criterion_1_five_class_agreement()
    assert main(["verify"]) == 1
    assert capsys.readouterr().out.startswith("FAIL  1  five-class agreement: ")


def test_criterion_3_catches_a_faulty_middle_pass(monkeypatch, capsys):
    # the same fault leaves the five matches alone but moves the split of
    # the other orbits' divergence from 296/16 to 300/12
    monkeypatch.setattr(levels, "_middle_pass", _faulty_middle_pass())
    report = counting.wilf_search(8, oeis.fetch("A111279").prefix(9))
    assert len(report.matches) == 5
    assert report.diverged == ((5, 300), (6, 12))
    with pytest.raises(AssertionError, match=re.escape("diverged ((5, 300), (6, 12))")):
        acceptance.criterion_3_wilf_classification()
    assert main(["verify"]) == 1
    assert "\nFAIL  3  wilf classification: diverged " in capsys.readouterr().out


# the forked children of `run_all` against the one-at-a-time loop it replaces


def _sequential_stdout(criteria) -> str:
    """What running criteria one at a time in index order prints, up to the
    first exception that is not an AssertionError."""
    out = io.StringIO()
    for index, (name, check) in enumerate(criteria, start=1):
        try:
            check()
        except AssertionError as exc:
            out.write(f"FAIL {index:2d}  {name}: {exc}\n")
        except Exception:
            break
        else:
            out.write(f"PASS {index:2d}  {name}\n")
    return out.getvalue()


def _planted(exc: Exception):
    def check():
        raise exc

    return check


def _stubs(middle):
    """Five stub criteria with `middle` third; the first finishes last on
    any number of CPUs, so completion order is never index order."""
    return (
        ("slow first", lambda: time.sleep(0.3)),
        ("second", lambda: None),
        ("middle", middle),
        ("fourth", lambda: None),
        ("fifth", lambda: None),
    )


def test_run_all_prints_a_failure_in_its_place(capsys, monkeypatch):
    stubs = _stubs(_planted(AssertionError("planted on purpose")))
    monkeypatch.setattr(acceptance, "CRITERIA", stubs)
    code = main(["verify"])
    out = capsys.readouterr().out
    assert code == 1
    assert out == _sequential_stdout(stubs)
    assert out.splitlines()[2] == "FAIL  3  middle: planted on purpose"


def test_run_all_raises_other_exceptions_from_the_worker(capsys, monkeypatch):
    stubs = _stubs(_planted(ValueError("planted value error")))
    monkeypatch.setattr(acceptance, "CRITERIA", stubs)
    code = main(["verify"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err == "error: planted value error\n"
    assert captured.out == _sequential_stdout(stubs) == "PASS  1  slow first\nPASS  2  second\n"


def _stamped():
    """A stub criterion that fails with the times it started and ended."""
    start = time.monotonic()
    time.sleep(0.05)
    raise AssertionError(f"{start!r} {time.monotonic()!r}")


def test_run_all_on_one_cpu_prints_the_same_bytes(capsys, monkeypatch):
    stubs = _stubs(_planted(AssertionError("planted on purpose")))
    monkeypatch.setattr(acceptance, "CRITERIA", stubs)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    code = main(["verify"])
    assert code == 1
    assert capsys.readouterr().out == _sequential_stdout(stubs)

    # and the criteria run one at a time: no two spans overlap
    monkeypatch.setattr(acceptance, "CRITERIA", tuple((f"c{i}", _stamped) for i in range(4)))
    assert main(["verify"]) == 1
    spans = sorted(
        tuple(map(float, line.split(": ")[1].split()))
        for line in capsys.readouterr().out.splitlines()
    )
    assert len(spans) == 4
    assert all(end <= start for (_, end), (start, _) in zip(spans, spans[1:])), spans


def test_run_all_without_a_cpu_set_prints_the_same_bytes(capsys, monkeypatch):
    # where os.sched_getaffinity is missing (macOS, the BSDs), one CPU
    stubs = _stubs(_planted(AssertionError("planted on purpose")))
    monkeypatch.setattr(acceptance, "CRITERIA", stubs)
    monkeypatch.delattr(os, "sched_getaffinity")
    assert main(["verify"]) == 1
    assert capsys.readouterr().out == _sequential_stdout(stubs)


def test_run_all_prints_a_long_failure_whole(capsys, monkeypatch):
    # far more than a pipe holds
    message = "y" * 200_000
    stubs = _stubs(_planted(AssertionError(message)))
    monkeypatch.setattr(acceptance, "CRITERIA", stubs)
    assert main(["verify"]) == 1
    out = capsys.readouterr().out
    assert out == _sequential_stdout(stubs)
    assert out.splitlines()[2] == f"FAIL  3  middle: {message}"


def test_run_all_fails_when_a_worker_dies():
    # a fresh interpreter, whose exit status shows how verify ends
    script = (
        "import os, sys\n"
        "from weaksort import acceptance, cli\n"
        "acceptance.CRITERIA = (\n"
        "    ('before', lambda: None), ('dies', lambda: os._exit(3)), ('after', lambda: None),\n"
        ")\n"
        "sys.exit(cli.main(['verify']))\n"
    )
    src = str(Path(weaksort.__file__).resolve().parents[1])
    done = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True, text=True, timeout=60, env={"PYTHONPATH": src},
    )
    assert done.returncode != 0
    assert "PASS  2" not in done.stdout
