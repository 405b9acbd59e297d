"""
The verification gate: one test per criterion, same functions that back
`weaksort verify`.  Every check is exact.
"""
import dataclasses
import io
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

import weaksort
from weaksort import acceptance, class5, counting
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


# a lower tail that starts one entry late, and a head cut one entry early
# (the keys stay as they are, since n then opens the tail)
DECOMPOSE_FAULTS = {
    "late-lower-tail": lambda d: {"lower_tail": d.lower_tail[1:]},
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
        return dataclasses.replace(d, **DECOMPOSE_FAULTS[fault](d))

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
