"""
The fork helper behind `weaksort verify` and the enumeration's last two
lengths: at most `processes` children alive, a new child as soon as one
ends, replies whole and in job order, and every child reaped before an
error is raised.
"""
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

import weaksort
from weaksort import _fork


@pytest.fixture(autouse=True)
def guarded():
    """A guard alarm turns a hang into an error."""

    def hung(signum, frame):
        raise TimeoutError("the parent waits on a child that never ends")

    previous = signal.signal(signal.SIGALRM, hung)
    signal.alarm(60)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


@pytest.fixture
def reaped():
    """At the end, no child of this process is left."""
    yield
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _sleeper(seconds: float, value=None):
    def job():
        time.sleep(seconds)
        return value

    return job


def _failing(seconds: float, exc: Exception):
    def job():
        time.sleep(seconds)
        raise exc

    return job


def test_cpus_falls_back_to_one(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
    assert _fork.cpus() == 3
    monkeypatch.delattr(os, "sched_getaffinity")
    assert _fork.cpus() == 1


def test_never_more_than_processes_children_alive(monkeypatch, reaped):
    # forked and not yet reaped, counted in this process: now, and at most
    alive = {"now": 0, "most": 0}
    real_fork, real_waitpid = os.fork, os.waitpid

    def fork():
        pid = real_fork()
        if pid:
            alive["now"] += 1
            alive["most"] = max(alive["most"], alive["now"])
        return pid

    def waitpid(pid, options):
        status = real_waitpid(pid, options)
        alive["now"] -= 1
        return status

    monkeypatch.setattr(os, "fork", fork)
    monkeypatch.setattr(os, "waitpid", waitpid)
    jobs = [_sleeper(0.01 * (i % 3), i) for i in range(7)]
    for processes in (1, 2, 3, 10):
        alive["most"] = 0
        assert _fork.run(jobs, processes) == list(range(7))
        assert alive == {"now": 0, "most": min(processes, len(jobs))}, processes


def test_fast_jobs_finish_while_a_slow_one_runs(reaped):
    def stamp(seconds):
        def job():
            time.sleep(seconds)
            return time.monotonic()

        return job

    # the slow job holds one of the two places; the other serves the rest
    ends = _fork.run([stamp(0.6)] + [stamp(0.01)] * 4, 2)
    assert max(ends[1:]) < ends[0]


def test_a_long_reply_comes_back_whole(reaped):
    # far more than a pipe holds, while its siblings are still running
    long = "x" * 200_000
    jobs = [_sleeper(0.2, "first"), lambda: long, _sleeper(0.2, "last")]
    assert _fork.run(jobs, 3) == ["first", long, "last"]


def test_every_child_is_reaped_after_a_failure():
    # the first failure in job order is raised, though it ends last
    jobs = [
        _sleeper(0.2),
        _failing(0.3, LookupError("first in job order")),
        _failing(0.0, ValueError("first to end")),
        _sleeper(0.2),
    ]
    with pytest.raises(LookupError, match="^first in job order$"):
        _fork.run(jobs, 4)
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    jobs = [_sleeper(0.2), lambda: os._exit(3), _sleeper(0.2)]
    with pytest.raises(RuntimeError, match=r"^worker \d+ exited with status 3 and no result$"):
        _fork.run(jobs, 3)
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_a_failed_fork_still_reaps_the_running_children(monkeypatch, reaped):
    # the two running children each have a reply far larger than a pipe to
    # write, and the second holds a copy of the first one's pipe
    real_fork, forked = os.fork, []

    def fork():
        if len(forked) == 2:
            raise OSError("planted fork failure")
        forked.append(None)
        return real_fork()

    monkeypatch.setattr(os, "fork", fork)
    jobs = [_sleeper(0.1, "x" * 500_000), _sleeper(0.2, "y" * 500_000), _sleeper(0.0)]
    with pytest.raises(OSError, match="^planted fork failure$"):
        _fork.run(jobs, 3)


def test_commands_that_never_fork_load_no_pickle_or_select():
    script = (
        "import sys\n"
        "from weaksort import cli\n"
        "cli.main(['class5', '--count', '9'])\n"
        "print(sorted({'pickle', 'select'} & set(sys.modules)))\n"
    )
    src = str(Path(weaksort.__file__).resolve().parents[1])
    done = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True, text=True, timeout=60, env={"PYTHONPATH": src},
    )
    assert done.stdout == "20626\n[]\n", done.stderr
