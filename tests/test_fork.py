"""
The fork helper behind `weaksort verify` and the enumeration's last two
lengths: as many processes as CPUs, but one inside a job or while another
thread runs; at most `cpus()` children alive, a new child as soon as one
ends, replies whole and in job order, and every child reaped before an
error is raised.
"""
import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

import weaksort
from weaksort import _fork, counting
from weaksort.counting import counting_sequences
from weaksort.perms import TRIPLES

#: A111279 through n = 9, each of the five classes' counts
WEAK_SORTING = [1, 1, 2, 6, 21, 79, 309, 1237, 5026, 20626]


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


def _counted_forks(monkeypatch) -> list:
    """Two CPUs, a sweep split at any level of at least two prefixes, and
    os.fork wrapped to add an entry to the returned list, in the process
    that calls it, at each call."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    monkeypatch.setattr(counting, "MIN_CHUNK", 1)
    forks = []
    real_fork = os.fork

    def fork():
        forks.append(None)
        return real_fork()

    monkeypatch.setattr(os, "fork", fork)
    return forks


def test_a_job_never_splits_a_sweep(monkeypatch, reaped):
    # inside a job, cpus() is 1, so a sweep whose split level would give
    # two children outside one is counted in the job's process alone
    forks = _counted_forks(monkeypatch)

    def job():
        before = len(forks)
        rows = counting_sequences(TRIPLES.values(), 9)
        return _fork.cpus(), len(forks) - before, rows

    assert _fork.cpus() == 2
    assert _fork.run([job]) == [(1, 0, [WEAK_SORTING] * 5)]
    assert len(forks) == 1


def test_no_sweep_forks_while_another_thread_runs(monkeypatch):
    forks = _counted_forks(monkeypatch)
    release = threading.Event()
    thread = threading.Thread(target=release.wait)
    thread.start()
    try:
        assert _fork.cpus() == 1
        assert counting_sequences(TRIPLES.values(), 9) == [WEAK_SORTING] * 5
    finally:
        release.set()
        thread.join()
    assert forks == []
    assert _fork.cpus() == 2


def test_never_more_than_processes_children_alive(monkeypatch, cpus, reaped):
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
        cpus(processes)
        assert _fork.run(jobs) == list(range(7))
        assert alive == {"now": 0, "most": min(processes, len(jobs))}, processes


def test_fast_jobs_finish_while_a_slow_one_runs(cpus, reaped):
    def stamp(seconds):
        def job():
            time.sleep(seconds)
            return time.monotonic()

        return job

    # the slow job holds one of the two places; the other serves the rest
    cpus(2)
    ends = _fork.run([stamp(0.6)] + [stamp(0.01)] * 4)
    assert max(ends[1:]) < ends[0]


def test_a_long_reply_comes_back_whole(cpus, reaped):
    # far more than a pipe holds, while its siblings are still running
    long = "x" * 200_000
    jobs = [_sleeper(0.2, "first"), lambda: long, _sleeper(0.2, "last")]
    cpus(3)
    assert _fork.run(jobs) == ["first", long, "last"]


def test_every_child_is_reaped_after_a_failure(cpus):
    # the first failure in job order is raised, though it ends last
    jobs = [
        _sleeper(0.2),
        _failing(0.3, LookupError("first in job order")),
        _failing(0.0, ValueError("first to end")),
        _sleeper(0.2),
    ]
    cpus(4)
    with pytest.raises(LookupError, match="^first in job order$"):
        _fork.run(jobs)
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    jobs = [_sleeper(0.2), lambda: os._exit(3), _sleeper(0.2)]
    cpus(3)
    with pytest.raises(RuntimeError, match=r"^worker \d+ exited with status 3 and no result$"):
        _fork.run(jobs)
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_a_failed_fork_still_reaps_the_running_children(monkeypatch, cpus, reaped):
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
    cpus(3)
    with pytest.raises(OSError, match="^planted fork failure$"):
        _fork.run(jobs)


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
