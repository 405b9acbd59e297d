"""
Jobs side by side in forked children: `weaksort verify`'s criteria and the
chunks of an enumeration's last two lengths.  Why raw fork, not a process
pool of the standard library: a pool's import and start-up take about
45 ms, against about 2 ms for a fork and its wait (2-CPU machine, Python
3.11.7), and a job may be any callable, since only its reply is pickled.
Why it is safe: the package starts no thread, so no child inherits a lock
held by another thread.  The parent runs no job, so its peak memory is the
coordinator's.  `pickle` and `select` are imported inside `run`, so the
commands that never fork do not load them.
"""
from __future__ import annotations

import os
from itertools import islice
from typing import Any, Callable, Sequence


def cpus() -> int:
    """The number of CPUs this process may run on; one where the CPU set
    cannot be read (`os.sched_getaffinity` is missing off Linux)."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1


def _start(job: Callable[[], Any]) -> tuple[int, int]:
    """The read end of a pipe and the pid of a forked child that writes to it
    job's ("ok", value) or ("error", exception), pickled, then exits 0."""
    import pickle

    read_end, write_end = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(read_end)
        os.close(write_end)
        raise
    if pid:
        os.close(write_end)
        return read_end, pid
    status = 1
    try:
        os.close(read_end)
        try:
            reply = ("ok", job())
        except BaseException as exc:  # interrupts too: the parent raises it
            reply = ("error", exc)
        with open(write_end, "wb") as pipe:
            pipe.write(pickle.dumps(reply))
        status = 0
    finally:
        os._exit(status)  # no exit hook of the parent's runs


def run(jobs: Sequence[Callable[[], Any]], processes: int) -> list:
    """Every job's value, in job order, each from its own forked child, with
    at most processes alive and the next started when a pipe, read as data
    arrives, ends.  Once every child is reaped, the first failed job in job
    order raises its exception, or a RuntimeError if it sent no reply."""
    import pickle
    import select

    pending = iter(enumerate(jobs))
    live: dict[int, tuple[int, int, list[bytes]]] = {}  # fd -> index, pid, data
    done: list[tuple[int, int, bytes]] = [(0, 0, b"")] * len(jobs)
    try:
        while True:
            for index, job in islice(pending, processes - len(live)):
                read_end, pid = _start(job)
                live[read_end] = (index, pid, [])
            if not live:
                break
            for fd in select.select(list(live), [], [])[0]:
                if data := os.read(fd, 1 << 16):
                    live[fd][2].append(data)
                else:
                    index, pid, chunks = live.pop(fd)
                    os.close(fd)
                    done[index] = (pid, os.waitpid(pid, 0)[1], b"".join(chunks))
    finally:
        # close all, then wait: later siblings hold copies of earlier pipes
        for fd in live:
            os.close(fd)
        for _, pid, _ in live.values():
            os.waitpid(pid, 0)
    values = []
    for pid, status, data in done:
        if code := os.waitstatus_to_exitcode(status):
            raise RuntimeError(f"worker {pid} exited with status {code} and no result")
        kind, value = pickle.loads(data)  # written by _start alone
        if kind == "error":
            raise value
        values.append(value)
    return values
