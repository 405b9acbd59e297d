"""
One measured process: import weaksort from the checkout's src/, build the CLI
parser, then run a workload's commands in order through weaksort.cli.main,
capturing each one's stdout, stderr and exit code.

    python3 perfbench/child.py SPAWNED < spec.json

Run from the repository root.  SPAWNED is the time.monotonic() at which the
parent started this process, so set-up time counts from the spawn.  The
spec is {"commands": [argv, ...], "trace": bool}, where an argv entry
{"stdout_of": i} stands for the stripped stdout of command i; an empty
command list measures set-up alone.  The last line of stdout is a JSON
report.

The CPU this runs on changes speed by half again from one second to the
next, as other tenants of the host come and go.  So the process also times
a fixed probe, a small piece of interpreter work like the program's own,
SETUP_PROBES times right after set-up and every PROBE_EVERY_S seconds of
wall time while the commands run (from a SIGALRM handler, on the same CPU).
The report's speed factors are PROBE_REF_S times the mean of 1/probe
seconds: a raw time multiplied by its factor is the time on a CPU on which
one probe takes PROBE_REF_S.  Probe time stays inside the raw times, about
0.5 % of them.
"""
import contextlib
import io
import json
import os
import resource
import signal
import sys
import time

#: seconds one probe takes on the reference CPU (this machine's faster state)
PROBE_REF_S = 0.00018
PROBE_EVERY_S = 0.05
SETUP_PROBES = 40
_PROBE_BASE = (3, 1, 4, 2, 6, 5)


def _probe() -> float:
    """Seconds for a fixed amount of tuple building, comparing and hashing."""
    start = time.perf_counter()
    hits = 0
    for _ in range(12):
        for rank in range(1, 8):
            child = tuple(v if v < rank else v + 1 for v in _PROBE_BASE) + (rank,)
            if all((child[c] < child[-1]) == (c % 2 == 0) for c in range(len(child) - 1)):
                hits += 1
            hits += len({child: rank})
    return time.perf_counter() - start


def _speed(probes: list[float]) -> float:
    return PROBE_REF_S * sum(1 / p for p in probes) / len(probes)


def _cpu_s() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def main() -> None:
    src = os.path.join(os.getcwd(), "src")
    sys.path.insert(0, src)
    from weaksort import cli

    if not os.path.abspath(cli.__file__).startswith(src + os.sep):
        raise SystemExit(f"weaksort was imported from {cli.__file__}, not from {src}")
    cli.build_parser()
    setup_s = time.monotonic() - float(sys.argv[1])

    report = {"setup_s": setup_s, "setup_speed": _speed([_probe() for _ in range(SETUP_PROBES)])}
    spec = json.load(sys.stdin)
    tracer = None
    if spec["trace"]:
        import layers

        tracer = layers.Tracer()
        tracer.install()
        report["unwrapped"] = tracer.unwrapped()
        report["missing_layers"] = sorted(
            set(layers.CALLS + layers.SELF) - tracer.wrapped_names()
        )

    results = []
    probes: list[float] = []
    signal.signal(signal.SIGALRM, lambda signum, frame: probes.append(_probe()))
    signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S, PROBE_EVERY_S)
    cpu0 = _cpu_s()
    start = time.perf_counter()
    for argv in spec["commands"]:
        argv = [
            results[a["stdout_of"]]["stdout"].strip() if isinstance(a, dict) else a
            for a in argv
        ]
        out, err = io.StringIO(), io.StringIO()
        self_before = tracer.self_total() if tracer else 0.0
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                rc = cli.main(argv)
            except SystemExit as exc:
                rc = exc.code
        seconds = time.perf_counter() - t0
        results.append({
            "argv": argv, "rc": rc, "stdout": out.getvalue(), "stderr": err.getvalue(),
            "s": seconds,
            "self_s": tracer.self_total() - self_before if tracer else None,
        })
    report["wall_s"] = time.perf_counter() - start
    report["cpu_s"] = _cpu_s() - cpu0
    signal.setitimer(signal.ITIMER_REAL, 0, 0)
    report["speed"] = _speed(probes) if probes else report["setup_speed"]
    report["probes"] = len(probes)
    report["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    report["results"] = results
    if tracer:
        report["layers"] = tracer.metrics()
        report["spans"] = tracer.table()
    print(json.dumps(report))


if __name__ == "__main__":
    main()
