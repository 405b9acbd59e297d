"""
End-to-end and per-layer benchmark of the weaksort command line.

    python3 perfbench/run.py --workload verify|search|deep --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --record-golden

Run from the repository root; weaksort is imported from its src/.  Each
repetition of a workload is one fresh, single-threaded Python process
(perfbench/child.py) that runs the workload's commands through
weaksort.cli.main, so every number goes through the user's CLI surface and
no cache carries over from one repetition to the next.  Repetitions run one
at a time.

--trace 0 spawns SETUP_RUNS processes that only set up, then repeats the
workload while the next repetition is expected to end within --seconds (at
least once), and reports the end-to-end metrics as medians.  --trace 1 runs
the workload once untraced and once traced, and reports the per-layer
metrics.  Metric names and units come from BENCHMARK.json.  Times are
reported at a reference CPU speed (see child.py).

Every command is checked (workloads.failures).  The last line of stdout is
the result; the line before it holds the environment stamp, the samples,
the failures and, when traced, the aggregated span table.  Any error in
the benchmark itself exits 1 without a result.

--record-golden runs each workload once at the default seed, checks exit
codes and cross-route agreements, and writes the stdout digests to
perfbench/golden.json.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
GOLDEN = HERE / "golden.json"
SETUP_RUNS = 5
#: repetition i of a run uses seed + i * REP_SEED_STRIDE, so a run's median
#: spans several seeded inputs of `deep`, whose cost varies from input to input
REP_SEED_STRIDE = 1_000_003
#: a run gives up this long after it started, inside the 180 s a run may take
DEADLINE_S = 170
_STARTED = time.monotonic()
COMMANDS = ("verify", "search", "sequence", "series", "recurrence", "class5", "bijection")
#: seconds a traced command may differ from the sum of its self times, on
#: top of the tracing overhead: the time stamps and redirects around the call
SELF_SUM_SLACK_S = 0.002


def spawn(argvs: list, trace: bool) -> dict:
    """Run one repetition in a fresh process and return its report."""
    spawned = time.monotonic()
    proc = subprocess.run(
        [sys.executable, str(HERE / "child.py"), repr(spawned)],
        input=json.dumps({"commands": argvs, "trace": trace}),
        capture_output=True, text=True, cwd=ROOT,
        timeout=max(1.0, DEADLINE_S - (time.monotonic() - _STARTED)),
    )
    if proc.returncode != 0:
        raise RuntimeError(f"benchmark process exited {proc.returncode}:\n{proc.stderr[-3000:]}")
    return json.loads(proc.stdout.splitlines()[-1])


def stamp() -> dict:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "weaksort").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return {
        "git_sha": _git_sha(),
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg_start": os.getloadavg(),
    }


def _git_sha() -> str | None:
    """HEAD's commit, or None when the root is not a git clone."""
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def declared(section: str) -> dict[str, str]:
    """Metric name -> unit of one section of BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[section]}


def run(workload: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    """The detail line and the result of one run."""
    detail = {"workload": workload, "seed": seed, "env": stamp()}
    golden = json.loads(GOLDEN.read_text())
    begin = time.monotonic()
    reps: list[tuple[int, list[dict], dict]] = []  # (seed, commands, report)

    def repeat(rep_seed: int, traced: bool) -> dict:
        cmds = workloads.commands(workload, rep_seed)
        report = spawn([c["argv"] for c in cmds], traced)
        reps.append((rep_seed, cmds, report))
        return report

    if trace:
        plain, traced = repeat(seed, False), repeat(seed, True)
    else:
        setups = [spawn([], False) for _ in range(SETUP_RUNS)]
        while True:
            rep_start = time.monotonic()
            repeat(seed + REP_SEED_STRIDE * len(reps), False)
            now = time.monotonic()
            if now - begin + (now - rep_start) > seconds:
                break

    failures = []
    attempted = 0
    for rep_seed, cmds, report in reps:
        attempted += len(cmds)
        why = workloads.failures(cmds, report["results"], rep_seed, golden)
        failures += [{"argv": res["argv"][:6], "why": reasons}
                     for res, reasons in zip(report["results"], why) if reasons]
    detail["failures"] = failures
    detail["problems"] = []

    if trace:
        section = "per_layer"
        metrics = per_layer(plain, traced, detail)
        metrics["fail_frac"] = len(failures) / attempted
    else:
        section = "end_to_end"
        metrics = end_to_end([report for _, _, report in reps], setups, detail)
        detail["samples"]["seeds"] = [rep_seed for rep_seed, _, _ in reps]
    units = declared(section)
    if set(metrics) != set(units):
        raise RuntimeError(
            f"metrics differ from BENCHMARK.json {section}: "
            f"{sorted(set(metrics) ^ set(units))}"
        )
    detail["elapsed_s"] = time.monotonic() - begin
    result = {
        "correct": not failures and not detail["problems"],
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    return detail, result


def end_to_end(reports: list[dict], setups: list[dict], detail: dict) -> dict[str, float]:
    """Medians at reference speed over the repetitions and set-up processes."""
    walls = [r["wall_s"] * r["speed"] for r in reports]
    setup = [r["setup_s"] * r["setup_speed"] for r in setups + reports]
    detail["samples"] = {
        "wall_s": walls,
        "setup_s": setup,
        "raw_wall_s": [r["wall_s"] for r in reports],
        "speed": [r["speed"] for r in reports],
    }
    return {
        "wall_s": statistics.median(walls),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in reports),
    }


def per_layer(plain: dict, traced: dict, detail: dict) -> dict[str, float]:
    """The traced repetition's layer metrics, checked against its untraced twin."""
    speed = traced["speed"]
    overhead = traced["wall_s"] * speed / (plain["wall_s"] * plain["speed"]) - 1
    metrics = dict(traced["layers"])
    for command in COMMANDS:
        metrics[f"cli.{command}.s"] = sum(
            r["s"] for r in traced["results"] if r["argv"][0] == command
        )
    units = declared("per_layer")
    for name in metrics:
        if units.get(name) == "s":
            metrics[name] *= speed
        elif units.get(name) == "1/s":
            metrics[name] /= speed

    problems = detail["problems"]
    gaps = [abs(r["s"] - r["self_s"]) for r in traced["results"]]
    for res, gap in zip(traced["results"], gaps):
        if gap > max(overhead, 0.0) * res["s"] + SELF_SUM_SLACK_S:
            problems.append(
                f"self times of {res['argv'][:3]} sum to {res['self_s']:.4f} s, "
                f"not its {res['s']:.4f} s"
            )
    if traced["unwrapped"]:
        problems.append(f"unwrapped bindings: {traced['unwrapped']}")
    metrics["trace.overhead_frac"] = overhead
    metrics["trace.unattributed_frac"] = sum(gaps) / sum(r["s"] for r in traced["results"])
    metrics["process.cpu_s"] = plain["cpu_s"] * plain["speed"]
    metrics["process.parallelism"] = plain["cpu_s"] / plain["wall_s"]
    detail["samples"] = {
        "raw_wall_s": [plain["wall_s"], traced["wall_s"]],
        "speed": [plain["speed"], traced["speed"]],
    }
    detail["missing_layers"] = traced["missing_layers"]
    detail["spans"] = traced["spans"]
    return metrics


def record_golden() -> None:
    golden = {}
    for workload in workloads.WORKLOADS:
        cmds = workloads.commands(workload, workloads.DEFAULT_SEED)
        rep = spawn([c["argv"] for c in cmds], False)
        recorded = {workloads.golden_key(r["argv"]): workloads.digest(r["stdout"])
                    for r in rep["results"]}
        why = workloads.failures(cmds, rep["results"], workloads.DEFAULT_SEED, recorded)
        bad = [(r["argv"][:6], w) for r, w in zip(rep["results"], why) if w]
        if bad:
            raise RuntimeError(f"{workload}: not recording a failing run: {bad}")
        golden.update(recorded)
    GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0].strip())
    parser.add_argument("--workload", choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-golden", action="store_true")
    args = parser.parse_args()
    try:
        if args.record_golden:
            record_golden()
            return 0
        if args.workload is None:
            parser.error("--workload is required")
        detail, result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except (OSError, RuntimeError, ValueError, KeyError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(detail))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
