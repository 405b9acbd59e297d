"""
The benchmark's workloads: the CLI commands each one runs, the seeded inputs
of `deep`, and the checks that decide whether a command failed.

A command is a dict:

    argv    list of CLI arguments; an entry {"stdout_of": i} stands for the
            stripped stdout of command i of the same run
    rc      the expected exit code
    seeded  True when the argv depends on the seed; such a command is held
            to its golden digest only at DEFAULT_SEED
    role    what the cross-route checks of `deep` know the command as

The inputs of `deep` are built here from the seed alone, without calling
weaksort, so the program only ever sees the generated strings.
"""
from __future__ import annotations

import hashlib
import random
import re
import statistics

DEFAULT_SEED = 1
WORKLOADS = ("verify", "search", "deep")

SERIES_ORDER = 300
BIVARIATE_ORDER = 80
SERIES_NAMES = (
    "main",
    "indec_le1peak",
    "schroder_le1peak_per_comp",
    "pi4_nonempty",
    "class5_F",
    "class5_F_rationalized",
    "class5_indec",
)
RECURRENCE_N = 1000
CLASS5_N = 120
PATH_SIZES = (30, 60, 90)
#: each series must reproduce the recurrence of the class it is paired with
SERIES_VS_RECURRENCE = (("main", "pi1"), ("class5_F", "pi2"), ("class5_F_rationalized", "pi3"))

_REJECT_RE = re.compile(r"input contains (\d+) at positions \(([\d, ]+)\)")


def commands(workload: str, seed: int) -> list[dict]:
    """The commands of one run of the workload, in order."""
    if workload == "verify":
        return [_cmd(["verify"])]
    if workload == "search":
        return [
            _cmd(["search", "--n", "8"]),
            _cmd(["sequence", "--classes", "all", "--n", "9"]),
        ]
    if workload == "deep":
        return _deep(random.Random(seed))
    raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")


def _cmd(argv, rc=0, seeded=False, role=None) -> dict:
    return {"argv": argv, "rc": rc, "seeded": seeded, "role": role}


def _deep(rng: random.Random) -> list[dict]:
    out = []
    for name in SERIES_NAMES + ("class5_bivariate",):
        order = BIVARIATE_ORDER if name == "class5_bivariate" else SERIES_ORDER
        argv = ["series", "--name", name, "--n", str(order), "--format", "csv"]
        out.append(_cmd(argv, role=("series", name)))
    for cls in ("pi1", "pi2", "pi3"):
        argv = ["recurrence", "--class", cls, "--n", str(RECURRENCE_N)]
        out.append(_cmd(argv, role=("recurrence", cls)))
    for flag in ("--count", "--indec"):
        out.append(_cmd(["class5", flag, str(CLASS5_N)], role=("class5", flag)))
    for size in PATH_SIZES:
        path = typical_schroder_path(rng, size)
        out.append(_cmd(["bijection", "--inverse", "--path", path], seeded=True,
                        role=("inverse", path)))
        out.append(_cmd(["bijection", "--map", "phi", "--input", {"stdout_of": len(out) - 1}],
                        seeded=True, role=("phi", path)))
    for size in PATH_SIZES:
        for plant in (plant_3214, plant_4213):
            perm = plant(rng, size + 1)
            text = " ".join(map(str, perm))
            out.append(_cmd(["bijection", "--map", "phi", "--input", text], rc=1,
                            seeded=True, role=("reject", text)))
    return out


# --------------------------------------------------------------------------
# seeded inputs


def random_schroder_path(rng: random.Random, n: int) -> str:
    """A uniformly random Schroder path of size n (steps N, D, E)."""
    # ways[b][h]: completions from height h with b N-or-D steps still to take
    ways = [[1] * (n + 2)]
    for b in range(1, n + 1):
        row = [0] * (n + 2)
        for h in range(n + 1):
            row[h] = ways[b - 1][h + 1] + ways[b - 1][h] + (row[h - 1] if h else 0)
        ways.append(row)
    steps = []
    h, b = 0, n
    while b:
        r = rng.randrange(ways[b][h])
        if r < ways[b - 1][h + 1]:
            steps.append("N")
            h, b = h + 1, b - 1
        elif r < ways[b - 1][h + 1] + ways[b - 1][h]:
            steps.append("D")
            b -= 1
        else:
            steps.append("E")
            h -= 1
    return "".join(steps) + "E" * h


def typical_schroder_path(rng: random.Random, n: int, candidates: int = 16) -> str:
    """
    Of `candidates` uniformly random Schroder paths of size n, the one whose
    numbers of D steps and of peaks lie closest to their medians.

    These two numbers drive the cost of the bijection's membership check on
    the path's avoider (its log cost correlates with them at 0.7 and -0.7 at
    size 90), so the choice halves the spread of that cost from seed to seed.
    """
    paths = [random_schroder_path(rng, n) for _ in range(candidates)]
    diagonals = statistics.median(p.count("D") for p in paths)
    peaks = statistics.median(p.count("NE") for p in paths)
    return min(paths, key=lambda p: abs(p.count("D") - diagonals) + abs(p.count("NE") - peaks))


def _two_runs(rng: random.Random, m: int) -> list[int]:
    """A random 321-avoider of length m: two interleaved increasing runs."""
    k = rng.randint(0, m)
    first = sorted(rng.sample(range(1, m + 1), k))
    second = sorted(set(range(1, m + 1)) - set(first))
    where = set(rng.sample(range(m), k))
    return [first.pop(0) if i in where else second.pop(0) for i in range(m)]


def _direct_sum(*parts: list[int]) -> list[int]:
    out: list[int] = []
    for part in parts:
        out += [v + len(out) for v in part]
    return out


def _skew_sum(*parts: list[int]) -> list[int]:
    out: list[int] = []
    for part in reversed(parts):
        out = [v + len(out) for v in part] + out
    return out


def plant_3214(rng: random.Random, n: int) -> list[int]:
    """
    A permutation of length n containing 3214: a skew sum of three nonempty
    321-avoiders (which holds a 321) direct-summed with a nonempty one.
    """
    a, b, c = n // 4, n // 4, n // 4
    return _direct_sum(
        _skew_sum(_two_runs(rng, a), _two_runs(rng, b), _two_runs(rng, c)),
        _two_runs(rng, n - a - b - c),
    )


def plant_4213(rng: random.Random, n: int) -> list[int]:
    """
    A permutation of length n containing 4213 and avoiding 3214, so a
    matcher looking for 3214 first must scan for it in full.

    It is alpha + (delta - eps): alpha, delta and eps avoid 321, eps holds a
    213, "+" is the direct and "-" the skew sum.  delta - eps holds 4213 and
    avoids the skew-indecomposable 3214; alpha holds no 321 to put before
    an entry of the right-hand block.
    """
    a, d = n // 3, n // 3
    while True:
        eps = _two_runs(rng, n - a - d)
        if _contains_213(eps):
            break
    perm = _direct_sum(_two_runs(rng, a), _skew_sum(_two_runs(rng, d), eps))
    if _contains_3214(perm):
        raise AssertionError(f"planted 4213 input contains 3214: {perm}")
    return perm


def _contains_213(p: list[int]) -> bool:
    for i, v in enumerate(p):
        smaller_seen = False
        for w in p[i + 1:]:
            if w < v:
                smaller_seen = True
            elif smaller_seen:
                return True
    return False


def _contains_3214(p: list[int]) -> bool:
    """A 321 among the entries left of and below some entry."""
    for j, top in enumerate(p):
        below = [v for v in p[:j] if v < top]
        high, lows = 0, [0] * len(below)
        low = len(p) + 1
        for i in range(len(below) - 1, -1, -1):
            lows[i] = low
            low = min(low, below[i])
        for i, v in enumerate(below):
            if high > v > lows[i]:
                return True
            high = max(high, v)
    return False


def is_occurrence(p: list[int], positions: list[int], pattern: list[int]) -> bool:
    """Do the 1-based positions hold an occurrence of the pattern in p?"""
    if len(positions) != len(pattern) or positions != sorted(set(positions)):
        return False
    if not all(1 <= q <= len(p) for q in positions):
        return False
    values = [p[q - 1] for q in positions]
    ranks = sorted(values)
    return [ranks.index(v) + 1 for v in values] == pattern


# --------------------------------------------------------------------------
# the correctness gate


def golden_key(argv: list[str]) -> str:
    return " ".join(argv)


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def failures(cmds: list[dict], results: list[dict], seed: int, golden: dict) -> list[list[str]]:
    """
    Why each command of one run failed (an empty list when it passed):
    a wrong exit code, stdout differing from the golden digest, or a broken
    cross-route agreement of `deep`.
    """
    why: list[list[str]] = [[] for _ in cmds]
    for cmd, res, reasons in zip(cmds, results, why):
        if res["rc"] != cmd["rc"]:
            reasons.append(f"exit code {res['rc']}, expected {cmd['rc']}")
        if not cmd["seeded"] or seed == DEFAULT_SEED:
            want = golden.get(golden_key(res["argv"]))
            if want is None:
                reasons.append("no golden digest recorded")
            elif digest(res["stdout"]) != want:
                reasons.append("stdout differs from the golden digest")
    _check_deep(cmds, results, why)
    return why


def _ints(text: str, sep: str | None = None) -> list[int] | None:
    try:
        return [int(v) for v in text.split(sep)]
    except ValueError:
        return None


def _check_deep(cmds, results, why) -> None:
    by_role = {c["role"]: i for i, c in enumerate(cmds) if c["role"] is not None}
    if not by_role:
        return

    def terms(role) -> list[int] | None:
        """The values of a csv `n,value` listing."""
        lines = results[by_role[role]]["stdout"].split()
        return _ints(" ".join(line.partition(",")[2] for line in lines[1:]))

    for name, cls in SERIES_VS_RECURRENCE:
        got, want = terms(("series", name)), terms(("recurrence", cls)) or []
        if got != want[: SERIES_ORDER + 1]:
            why[by_role[("series", name)]].append(f"series {name} disagrees with recurrence {cls}")
    for flag, name in (("--count", "main"), ("--indec", "class5_indec")):
        got = _ints(results[by_role[("class5", flag)]]["stdout"])
        want = terms(("series", name)) or []
        if got is None or len(want) <= CLASS5_N or got != [want[CLASS5_N]]:
            why[by_role[("class5", flag)]].append(
                f"class5 {flag} {CLASS5_N} disagrees with series {name}"
            )
    for cmd, res, reasons in zip(cmds, results, why):
        kind, text = cmd["role"] or (None, None)
        if kind == "phi" and res["stdout"].strip() != text:
            reasons.append("path -> perm -> path does not return the path")
        if kind == "inverse":
            size = text.count("N") + text.count("D")
            if sorted(_ints(res["stdout"]) or []) != list(range(1, size + 2)):
                reasons.append("inverse bijection did not return a permutation of size + 1")
        if kind == "reject":
            match = _REJECT_RE.search(res["stderr"])
            if match is None or match.group(1) not in ("3214", "4213"):
                reasons.append("rejection names no 3214 or 4213 occurrence")
            elif not is_occurrence(_ints(text), _ints(match.group(2), ","),
                                   [int(c) for c in match.group(1)]):
                reasons.append(f"named positions are no {match.group(1)} occurrence")
