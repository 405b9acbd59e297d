"""
Schroder paths, bounding staircases, and the bijection between them and the
avoiders of {3214, 4213}.

A Schroder path is a lattice path of North (N), diagonal (D) and East (E)
steps from the origin that never drops below the diagonal y = x and ends on
it.  Its size is #N + #D; a path of size n ends at (n, n).  Vertices on the
diagonal split a path into components; a peak is an adjacent NE pair.

Every permutation has a bounding staircase: the lattice outline that climbs
through its left-to-right maxima and descends through its right-to-left
maxima.  Measuring heights by value and widths by position, the staircase of
p with LR maxima (q_1,v_1),...,(q_j,v_j) and RL maxima (r_1,u_1),...,(r_t,u_t)
is

    N^{v_1} E^{q_2-q_1} N^{v_2-v_1} ... N^{v_j-v_{j-1}} E^1
    S^{u_1-u_2} E^{r_2-r_1} S^{u_2-u_3} ... E^{r_t-r_{t-1}} S^{u_t}

(the single E at the top brackets the maximum entry n).  Staircases of size n
are exactly the N/E/S step strings, n of each letter, satisfying

    (1) all N steps precede all S steps;
    (2) maximal East runs sit at pairwise distinct heights;
    (3) counting from the top, the i-th matching N/S pair is at least i
        columns apart, and the first pair exactly 1.

The permutation -> staircase map restricts to a bijection on the
{3214, 4213}-avoiders: an avoider is recoverable as the lexicographically
least permutation with its staircase (`staircase_to_perm`).  A second
bijection takes staircases of size n to Schroder paths of size n-1
(`staircase_to_schroder`); composing the two gives `perm_to_path`, and paths
whose components each have at most one peak correspond exactly to the
avoiders of the fourth triple {2314, 3214, 4213}.

Paths and staircases are plain step strings, as permutations are plain
tuples: `SchroderPath` and `Staircase` are aliases of `str`, and every
function here takes and returns the string itself, such as "NDENE" or
"NENESS".  A path has path.count("NE") peaks and len(path_components(path))
components; a staircase has size s.count("N").  `peak_census` alone
builds no path: it walks the paths of a size, counting peaks and returns
to the diagonal step by step.

One pattern reads the runs of a staircase's step string: it is a list of
(N or S run, East run) pairs, and the final S run has no East run after it.
"""
from __future__ import annotations

import re
from bisect import bisect_left

from .perms import Perm, extrema, find_occurrence

SchroderPath = str
Staircase = str

SCHRODER_STEPS = frozenset("NDE")
_RUNS = re.compile(r"([NS]+)(E+)")


def validate_path(steps: str) -> SchroderPath:
    """
    Check a step string for being a Schroder path and return it, rejecting
    malformed input with the position (1-based) of the first violation.
    """
    h = 0
    for i, ch in enumerate(steps):
        if ch not in SCHRODER_STEPS:
            raise ValueError(f"invalid step {ch!r} at position {i + 1}")
        if ch == "N":
            h += 1
        elif ch == "E":
            h -= 1
            if h < 0:
                raise ValueError(f"path drops below the diagonal at position {i + 1}")
    if h != 0:
        raise ValueError(
            f"path ends at height {h}, not on the diagonal (position {len(steps)})"
        )
    return steps


def path_components(path: SchroderPath) -> list[SchroderPath]:
    """The components, split at each return to the diagonal."""
    out = []
    h = 0
    start = 0
    for i, ch in enumerate(path):
        if ch == "N":
            h += 1
        elif ch == "E":
            h -= 1
        if h == 0:
            out.append(path[start : i + 1])
            start = i + 1
    return out


def enumerate_paths(n: int) -> list[SchroderPath]:
    """
    All Schroder paths of size n, sorted by step string.  There are r_n of
    them (the large Schroder numbers, growing like 5.83^n); n is taken as
    given.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    out: list[SchroderPath] = []

    def walk(prefix: str, h: int, budget: int) -> None:
        # steps tried in ASCII order D < E < N, so paths come out sorted
        # (no path of size n is a prefix of another)
        if budget == 0:
            # only E steps remain: h of them, straight down to the diagonal
            out.append(prefix + "E" * h)
            return
        walk(prefix + "D", h, budget - 1)
        if h > 0:
            walk(prefix + "E", h - 1, budget)
        walk(prefix + "N", h + 1, budget - 1)

    walk("", 0, n)
    return out


def peak_census(n: int) -> tuple[dict[int, int], dict[int, int]]:
    """
    Number of Schroder n-paths for each peak count: over all paths, and over
    the indecomposable ones (exactly one component; the empty path has
    none).

    One walk over the D/E/N tree that `enumerate_paths` walks, visiting
    every path but building neither the list nor any step string.  Each
    branch carries its height, the N/D steps left, the peaks so far, whether
    the last step was N, and whether the path has returned to the diagonal
    before its end.  A path is counted at its leaf, where the trailing E run
    closes one more peak when the last step was N.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    if n == 0:
        return {0: 1}, {}
    census = [0] * (n + 1)
    indec = [0] * (n + 1)

    def walk(h: int, budget: int, peaks: int, after_n: bool, touched: bool) -> None:
        if budget == 0:
            peaks += after_n
            census[peaks] += 1
            if not touched:
                indec[peaks] += 1
            return
        # a D along the diagonal with steps left after it, or an E down to
        # the diagonal, returns to it before the end
        walk(h, budget - 1, peaks, False, touched or (h == 0 and budget > 1))
        if h > 0:
            walk(h - 1, budget, peaks + after_n, False, touched or h == 1)
        walk(h + 1, budget - 1, peaks, True, touched)

    walk(0, n, 0, False, False)
    return (
        {k: c for k, c in enumerate(census) if c},
        {k: c for k, c in enumerate(indec) if c},
    )


def le1_peak_paths(n: int) -> list[SchroderPath]:
    """The Schroder n-paths all of whose components have <= 1 peak."""
    return [
        path
        for path in enumerate_paths(n)
        if all(c.count("NE") <= 1 for c in path_components(path))
    ]


# --------------------------------------------------------------------------
# bounding staircases


def perm_to_staircase(p: Perm) -> Staircase:
    """
    The bounding staircase of a permutation (total map; every permutation
    has one, but only {3214, 4213}-avoiders are recoverable from theirs).
    """
    if len(p) == 0:
        raise ValueError("the empty permutation has no bounding staircase")
    ext = extrema(p)
    lr, rl = ext.lr_maxima, ext.rl_maxima
    # one (N, E) run pair per LR maximum and one (S, E) pair per RL maximum;
    # the sentinels close with the bracket E and with the S run to the floor
    lr_next = lr[1:] + ((lr[-1][0] + 1, 0),)
    rl_next = rl[1:] + ((rl[-1][0], 0),)
    parts = []
    prev_v = 0
    for (q, v), (next_q, _) in zip(lr, lr_next):
        parts.append("N" * (v - prev_v) + "E" * (next_q - q))
        prev_v = v
    for (r, u), (next_r, next_u) in zip(rl, rl_next):
        parts.append("S" * (u - next_u) + "E" * (next_r - r))
    return "".join(parts)


def _parse_staircase(s: Staircase) -> list[int]:
    """Slots 0..n: each LR or RL maximum's value at its position, else 0."""
    first_s = s.index("S")
    out = [0] * (s.count("N") + 1)
    h = 0
    pos = 1
    for ns, es in _RUNS.findall(s, 0, first_s):
        h += len(ns)
        out[pos] = h
        pos += len(es)
    pos -= 1  # back from the bracket E to the column of the maximum
    for ss, es in _RUNS.findall(s, first_s):
        h -= len(ss)
        pos += len(es)
        out[pos] = h
    return out


def staircase_to_perm(st: Staircase) -> Perm:
    """
    The lexicographically least permutation with the given bounding
    staircase; it avoids {3214, 4213}.

    The staircase pins down the LR-maximum and RL-maximum slots.  The
    remaining slots are filled right to left, each taking the largest unused
    value that stays below the maximum already to its right (so no new RL
    maximum appears).  Taking the largest legal value at each step leaves the
    smallest values for the front, which is what makes the result
    lexicographically least.
    """
    n = st.count("N")
    out = _parse_staircase(st)  # 1-based slots
    avail = sorted(set(range(1, n + 1)).difference(out))
    max_right = 0
    for pos in range(n, 0, -1):
        if out[pos]:
            max_right = max(max_right, out[pos])
            continue
        k = bisect_left(avail, max_right) - 1
        if k < 0:
            raise ValueError(f"staircase admits no permutation at slot {pos}")
        out[pos] = avail.pop(k)
    return tuple(out[1:])


# --------------------------------------------------------------------------
# staircase <-> Schroder path


def staircase_to_schroder(s: Staircase) -> SchroderPath:
    """
    The Schroder path of size n-1 encoding a staircase of size n.

    Three stages: (a) each East run of the descent (it sits between two S
    steps, at some height h) is re-inserted into the ascent right after the
    N step that tops out at height h, remembering the new NE corner; (b) the
    trailing N E S^n is dropped; (c) every remembered corner becomes a D
    step.  Property (2) guarantees the inserted runs never collide with an
    existing East run.
    """
    first_s = s.index("S")
    run_at: dict[int, int] = {}
    h = s.count("N")
    for ss, es in _RUNS.findall(s, first_s):
        h -= len(ss)
        run_at[h] = len(es)
    parts = []
    h = 0
    for ch in s[:first_s]:
        if ch == "N":
            h += 1
            if h in run_at:
                parts.append("D" + "E" * (run_at[h] - 1))
            else:
                parts.append("N")
        else:
            parts.append("E")
    path = "".join(parts)
    if not path.endswith("NE"):
        raise ValueError("malformed staircase: ascent does not end with N E")
    return path[:-2]


def schroder_to_staircase(path: SchroderPath) -> Staircase:
    """
    Inverse of `staircase_to_schroder`: size grows by one.

    One pass over the path: N and D each add an N to the ascent, and a D
    also opens an East run of length 1 at its height, which the Es right
    after it lengthen; every other E stays in the ascent.  The bracket N E
    and the S column, each run after the S that comes down to its height,
    close the staircase.
    """
    ascent: list[str] = []
    runs: dict[int, int] = {}
    h = 0
    corner = 0  # height of the open run, 0 when none is open
    for ch in path:
        if ch == "N":
            h += 1
            ascent.append("N")
            corner = 0
        elif ch == "D":
            h += 1
            ascent.append("N")
            corner = h
            runs[h] = 1
        elif corner:
            runs[corner] += 1
        else:
            ascent.append("E")
    descent = "".join("S" + "E" * runs.get(u, 0) for u in range(h, -1, -1))
    return "".join(ascent) + "NE" + descent


# --------------------------------------------------------------------------
# the composite bijection


def perm_to_path(p: Perm) -> SchroderPath:
    """
    The bijection from {3214, 4213}-avoiders of length n to Schroder paths
    of size n-1.  Rejects inputs containing either pattern, reporting a
    witness occurrence.

    Membership is tested by the staircase round trip: p avoids both patterns
    exactly when it is the lexicographically least permutation with its
    bounding staircase.  Only a rejected input is searched for a witness.
    """
    st = perm_to_staircase(p)
    if staircase_to_perm(st) != p:
        for tau in ((3, 2, 1, 4), (4, 2, 1, 3)):
            occ = find_occurrence(p, tau)
            if occ is not None:
                raise ValueError(
                    f"input contains {''.join(map(str, tau))} at positions {occ}"
                )
        raise AssertionError(
            f"{p} is not least for its staircase yet avoids 3214 and 4213"
        )
    return staircase_to_schroder(st)


def path_to_perm(path: SchroderPath) -> Perm:
    """Inverse bijection: the avoider of length size+1 encoding the path."""
    return staircase_to_perm(schroder_to_staircase(path))
