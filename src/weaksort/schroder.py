"""
Schroder paths, bounding staircases, and the bijection between them and the
avoiders of {3214, 4213}.

A Schroder path is a lattice path of North (N), diagonal (D) and East (E)
steps from the origin that never drops below the diagonal y = x and ends on
it.  Its size is #N + #D; a path of size n ends at (n, n).  Vertices on the
diagonal split a path into components; a peak is an adjacent NE pair.  Paths
are serialized as plain step strings like "NDENE".

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
"""
from __future__ import annotations

from dataclasses import dataclass

from .perms import Perm, extrema, find_occurrence

#: largest path size enumerated (r_n grows ~ 5.8^n)
DEFAULT_LIMIT = 10

SCHRODER_STEPS = frozenset("NDE")
STAIRCASE_STEPS = frozenset("NES")


@dataclass(frozen=True)
class SchroderPath:
    steps: str

    @property
    def size(self) -> int:
        return self.steps.count("N") + self.steps.count("D")

    def __str__(self) -> str:
        return self.steps


@dataclass(frozen=True)
class BoundingStaircase:
    steps: str

    @property
    def size(self) -> int:
        return self.steps.count("N")

    def __str__(self) -> str:
        return self.steps


@dataclass(frozen=True)
class PathStats:
    size: int
    peaks: int
    components: int

    @property
    def indecomposable(self) -> bool:
        return self.components == 1


def validate_path(steps: str) -> SchroderPath:
    """
    Parse a step string into a SchroderPath, rejecting malformed input with
    the position (1-based) of the first violation.
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
    return SchroderPath(steps)


def stats(path: SchroderPath) -> PathStats:
    """Size, number of peaks (adjacent NE pairs), and number of components."""
    s = path.steps
    peaks = s.count("NE")
    comps = 0
    h = 0
    for ch in s:
        if ch == "N":
            h += 1
        elif ch == "E":
            h -= 1
        if h == 0:
            comps += 1
    return PathStats(path.size, peaks, comps)


def path_components(path: SchroderPath) -> list[SchroderPath]:
    """The components, split at each return to the diagonal."""
    out = []
    h = 0
    start = 0
    for i, ch in enumerate(path.steps):
        if ch == "N":
            h += 1
        elif ch == "E":
            h -= 1
        if h == 0:
            out.append(SchroderPath(path.steps[start : i + 1]))
            start = i + 1
    return out


def enumerate_paths(n: int) -> list[SchroderPath]:
    """All Schroder paths of size n <= DEFAULT_LIMIT, sorted by step string."""
    if n < 0:
        raise ValueError("n must be >= 0")
    if n > DEFAULT_LIMIT:
        raise ValueError(f"n={n} exceeds the enumeration limit {DEFAULT_LIMIT}")
    out: list[str] = []
    prefix: list[str] = []

    def walk(h: int, budget: int) -> None:
        if budget == 0:
            # only E steps remain: h of them, straight down to the diagonal
            out.append("".join(prefix) + "E" * h)
            return
        prefix.append("N")
        walk(h + 1, budget - 1)
        prefix.pop()
        prefix.append("D")
        walk(h, budget - 1)
        prefix.pop()
        if h > 0:
            prefix.append("E")
            walk(h - 1, budget)
            prefix.pop()

    walk(0, n)
    return [SchroderPath(s) for s in sorted(out)]


def peak_census(n: int) -> tuple[dict[int, int], dict[int, int]]:
    """
    Number of Schroder n-paths for each peak count: over all paths, and over
    the indecomposable ones, from one pass over the paths.
    """
    census: dict[int, int] = {}
    indec: dict[int, int] = {}
    for path in enumerate_paths(n):
        st = stats(path)
        census[st.peaks] = census.get(st.peaks, 0) + 1
        if st.indecomposable:
            indec[st.peaks] = indec.get(st.peaks, 0) + 1
    return census, indec


def le1_peak_paths(n: int) -> list[SchroderPath]:
    """The Schroder n-paths all of whose components have <= 1 peak."""
    return [
        path
        for path in enumerate_paths(n)
        if all(stats(c).peaks <= 1 for c in path_components(path))
    ]


# --------------------------------------------------------------------------
# bounding staircases


def perm_to_staircase(p: Perm) -> BoundingStaircase:
    """
    The bounding staircase of a permutation (total map; every permutation
    has one, but only {3214, 4213}-avoiders are recoverable from theirs).
    """
    if len(p) == 0:
        raise ValueError("the empty permutation has no bounding staircase")
    ext = extrema(p)
    lr = ext.lr_maxima
    rl = ext.rl_maxima
    parts = []
    prev_v = 0
    for idx, (q, v) in enumerate(lr):
        parts.append("N" * (v - prev_v))
        next_q = lr[idx + 1][0] if idx + 1 < len(lr) else q + 1
        parts.append("E" * (next_q - q))
        prev_v = v
    for idx in range(1, len(rl)):
        parts.append("S" * (rl[idx - 1][1] - rl[idx][1]))
        parts.append("E" * (rl[idx][0] - rl[idx - 1][0]))
    parts.append("S" * rl[-1][1])
    return BoundingStaircase("".join(parts))


def validate_staircase(steps: str) -> BoundingStaircase:
    """
    Parse and check the three staircase properties, rejecting with the
    position (1-based) of the first violation where one exists.
    """
    n = steps.count("N")
    if n == 0:
        raise ValueError("a staircase needs at least one N step")
    for i, ch in enumerate(steps):
        if ch not in STAIRCASE_STEPS:
            raise ValueError(f"invalid step {ch!r} at position {i + 1}")
    if steps.count("E") != n or steps.count("S") != n:
        raise ValueError(f"step counts differ: need {n} each of N, E, S")
    seen_s = False
    h = 0
    col = 0
    x_of_nth_n: list[int] = []
    x_of_sth_s: list[int] = []
    run_heights: list[int] = []
    prev = ""
    for i, ch in enumerate(steps):
        if ch == "N":
            if seen_s:
                raise ValueError(f"N after S at position {i + 1}")
            x_of_nth_n.append(col)
            h += 1
        elif ch == "S":
            seen_s = True
            x_of_sth_s.append(col)
            h -= 1
        else:
            if prev != "E":
                run_heights.append(h)
            col += 1
        prev = ch
    if len(set(run_heights)) != len(run_heights):
        raise ValueError("two East runs share a height")
    # property (3): i-th matching N/S pair from the top
    for i in range(1, n + 1):
        gap = x_of_sth_s[i - 1] - x_of_nth_n[n - i]
        if i == 1 and gap != 1:
            raise ValueError(f"top N/S pair must be exactly 1 apart, got {gap}")
        if gap < i:
            raise ValueError(f"N/S pair {i} from the top only {gap} apart")
    return BoundingStaircase(steps)


def _parse_staircase(st: BoundingStaircase):
    """LR maxima and RL maxima (position, value) lists encoded by a staircase."""
    s = st.steps
    first_s = s.index("S")
    lr: list[tuple[int, int]] = []
    h = 0
    pos = 1
    i = 0
    while i < first_s:
        ch = s[i]
        j = i
        while j < first_s and s[j] == ch:
            j += 1
        if ch == "N":
            h += j - i
            lr.append((pos, h))
        else:
            pos += j - i
        i = j
    rl = [(lr[-1][0], lr[-1][1])]
    v = h
    i = first_s
    while i < len(s):
        ch = s[i]
        j = i
        while j < len(s) and s[j] == ch:
            j += 1
        if ch == "S":
            v -= j - i
        else:
            rl.append((rl[-1][0] + (j - i), v))
        i = j
    return lr, rl


def staircase_to_perm(st: BoundingStaircase) -> Perm:
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
    n = st.size
    lr, rl = _parse_staircase(st)
    out = [0] * (n + 1)  # 1-based slots
    used = set()
    for q, v in lr + rl:
        out[q] = v
        used.add(v)
    avail = sorted(set(range(1, n + 1)) - used)
    max_right = 0
    for pos in range(n, 0, -1):
        if out[pos]:
            max_right = max(max_right, out[pos])
            continue
        k = len(avail) - 1
        while k >= 0 and avail[k] >= max_right:
            k -= 1
        if k < 0:
            raise ValueError(f"staircase admits no permutation at slot {pos}")
        out[pos] = avail.pop(k)
    return tuple(out[1:])


# --------------------------------------------------------------------------
# staircase <-> Schroder path


def staircase_to_schroder(st: BoundingStaircase) -> SchroderPath:
    """
    The Schroder path of size n-1 encoding a staircase of size n.

    Three stages: (a) each East run of the descent (it sits between two S
    steps, at some height h) is re-inserted into the ascent right after the
    N step that tops out at height h, remembering the new NE corner; (b) the
    trailing N E S^n is dropped; (c) every remembered corner becomes a D
    step.  Property (2) guarantees the inserted runs never collide with an
    existing East run.
    """
    s = st.steps
    n = st.size
    first_s = s.index("S")
    ascent, descent = s[:first_s], s[first_s:]
    run_at: dict[int, int] = {}
    h = n
    i = 0
    while i < len(descent):
        ch = descent[i]
        j = i
        while j < len(descent) and descent[j] == ch:
            j += 1
        if ch == "S":
            h -= j - i
        else:
            run_at[h] = j - i
        i = j
    parts = []
    h = 0
    for ch in ascent:
        if ch == "N":
            h += 1
            if h in run_at:
                parts.append("D")
                parts.append("E" * (run_at[h] - 1))
            else:
                parts.append("N")
        else:
            parts.append("E")
    path = "".join(parts)
    if not path.endswith("NE"):
        raise ValueError("malformed staircase: ascent does not end with N E")
    return SchroderPath(path[:-2])


def schroder_to_staircase(path: SchroderPath) -> BoundingStaircase:
    """
    Inverse of `staircase_to_schroder`: size grows by one.

    Each D becomes an NE corner whose East run (the corner E together with
    any Es following it) is extracted to the descent at the corner's height;
    the bracket N E and the S column are appended.
    """
    marked: set[int] = set()
    ascent: list[str] = []
    h = 0
    for ch in path.steps:
        if ch == "N":
            h += 1
            ascent.append("N")
        elif ch == "D":
            h += 1
            ascent.append("N")
            ascent.append("E")
            marked.add(h)
        else:
            ascent.append("E")
    n = h + 1
    ascent.append("N")
    ascent.append("E")
    # pull the marked runs out of the ascent
    kept: list[str] = []
    runs: dict[int, int] = {}
    h = 0
    i = 0
    while i < len(ascent):
        if ascent[i] == "N":
            h += 1
            kept.append("N")
            i += 1
            if h in marked:
                j = i
                while j < len(ascent) and ascent[j] == "E":
                    j += 1
                runs[h] = j - i
                i = j
        else:
            kept.append("E")
            i += 1
    descent: list[str] = []
    h = n
    while h > 0:
        descent.append("S")
        h -= 1
        if h in runs and h > 0:
            descent.append("E" * runs[h])
    return BoundingStaircase("".join(kept) + "".join(descent))


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
