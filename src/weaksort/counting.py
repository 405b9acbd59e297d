"""
Brute-force enumeration of pattern avoiders and the exhaustive classification
of triples of 4-letter patterns by counting sequence.

Enumeration builds permutations one entry at a time over *standardized*
prefixes: containment only depends on relative order, so a prefix can be
represented by its standardization, and extending by a new last entry of
relative rank r (bumping existing entries >= r) visits every permutation
exactly once.  A prefix is pruned as soon as it contains a forbidden pattern;
since containment persists under extension, pruning is exact.  At depth n the
standardized prefixes are precisely the avoiders of length n.

Each extension only needs to look for pattern occurrences that use the new
last entry: the rest of the prefix was already checked.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Sequence

from .perms import PatternSet, Perm, canonical_form

#: largest length enumerated without an explicit override (n! blowup guard)
DEFAULT_LIMIT = 10


def _ends_occurrence(seq: Sequence[int], tau: Sequence[int]) -> bool:
    """Does seq contain an occurrence of tau whose last letter is seq[-1]?"""
    k = len(tau)
    m = len(seq)
    if k == 0:
        return True
    if k > m:
        return False
    last = seq[-1]
    t_last = tau[-1]
    chosen: list[int] = []

    def extend(start: int, j: int) -> bool:
        if j == k - 1:
            return True
        for i in range(start, m - (k - j - 1)):
            v = seq[i]
            if (v < last) != (tau[j] < t_last):
                continue
            if all((seq[c] < v) == (tau[t] < tau[j]) for t, c in enumerate(chosen)):
                chosen.append(i)
                if extend(i + 1, j + 1):
                    return True
                chosen.pop()
        return False

    return extend(0, 0)


def _children(prefix: Perm, patterns: PatternSet) -> Iterable[Perm]:
    """Clean standardized extensions of a clean standardized prefix."""
    m = len(prefix)
    for rank in range(1, m + 2):
        child = tuple(v if v < rank else v + 1 for v in prefix) + (rank,)
        if not any(_ends_occurrence(child, tau) for tau in patterns):
            yield child


def _levels(patterns: PatternSet, nmax: int) -> Iterable[list[Perm]]:
    """Avoiders of each length 0..nmax, one list per length."""
    # the root survives unless some pattern is itself empty
    level: list[Perm] = [] if any(len(t) == 0 for t in patterns) else [()]
    yield level
    for _ in range(nmax):
        level = [child for q in level for child in _children(q, patterns)]
        yield level


def enumerate_avoiders(n: int, patterns: Iterable[Sequence[int]]) -> list[Perm]:
    """
    All permutations of length n avoiding every given pattern, in
    lexicographic order.

    >>> enumerate_avoiders(2, [(3, 2, 1, 4), (4, 2, 1, 3)])
    [(1, 2), (2, 1)]
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    T = frozenset(tuple(t) for t in patterns)
    for m, level in enumerate(_levels(T, n)):
        if m == n:
            return sorted(level)
    raise AssertionError("unreachable")


def counting_sequence(
    patterns: Iterable[Sequence[int]],
    nmax: int,
    *,
    limit: int = DEFAULT_LIMIT,
    override: bool = False,
) -> list[int]:
    """
    [|S_0(T)|, ..., |S_nmax(T)|] by pruned enumeration.

    Refuses nmax beyond `limit` (default 10) unless override=True: the cost
    grows like the counting sequence itself, which may be factorial.
    """
    if nmax < 0:
        raise ValueError("nmax must be >= 0")
    if nmax > limit and not override:
        raise ValueError(
            f"nmax={nmax} exceeds the enumeration limit {limit}; "
            "pass override=True to force"
        )
    T = frozenset(tuple(t) for t in patterns)
    return [len(level) for level in _levels(T, nmax)]


def enumerate_avoiders_filter(n: int, patterns: Iterable[Sequence[int]]) -> list[Perm]:
    """
    Independent reference enumeration: filter all n! permutations.  Slow;
    used to validate the pruned enumeration.
    """
    from .perms import all_perms, avoids

    T = [tuple(t) for t in patterns]
    return [p for p in all_perms(n) if avoids(p, T)]


# --------------------------------------------------------------------------
# exhaustive search over triples of 4-letter patterns


@dataclass(frozen=True)
class WilfSearchReport:
    """Outcome of the search over all 2024 triples of 4-letter patterns."""

    target: tuple[int, ...]
    nmax: int
    #: canonical orbit representatives whose counting sequence matches the
    #: target through nmax, sorted lexicographically
    matches: tuple[tuple[Perm, ...], ...]
    #: number of distinct symmetry orbits of triples
    orbits_examined: int
    #: sum of orbit sizes; must equal C(24,3) = 2024
    triples_total: int


def triple_orbits() -> dict[tuple[Perm, ...], int]:
    """
    Symmetry orbits of all C(24,3) triples of 4-letter patterns:
    canonical representative -> orbit size.
    """
    s4 = list(itertools.permutations(range(1, 5)))
    orbits: dict[tuple[Perm, ...], int] = {}
    for triple in itertools.combinations(s4, 3):
        rep = canonical_form(frozenset(triple))
        orbits[rep] = orbits.get(rep, 0) + 1
    return orbits


def wilf_search(nmax: int, target: Sequence[int]) -> WilfSearchReport:
    """
    Find every symmetry orbit of triples of 4-letter patterns whose counting
    sequence agrees with target through length nmax.

    nmax must be at least 6: every triple has the same counts up to n=4, so
    shorter prefixes under-discriminate.
    """
    if nmax < 6:
        raise ValueError("nmax must be >= 6 for a meaningful search")
    if len(target) < nmax + 1:
        raise ValueError(f"target must supply counts for n=0..{nmax}")
    prefix = tuple(target[: nmax + 1])
    orbits = triple_orbits()
    # _levels is a generator, so all() stops enumerating at the first mismatch
    matches = sorted(
        rep
        for rep in orbits
        if all(
            len(level) == t
            for level, t in zip(_levels(frozenset(rep), nmax), prefix)
        )
    )
    return WilfSearchReport(
        target=prefix,
        nmax=nmax,
        matches=tuple(matches),
        orbits_examined=len(orbits),
        triples_total=sum(orbits.values()),
    )
