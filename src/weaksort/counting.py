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
last entry: the rest of the prefix was already checked.  Those are found
once per parent q of length m, for all m+1 children together, as a set of
forbidden insertion ranks.  Split a pattern tau into its head tau[:-1] and
its last letter.  For every occurrence of the standardized head in q, let lo
be the largest value among the head letters that lie below tau[-1] (0 if
none) and hi the smallest among those above it (m+1 if none).  The child
with new last rank r ends an occurrence of tau on that head exactly when
lo < r <= hi: the entries below r keep their values and those from r up are
bumped.  The windows of all occurrences and all patterns form a bitmask,
and only the ranks outside it are extended.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Sequence

from .perms import PatternSet, Perm, canonical_form, occurrences, standardize


def _children(prefix: Perm, heads: list[tuple[Perm, int, int]]) -> Iterable[Perm]:
    """Clean standardized extensions of a clean standardized prefix."""
    m = len(prefix)
    # bit r set: the child with new last rank r ends an occurrence
    forbidden = 0
    for head, lo_at, hi_at in heads:
        for occ in occurrences(prefix, head):
            lo = prefix[occ[lo_at]] if lo_at >= 0 else 0
            hi = prefix[occ[hi_at]] if hi_at >= 0 else m + 1
            forbidden |= (1 << (hi + 1)) - (1 << (lo + 1))
    for rank in range(1, m + 2):
        if not forbidden >> rank & 1:
            yield tuple(v if v < rank else v + 1 for v in prefix) + (rank,)


def _levels(patterns: PatternSet, nmax: int) -> Iterable[list[Perm]]:
    """Avoiders of each length 0..nmax, one list per length."""
    if () in patterns:
        # the empty pattern occurs in every permutation, the empty one included
        for _ in range(nmax + 1):
            yield []
        return
    # each pattern as its standardized head and the head letters that bound
    # the window: the largest below the last letter (head rank s, where s
    # letters lie below it) and the smallest above it (rank s+1); -1 if none
    heads = []
    for tau in patterns:
        tau = standardize(tau)
        head = standardize(tau[:-1])
        s = tau[-1] - 1
        lo_at = head.index(s) if s >= 1 else -1
        hi_at = head.index(s + 1) if s + 1 <= len(head) else -1
        heads.append((head, lo_at, hi_at))
    level: list[Perm] = [()]
    yield level
    for _ in range(nmax):
        level = [child for q in level for child in _children(q, heads)]
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


def counting_sequence(patterns: Iterable[Sequence[int]], nmax: int) -> list[int]:
    """
    [|S_0(T)|, ..., |S_nmax(T)|] by pruned enumeration.

    The cost grows like the counting sequence itself, which may be
    factorial; nmax is taken as given (the command line's size limit is in
    `weaksort.cli`).
    """
    if nmax < 0:
        raise ValueError("nmax must be >= 0")
    T = frozenset(tuple(t) for t in patterns)
    return [len(level) for level in _levels(T, nmax)]


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
