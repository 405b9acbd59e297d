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

Three things keep the work per parent small:

- Patterns that share a standardized head (1234 and 1243 share 123) share
  one scan of the parent for that head; each occurrence ORs in the window of
  every pattern with that head.
- Children are built by indexing, not by a loop per entry: for each level,
  bump[r][v] is v below r and v+1 from r up, so the child of q with new last
  rank r is itemgetter(*q)(bump[r]) + (r,).
- A count needs no tuples, so the last level of a counting sequence is never
  built: parent q has len(q) + 1 - popcount(mask) clean children, and the
  count is the sum of that over the parents.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from operator import itemgetter
from typing import Iterable, Iterator, Sequence

from .perms import PatternSet, Perm, canonical_form, occurrences, standardize

#: each standardized head with the (lo_at, hi_at) window bounds of every
#: pattern that has it
Heads = list[tuple[Perm, list[tuple[int, int]]]]


def _heads(patterns: PatternSet) -> Heads:
    """
    Each nonempty pattern as its standardized head and the head letters that
    bound its window: the largest below the last letter (head rank s, where
    s letters lie below it) and the smallest above it (rank s+1); -1 if
    none.  Patterns that share a head share one entry.
    """
    bounds: dict[Perm, list[tuple[int, int]]] = {}
    for tau in patterns:
        tau = standardize(tau)
        head = standardize(tau[:-1])
        s = tau[-1] - 1
        lo_at = head.index(s) if s >= 1 else -1
        hi_at = head.index(s + 1) if s + 1 <= len(head) else -1
        bounds.setdefault(head, []).append((lo_at, hi_at))
    return list(bounds.items())


def _forbidden(prefix: Perm, heads: Heads) -> int:
    """Bitmask of the new last ranks r whose child ends an occurrence."""
    m = len(prefix)
    forbidden = 0
    for head, bounds in heads:
        for occ in occurrences(prefix, head):
            for lo_at, hi_at in bounds:
                lo = prefix[occ[lo_at]] if lo_at >= 0 else 0
                hi = prefix[occ[hi_at]] if hi_at >= 0 else m + 1
                forbidden |= (1 << (hi + 1)) - (1 << (lo + 1))
    return forbidden


def _next_level(level: list[Perm], heads: Heads) -> list[Perm]:
    """The clean standardized extensions of every prefix in level."""
    m = len(level[0]) if level else 0
    ranks = range(1, m + 2)
    # bump[r][v]: entry v of a parent in its child with new last rank r
    bump = [tuple(v if v < r else v + 1 for v in range(m + 1)) for r in range(m + 2)]
    out = []
    for q in level:
        forbidden = _forbidden(q, heads)
        if m >= 2:
            take = itemgetter(*q)
            out += [take(bump[r]) + (r,) for r in ranks if not forbidden >> r & 1]
        else:  # itemgetter needs an index, and one index returns a bare value
            out += [
                tuple(bump[r][v] for v in q) + (r,)
                for r in ranks
                if not forbidden >> r & 1
            ]
    return out


def _levels(heads: Heads, n: int) -> Iterator[list[Perm]]:
    """Avoiders of each length 0..n, one list per length."""
    level: list[Perm] = [()]
    yield level
    for _ in range(n):
        level = _next_level(level, heads)
        yield level


def _counts(patterns: PatternSet, nmax: int) -> Iterator[int]:
    """
    |S_0(T)|, ..., |S_nmax(T)|.  The last level is counted, not built: a
    parent q of length m has m + 1 - popcount(mask) clean children.
    """
    if () in patterns:
        # the empty pattern occurs in every permutation, the empty one included
        yield from itertools.repeat(0, nmax + 1)
        return
    if nmax == 0:
        yield 1
        return
    heads = _heads(patterns)
    for level in _levels(heads, nmax - 1):
        yield len(level)
    yield sum(len(q) + 1 - _forbidden(q, heads).bit_count() for q in level)


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
    if () in T:
        return []
    for level in _levels(_heads(T), n):
        pass  # keep only the last level alive
    return sorted(level)


def counting_sequence(patterns: Iterable[Sequence[int]], nmax: int) -> list[int]:
    """
    [|S_0(T)|, ..., |S_nmax(T)|] by pruned enumeration.

    The cost grows like the counting sequence itself, which may be
    factorial; nmax is taken as given (the command line's size limit is in
    `weaksort.cli`).
    """
    if nmax < 0:
        raise ValueError("nmax must be >= 0")
    return list(_counts(frozenset(tuple(t) for t in patterns), nmax))


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
    # _counts is a generator, so all() stops enumerating at the first mismatch
    matches = sorted(
        rep
        for rep in orbits
        if all(c == t for c, t in zip(_counts(frozenset(rep), nmax), prefix))
    )
    return WilfSearchReport(
        target=prefix,
        nmax=nmax,
        matches=tuple(matches),
        orbits_examined=len(orbits),
        triples_total=sum(orbits.values()),
    )
