"""
OEIS cross-check sequences, read from bundled b-files.

The four sequences the package checks against ship as b-file fixtures
(lines of "index value"), so nothing reaches the network or writes a file.

Bundled fixtures:
    A111279  weak sorting numbers (the shared counting sequence)
    A006318  large Schroder numbers
    A026671  indecomposable avoiders of the fifth triple
    A060693  Schroder paths of size n with k peaks (triangle by rows)
"""
from __future__ import annotations

import os
import re
from typing import NamedTuple

from .perms import parse_int

#: the permutation length that each fixture's first term counts: A006318's
#: term n counts the {3214, 4213}-avoiders of length n + 1 and A026671's the
#: indecomposable avoiders of the fifth triple of length n + 1; None for
#: A060693, a triangle read by rows, not indexed by length
FIRST_LENGTH: dict[str, int | None] = {
    "A111279": 0,
    "A006318": 1,
    "A026671": 1,
    "A060693": None,
}
FIXTURE_IDS = tuple(FIRST_LENGTH)
_ID_RE = re.compile(r"\AA[0-9]{6}\Z")


class OeisSequence(NamedTuple):
    id: str
    offset: int
    terms: tuple[int, ...]

    def prefix(self, count: int) -> tuple[int, ...]:
        """The first count terms, which must start at index 0."""
        if self.offset != 0:
            raise ValueError(f"{self.id} fixture starts at index {self.offset}, not 0")
        if count > len(self.terms):
            raise ValueError(f"{self.id} fixture holds only {len(self.terms)} terms")
        return self.terms[:count]


def parse_bfile(seq_id: str, text: str) -> OeisSequence:
    """Parse b-file lines "index value"; indices must be contiguous."""
    indices: list[int] = []
    terms: list[int] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 2:
            raise ValueError(f"{seq_id} b-file line {lineno}: expected 'index value'")
        try:
            idx, val = map(parse_int, parts)
        except ValueError:
            raise ValueError(
                f"{seq_id} b-file line {lineno}: not an integer pair {line!r}"
            ) from None
        if indices and idx != indices[-1] + 1:
            raise ValueError(
                f"{seq_id} b-file line {lineno}: index {idx} not contiguous"
            )
        indices.append(idx)
        terms.append(val)
    if not terms:
        raise ValueError(f"{seq_id} b-file holds no terms")
    return OeisSequence(seq_id, indices[0], tuple(terms))


def fetch(seq_id: str) -> OeisSequence:
    """Load the bundled fixture of a sequence."""
    if not _ID_RE.match(seq_id):
        raise ValueError(f"malformed OEIS id {seq_id!r}; expected A followed by 6 digits")
    if seq_id not in FIXTURE_IDS:
        raise KeyError(
            f"no offline fixture for {seq_id}; bundled: {', '.join(FIXTURE_IDS)}"
        )
    # a plain path, not importlib.resources: from Python 3.12 on that
    # imports inspect, which every command would then pay for at start-up
    path = os.path.join(os.path.dirname(__file__), "data", f"b{seq_id[1:]}.txt")
    with open(path, encoding="utf-8") as f:
        return parse_bfile(seq_id, f.read())
