"""
Minimal OEIS b-file client for the cross-check sequences.

Four sequences used by the verification suite ship as bundled fixtures, so
everything works offline (the default).  Online mode fetches the b-file
(lines of "index value") over HTTP, caches it, and parses it identically;
the cache directory honours the WEAKSORT_OEIS_CACHE environment variable.

Bundled fixtures:
    A111279  weak sorting numbers (the shared counting sequence)
    A006318  large Schroder numbers
    A026671  indecomposable avoiders of the fifth triple
    A060693  Schroder paths of size n with k peaks (triangle by rows)
"""
from __future__ import annotations

import os
import re
import urllib.error
import urllib.request
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

CACHE_ENV = "WEAKSORT_OEIS_CACHE"
FIXTURE_IDS = ("A111279", "A006318", "A026671", "A060693")
_ID_RE = re.compile(r"\AA[0-9]{6}\Z")
#: an index or term: OEIS offsets and terms may be negative, and int() alone
#: would also take "+5", "1_0" and non-ASCII digits
_INT_RE = re.compile(r"-?[0-9]+")


@dataclass(frozen=True)
class OeisSequence:
    id: str
    offset: int
    terms: tuple[int, ...]

    def prefix(self, count: int) -> tuple[int, ...]:
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
        if not all(_INT_RE.fullmatch(part) for part in parts):
            raise ValueError(
                f"{seq_id} b-file line {lineno}: not an integer pair {line!r}"
            )
        idx, val = int(parts[0]), int(parts[1])
        if indices and idx != indices[-1] + 1:
            raise ValueError(
                f"{seq_id} b-file line {lineno}: index {idx} not contiguous"
            )
        indices.append(idx)
        terms.append(val)
    if not terms:
        raise ValueError(f"{seq_id} b-file holds no terms")
    return OeisSequence(seq_id, indices[0], tuple(terms))


def _bfile_name(seq_id: str) -> str:
    return f"b{seq_id[1:]}.txt"


def _load_fixture(seq_id: str) -> OeisSequence:
    if seq_id not in FIXTURE_IDS:
        raise KeyError(
            f"no offline fixture for {seq_id}; bundled: {', '.join(FIXTURE_IDS)}"
        )
    text = (
        resources.files("weaksort").joinpath("data", _bfile_name(seq_id)).read_text()
    )
    return parse_bfile(seq_id, text)


def _cache_dir() -> Path:
    env = os.environ.get(CACHE_ENV)
    if env:
        return Path(env)
    return Path.home() / ".cache" / "weaksort" / "oeis"


def fetch(seq_id: str, source: str = "offline", cache_dir: Path | None = None) -> OeisSequence:
    """
    Load a sequence.  source="offline" (default) reads the bundled fixture;
    source="online" downloads the b-file once and reuses the cached copy.
    """
    if not _ID_RE.match(seq_id):
        raise ValueError(f"malformed OEIS id {seq_id!r}; expected A followed by 6 digits")
    if source == "offline":
        return _load_fixture(seq_id)
    if source != "online":
        raise ValueError(f"source must be 'offline' or 'online', got {source!r}")
    cache = Path(cache_dir) if cache_dir is not None else _cache_dir()
    cached = cache / _bfile_name(seq_id)
    if cached.exists():
        return parse_bfile(seq_id, cached.read_text())
    url = f"https://oeis.org/{seq_id}/{_bfile_name(seq_id)}"
    try:
        with urllib.request.urlopen(url, timeout=30) as resp:
            text = resp.read().decode("utf-8")
    except (urllib.error.URLError, OSError) as exc:
        raise ConnectionError(
            f"could not fetch {url}: {exc}; use source='offline' for the bundled data"
        ) from exc
    parsed = parse_bfile(seq_id, text)  # validate before caching
    cache.mkdir(parents=True, exist_ok=True)
    cached.write_text(text)
    return parsed
