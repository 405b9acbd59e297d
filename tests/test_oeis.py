"""Bundled fixtures and b-file parsing."""
import pytest

from weaksort import oeis
from weaksort.class5 import count_indecomposable
from weaksort.counting import counting_sequence
from weaksort.perms import SCHRODER_PAIR
from weaksort.recurrence import count_via_recurrence
from weaksort.schroder import enumerate_paths, peak_census


def test_fixture_prefixes():
    assert oeis.fetch("A111279").prefix(9) == (1, 1, 2, 6, 21, 79, 309, 1237, 5026)
    assert oeis.fetch("A006318").prefix(7) == (1, 2, 6, 22, 90, 394, 1806)
    assert oeis.fetch("A026671").prefix(7) == (1, 1, 3, 11, 43, 173, 707)
    assert oeis.fetch("A060693").prefix(6) == (1, 1, 1, 2, 3, 1)


def test_fixtures_agree_with_computed_values():
    # each count read at the permutation length its first term is recorded
    # to count
    first = oeis.FIRST_LENGTH
    shared = oeis.fetch("A111279")
    counts = count_via_recurrence("pi1", len(shared.terms) - 1)
    assert list(shared.terms) == counts[first["A111279"] :]

    schroder = oeis.fetch("A006318")
    avoiders = counting_sequence(SCHRODER_PAIR, 8)
    for n in range(8):
        assert schroder.terms[n] == len(enumerate_paths(n))
        assert schroder.terms[n] == avoiders[n + first["A006318"]], n

    indec = oeis.fetch("A026671")
    for n, term in enumerate(indec.terms, first["A026671"]):
        assert term == count_indecomposable(n), n

    # a triangle read by rows, not indexed by permutation length
    assert first["A060693"] is None
    triangle = oeis.fetch("A060693")
    flat = list(triangle.terms)
    at = 0
    for n in range(7):
        census, _ = peak_census(n)
        row = flat[at : at + n + 1]
        assert row == [census.get(k, 0) for k in range(n + 1)], n
        at += n + 1


def test_unknown_fixture_id():
    with pytest.raises(KeyError, match="A000000"):
        oeis.fetch("A000000")


def test_malformed_id():
    with pytest.raises(ValueError, match="malformed"):
        oeis.fetch("X123456")
    with pytest.raises(ValueError, match="malformed"):
        oeis.fetch("A12345")
    with pytest.raises(ValueError, match="malformed"):
        oeis.fetch("A\u0661\u0661\u0661\u0662\u0667\u0669")  # Arabic-Indic digits


def test_parse_bfile_errors():
    with pytest.raises(ValueError, match="line 2"):
        oeis.parse_bfile("A000001", "0 1\n1 2 3\n")
    with pytest.raises(ValueError, match="not contiguous"):
        oeis.parse_bfile("A000001", "0 1\n2 4\n")
    with pytest.raises(ValueError, match="no terms"):
        oeis.parse_bfile("A000001", "# comment only\n")


@pytest.mark.parametrize("line", ["0 1_0", "1 +5", "2 \u0661"])
def test_parse_bfile_rejects_loose_integers(line):
    # int() alone would read these as 10, 5 and 1
    with pytest.raises(ValueError, match="b-file line 2"):
        oeis.parse_bfile("A000001", f"# header\n{line}\n")


def test_parse_bfile_accepts_comments_and_offsets():
    seq = oeis.parse_bfile("A000001", "# header\n3 7\n4 9\n")
    assert seq.offset == 3
    assert seq.terms == (7, 9)
    seq = oeis.parse_bfile("A000001", "-1 -3\n0 2\n")
    assert (seq.offset, seq.terms) == (-1, (-3, 2))


def test_prefix_guard():
    seq = oeis.parse_bfile("A000001", "0 1\n1 2\n")
    with pytest.raises(ValueError, match="only 2 terms"):
        seq.prefix(3)
    # terms indexed from 3 would be read as if from 0, one place per index off
    seq = oeis.parse_bfile("A000001", "3 1\n4 2\n")
    with pytest.raises(ValueError, match="starts at index 3"):
        seq.prefix(1)
