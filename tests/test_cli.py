"""Command-line surface: formats, determinism, exit codes."""
import json

import pytest

from weaksort.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_sequence_all_classes(capsys):
    code, out, _ = run(capsys, "sequence", "--classes", "all", "--n", "8")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 5
    row = "1 1 2 6 21 79 309 1237 5026"
    assert all(line.split(maxsplit=1)[1] == row for line in lines)


def test_sequence_csv_and_json(capsys):
    code, out, _ = run(capsys, "sequence", "--classes", "pi4", "--n", "5", "--format", "csv")
    assert code == 0
    assert out.splitlines()[0] == "class,n,value"
    assert out.splitlines()[1] == "pi4,0,1"
    code, out, _ = run(capsys, "sequence", "--classes", "pi4", "--n", "5", "--format", "json")
    assert json.loads(out) == {"pi4": [1, 1, 2, 6, 21, 79]}


def test_count_single_value(capsys):
    code, out, _ = run(capsys, "count", "--class", "pi5", "--n", "6")
    assert (code, out.strip()) == (0, "309")
    code, out, _ = run(
        capsys, "count", "--patterns", "3 2 1 4; 4 2 1 3", "--n", "5"
    )
    assert (code, out.strip()) == (0, "90")


def test_search_reports_five_matches(capsys):
    code, out, _ = run(capsys, "search", "--target", "A111279", "--n", "7")
    assert code == 0
    assert "matches 5" in out
    assert "orbits  317 (covering 2024 triples)" in out
    code, out, _ = run(
        capsys, "search", "--target", "A111279", "--n", "7", "--format", "json"
    )
    report = json.loads(out)
    assert report["orbits_examined"] == 317
    assert report["triples_total"] == 2024
    assert len(report["matches"]) == 5
    assert "1 2 3 4; 1 2 4 3; 1 3 4 2" in report["matches"]


def test_search_explicit_target_terms(capsys):
    code, out, _ = run(
        capsys, "search", "--target", "1,1,2,6,21,79,309", "--n", "6", "--format", "json"
    )
    assert code == 0
    # the sequence discriminates early: already exactly five orbits at n=6
    assert len(json.loads(out)["matches"]) == 5


@pytest.mark.parametrize("term", ["2_1", "\uff121", "+21"])
def test_search_rejects_non_ascii_digit_target_terms(capsys, term):
    code, out, err = run(
        capsys, "search", "--target", f"1,1,2,6,{term},79,309", "--n", "6"
    )
    assert (code, out) == (1, "")
    assert err.startswith("error:")


@pytest.mark.parametrize("target", ["A006318", "1,2,6,22,90,394,1806"])
def test_search_rejects_targets_not_starting_1_1(capsys, target):
    # the Schroder numbers are indexed by size, not by permutation length
    code, out, err = run(capsys, "search", "--target", target, "--n", "6")
    assert (code, out) == (1, "")
    assert err.startswith("error:")
    assert target in err and "offset" in err


def test_series_csv(capsys):
    code, out, _ = run(capsys, "series", "--name", "main", "--n", "8", "--format", "csv")
    assert code == 0
    assert out.splitlines()[0] == "n,value"
    assert out.splitlines()[-1] == "8,5026"


def test_series_json_wire_format(capsys):
    code, out, _ = run(capsys, "series", "--name", "main", "--n", "5", "--format", "json")
    assert json.loads(out) == {"name": "main", "terms": [1, 1, 2, 6, 21, 79]}


def test_series_bivariate_rows(capsys):
    code, out, _ = run(
        capsys, "series", "--name", "class5_bivariate", "--n", "4", "--format", "csv"
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "n,k,value"
    assert "4,1,11" in lines and "4,4,1" in lines


def test_bijection_roundtrip(capsys):
    code, out, _ = run(capsys, "bijection", "--map", "phi", "--input", "3 1 4 2")
    assert (code, out.strip()) == (0, "NDNEE")
    code, out, _ = run(capsys, "bijection", "--inverse", "--path", "NDNEE")
    assert (code, out.strip()) == (0, "3 1 4 2")
    code, out, _ = run(capsys, "bijection", "--inverse", "--path", "NDE")
    assert (code, out.strip()) == (0, "3 1 2")


def test_class5_commands(capsys):
    code, out, _ = run(capsys, "class5", "--count", "9")
    assert (code, out.strip()) == (0, "20626")
    code, out, _ = run(capsys, "class5", "--indec", "7")
    assert (code, out.strip()) == (0, "707")
    code, out, _ = run(capsys, "class5", "--decompose", "3 1 4 2")
    payload = json.loads(out)
    assert payload["upper"] == [3, 4, 2]
    assert payload["key_values"] == [3, 4, 2]
    assert payload["a"] == 3 and payload["k"] == 3 and payload["i"] == 1


def test_recurrence_csv(capsys):
    code, out, _ = run(capsys, "recurrence", "--class", "pi2", "--n", "8")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "n,value"
    assert lines[-1] == "8,5026"


def test_oeis_offline(capsys):
    code, out, _ = run(capsys, "oeis", "--id", "A006318")
    assert code == 0
    assert out.splitlines()[0] == "0 1"
    assert out.splitlines()[3] == "3 22"


def test_byte_identical_repeat_invocations(capsys):
    args = ("sequence", "--classes", "all", "--n", "6", "--format", "json")
    _, first, _ = run(capsys, *args)
    _, second, _ = run(capsys, *args)
    assert first == second
    args = ("series", "--name", "class5_bivariate", "--n", "6", "--format", "json")
    _, first, _ = run(capsys, *args)
    _, second, _ = run(capsys, *args)
    assert first == second


def test_usage_errors_exit_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["nonsense"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["count", "--n", "4"])  # neither --class nor --patterns
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["class5"])  # none of the three actions
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["search", "--n", "9"])  # needs --limit-override
    assert exc.value.code == 2


def test_data_errors_exit_1(capsys):
    code, _, err = run(capsys, "oeis", "--id", "A000000")
    assert code == 1
    assert "A000000" in err
    code, _, err = run(capsys, "count", "--class", "pi1", "--n", "12")
    assert code == 1
    assert "limit" in err
    assert "--limit-override" in err


def test_bijection_rejects_non_ascii_digits(capsys):
    code, out, err = run(capsys, "bijection", "--input", "2 \u0661")
    assert (code, out) == (1, "")
    assert err.startswith("error:")


def test_verify_exit_codes(capsys, monkeypatch):
    from weaksort import acceptance

    monkeypatch.setattr(acceptance, "CRITERIA", ((("stub"), lambda: None),))
    code, out, _ = run(capsys, "verify")
    assert code == 0
    assert out.startswith("PASS")

    def broken():
        raise AssertionError("broken on purpose")

    monkeypatch.setattr(acceptance, "CRITERIA", ((("stub"), broken),))
    code, out, _ = run(capsys, "verify")
    assert code == 1
    assert "FAIL" in out


def test_guarded_n_with_override(capsys):
    code, out, _ = run(
        capsys, "count", "--patterns", "1 2; 2 1", "--n", "12", "--limit-override"
    )
    assert (code, out.strip()) == (0, "0")
