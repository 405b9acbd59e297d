"""Command-line surface: formats, determinism, exit codes, imports."""
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import weaksort
from weaksort.cli import main

#: the package's source root, for child interpreters
SRC = str(Path(weaksort.__file__).resolve().parents[1])


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


@pytest.mark.parametrize("fmt", ["table", "json"])
def test_search_reports_first_divergence_on_stderr(capsys, fmt):
    # every orbit agrees through n = 4; 296 first differ at n = 5 and 16 at
    # n = 6.  The line is on stderr only, whatever the format
    code, out, err = run(capsys, "search", "--n", "8", "--format", fmt)
    assert code == 0
    assert err == (
        "orbits first diverging from the target: n=5: 296, n=6: 16; "
        "5 match through n=8\n"
    )
    assert "diverg" not in out


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
    assert code == 0
    assert out == (
        '{"a": 3, "blocks": [[1]], "i": 1, "k": 3, "key_positions": [1, 3, 4], '
        '"key_values": [3, 4, 2], "lower": [1], "lower_tail": [1], '
        '"perm": "3 1 4 2", "upper": [3, 4, 2], "upper_head": [3, 4], '
        '"upper_tail": [2]}\n'
    )
    worked = "3 5 1 6 10 2 13 18 4 7 14 15 17 16 8 11 12 9"
    code, out, _ = run(capsys, "class5", "--decompose", worked)
    assert code == 0
    assert out == (
        '{"a": 10, "blocks": [[3, 5, 1, 6], [2], [4, 7], [8]], "i": 4, "k": 6, '
        '"key_positions": [5, 7, 8, 11, 16, 18], '
        '"key_values": [10, 13, 18, 14, 11, 9], '
        '"lower": [3, 5, 1, 6, 2, 4, 7, 8], "lower_tail": [2, 4, 7, 8], '
        f'"perm": "{worked}", '
        '"upper": [10, 13, 18, 14, 15, 17, 16, 11, 12, 9], '
        '"upper_head": [10, 13, 18], "upper_tail": [14, 15, 17, 16, 11, 12, 9]}\n'
    )


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


def test_main_in_one_process_equals_separate_runs(capsys):
    # one parser serves every main call of a process; calls around usage
    # errors (a required group left out, an unknown choice, the size limit)
    # print and exit as each command does in an interpreter of its own
    argvs = [
        ["count", "--class", "pi5", "--n", "6", "--format", "json"],
        ["count", "--n", "4"],
        ["count", "--patterns", "3 2 1 4; 4 2 1 3", "--n", "5"],
        ["search", "--n", "6", "--format", "csv"],
        ["search", "--n", "9"],
        ["sequence", "--classes", "pi2,pi4", "--n", "5", "--format", "csv"],
    ]
    together = []
    for argv in argvs:
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        together.append((code, capsys.readouterr().out))
    separate = [
        subprocess.run(
            [sys.executable, "-m", "weaksort.cli", *argv],
            capture_output=True, text=True, timeout=120, env={"PYTHONPATH": SRC},
        )
        for argv in argvs
    ]
    assert together == [(done.returncode, done.stdout) for done in separate]
    assert [code for code, _ in together] == [0, 2, 0, 2, 2, 0]


@pytest.mark.parametrize(
    "argv",
    [["search", "--n", "8"], ["sequence", "--classes", "all", "--n", "9"], ["count", "--class", "pi3", "--n", "9"]],
    ids=["search", "sequence", "count"],
)
def test_enumerating_commands_fork_one_process_per_cpu(capsys, monkeypatch, argv):
    # one CPU, three, and a platform that cannot read its CPU set: the same
    # bytes, with a child for each CPU when there are several, else none
    forks = []
    real_fork = os.fork

    def fork():
        pid = real_fork()
        if pid:
            forks.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", fork)
    outputs = []
    for cpus, children in (({0}, 0), ({0, 1, 2}, 3), (None, 0)):
        if cpus is None:
            monkeypatch.delattr(os, "sched_getaffinity")
        else:
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid, cpus=cpus: cpus)
        forks.clear()
        outputs.append(run(capsys, *argv))
        assert len(forks) == children, cpus
    assert outputs[0][0] == 0
    assert outputs[1:] == outputs[:1] * 2


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
    for flag in ("--online", "--offline"):  # bundled fixtures are the only source
        with pytest.raises(SystemExit) as exc:
            main(["oeis", "--id", "A006318", flag])
        assert exc.value.code == 2
    for fmt in ("table", "csv", "json"):  # one row per class
        with pytest.raises(SystemExit) as exc:
            main(["sequence", "--classes", "pi1, pi1", "--n", "3", "--format", fmt])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "'pi1' given twice" in captured.err
    with pytest.raises(SystemExit) as exc:
        main(["search", "--n", "6", "--format", "csv"])  # no csv form
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["class5", "--count", "3", "--indec", "3"])  # two actions
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["count", "--class", "pi1", "--patterns", "1 2", "--n", "3"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["bijection", "--map", "psi", "--input", "1"])  # only phi
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        # --input and --path belong to opposite directions
        main(["bijection", "--inverse", "--path", "NDE", "--input", "9 9"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["bijection", "--input", "3 1 4 2", "--path", "XYZ"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["bijection", "--inverse", "--input", "3 1 4 2"])  # no --path
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["bijection", "--path", "NDE"])  # no --inverse
    assert exc.value.code == 2
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize(
    "argv, limit",
    [
        (["count", "--patterns", "1 2; 2 1", "--n", "11"], 10),
        (["count", "--class", "pi1", "--n", "12"], 10),
        (["sequence", "--n", "11"], 10),
        (["search", "--n", "9"], 8),
    ],
    ids=["count-patterns", "count-class", "sequence", "search"],
)
def test_size_limit_exits_2(capsys, argv, limit):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    captured = capsys.readouterr()
    assert exc.value.code == 2
    assert captured.out == ""
    assert captured.err == (
        f"usage error: {argv[0]} --n {argv[-1]} exceeds the size limit {limit}; "
        "pass --limit-override\n"
    )


def test_data_errors_exit_1(capsys):
    code, out, err = run(capsys, "oeis", "--id", "A000000")
    assert (code, out) == (1, "")
    # the message of a KeyError, without the quotes of its repr
    assert err == (
        "error: no offline fixture for A000000; "
        "bundled: A111279, A006318, A026671, A060693\n"
    )
    code, out, err = run(capsys, "series", "--name", "main", "--n", "-1")
    assert (code, out, err) == (1, "", "error: order must be >= 0\n")


@pytest.mark.parametrize(
    "text", ["", ";", "  ", " ; ;"], ids=["empty", "semicolon", "blanks", "blank-parts"]
)
def test_count_rejects_empty_pattern_list(capsys, text):
    # an empty list would count every permutation; the library still takes
    # an empty set (test_enumerate_counts_match_trivial_cases)
    code, out, err = run(capsys, "count", "--patterns", text, "--n", "4")
    assert (code, out) == (1, "")
    assert err.startswith("error: no pattern in ")


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


@pytest.mark.parametrize(
    "argv",
    [["sequence", "--classes", "all", "--n", "6", "--format", "csv"], ["verify"]],
    ids=["sequence", "verify"],
)
def test_closed_stdout_exits_1_quietly(argv):
    # the child announces itself on one line; the test reads that line and
    # closes the pipe before it lets the command write
    script = (
        "import sys\n"
        "print('ready', flush=True)\n"
        "sys.stdin.readline()\n"
        "from weaksort.cli import main\n"
        "sys.exit(main(sys.argv[1:]))\n"
    )
    proc = subprocess.Popen(
        [sys.executable, "-c", script, *argv],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, env={"PYTHONPATH": SRC},
    )
    assert proc.stdout.readline() == "ready\n"
    proc.stdout.close()
    _, err = proc.communicate("\n", timeout=120)
    assert (proc.returncode, err) == (1, "")


def test_guarded_n_with_override(capsys):
    code, out, _ = run(
        capsys, "count", "--patterns", "1 2; 2 1", "--n", "12", "--limit-override"
    )
    assert (code, out.strip()) == (0, "0")


def test_cli_import_loads_no_network_module():
    # a fresh interpreter, so modules the test run already imported do not count
    probe = "import sys; {}print(' '.join(sorted(sys.modules)))"

    def loaded(setup):
        out = subprocess.run(
            [sys.executable, "-c", probe.format(setup)],
            capture_output=True, text=True, check=True,
            env={"PYTHONPATH": SRC},
        ).stdout
        return set(out.split())

    bare = loaded("")
    cli = loaded("import weaksort.cli; weaksort.cli.build_parser(); ")
    assert "weaksort.cli" in cli
    network = {"socket", "ssl", "http.client", "urllib.request"}
    assert (cli - bare) & network == set()
