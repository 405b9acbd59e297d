"""Command-line surface: formats, determinism, exit codes, imports."""
import fnmatch
import itertools
import json
import os
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import weaksort
from weaksort import cli, counting, series
from weaksort.cli import main

#: the package's source root, for child interpreters
SRC = str(Path(weaksort.__file__).resolve().parents[1])
README = Path(__file__).resolve().parents[1] / "README.md"


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


@pytest.mark.parametrize(
    "target,field",
    [
        pytest.param(f"1,1,2,6,{term},79,309", 5, id=term)
        for term in ["2_1", "\uff121", "+21"]
    ]
    + [
        pytest.param("1,1,2,,21,79,309", 4, id="empty-field"),
        pytest.param(",1,1,2,6", 1, id="leading-comma"),
        pytest.param("1,1,2,6,", 5, id="trailing-comma"),
        pytest.param("1 1 2 6 21", 1, id="blank-separated"),
        pytest.param("1,1,2,6,-21,79,309", None, id="negative"),
    ],
)
def test_search_rejects_non_ascii_digit_target_terms(capsys, target, field):
    # each comma-separated field is one term of ASCII digits; an empty field
    # is not dropped, since that would shift every later term.  A field that
    # does not parse is named by the target and its 1-based number
    code, out, err = run(capsys, "search", "--target", target, "--n", "6")
    assert (code, out) == (1, "")
    assert err.startswith("error:")
    if field is None:
        assert err == f"error: target {target} has a negative term\n", err
    else:
        assert err.startswith(f"error: target {target}: field {field} is not an integer"), err


@pytest.mark.parametrize("target", ["A006318", "1,2,6,22,90,394,1806"])
def test_search_rejects_targets_not_starting_1_1(capsys, target):
    # the Schroder numbers are indexed by size, not by permutation length
    code, out, err = run(capsys, "search", "--target", target, "--n", "6")
    assert (code, out) == (1, "")
    assert err.startswith("error:")
    assert target in err and "offset" in err


@pytest.mark.parametrize(
    "target,message",
    [
        ("A111279", None),
        ("A006318", "starts at length 1, not 0"),
        ("A026671", "starts at length 1, not 0"),
        ("A060693", "is not indexed by permutation length"),
    ],
)
def test_search_takes_only_fixtures_indexed_from_length_0(capsys, target, message):
    # A026671 and the triangle A060693 start 1, 1 too, so the head of the
    # terms cannot tell them apart; each fixture's recorded first length can
    code, out, err = run(capsys, "search", "--target", target, "--n", "6")
    if message is None:
        assert code == 0 and "matches 5" in out
    else:
        assert (code, out) == (1, "")
        assert err.startswith(f"error: target {target} {message}"), err


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
    # the nonzero coefficients of x^n y^k in each format, the bytes pinned;
    # at order 0 there is none, and csv still prints its header
    rows = [(1, 1, 1), (2, 1, 1), (2, 2, 1), (3, 1, 3), (3, 2, 2), (3, 3, 1)]
    want = {
        ("3", "table"): "".join(f"{n} {k} {c}\n" for n, k, c in rows),
        ("3", "csv"): "n,k,value\n" + "".join(f"{n},{k},{c}\n" for n, k, c in rows),
        ("3", "json"): '{"name": "class5_bivariate", "terms": [[1, 1, 1], '
        '[2, 1, 1], [2, 2, 1], [3, 1, 3], [3, 2, 2], [3, 3, 1]]}\n',
        ("0", "table"): "",
        ("0", "csv"): "n,k,value\n",
        ("0", "json"): '{"name": "class5_bivariate", "terms": []}\n',
    }
    for (n, fmt), text in want.items():
        argv = ("series", "--name", "class5_bivariate", "--n", n, "--format", fmt)
        assert run(capsys, *argv)[:2] == (0, text), (n, fmt)


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
    # the same bytes in every case.  At their default size no command's
    # split level holds two chunks of MIN_CHUNK prefixes, so none forks on
    # three CPUs; with every level split, one CPU, three, and a platform
    # that cannot read its CPU set: a child for each CPU when there are
    # several, else none
    forks = []
    real_fork = os.fork

    def fork():
        pid = real_fork()
        if pid:
            forks.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", fork)
    outputs = []
    cases = ((counting.MIN_CHUNK, {0, 1, 2}, 0), (1, {0}, 0), (1, {0, 1, 2}, 3), (1, None, 0))
    for min_chunk, cpus, children in cases:
        monkeypatch.setattr(counting, "MIN_CHUNK", min_chunk)
        if cpus is None:
            monkeypatch.delattr(os, "sched_getaffinity")
        else:
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid, cpus=cpus: cpus)
        forks.clear()
        outputs.append(run(capsys, *argv))
        assert len(forks) == children, (min_chunk, cpus)
    assert outputs[0][0] == 0
    assert outputs[1:] == outputs[:1] * 3


#: each integer option, after the options its command needs besides, and
#: what the command says of -1.  Every one of them is bounded
INTEGER_OPTIONS = [
    (["count", "--class", "pi1", "--n"], "nmax must be >= 0"),
    (["sequence", "--n"], "nmax must be >= 0"),
    (["search", "--n"], "nmax must be >= 6 for a meaningful search"),
    (["series", "--name", "main", "--n"], "order must be >= 0"),
    (["recurrence", "--class", "pi1", "--n"], "nmax must be >= 0"),
    (["class5", "--count"], "n must be >= 0"),
    (["class5", "--indec"], "n must be >= 1"),
]

#: (argv, exit code, stderr) of inputs that the command line refuses, with
#: nothing on stdout; * in stderr stands for any text.  README's exit-code
#: table mirrors it and test_size_limit_exits_2
CONTRACT = [
    # argparse's usage errors: an unknown subcommand, option or choice
    ([], 2, "usage: *"),
    (["nonsense"], 2, "usage: *"),
    # bundled fixtures are the only source
    (["oeis", "--id", "A006318", "--online"], 2, "usage: *"),
    (["oeis", "--id", "A006318", "--offline"], 2, "usage: *"),
    (["search", "--n", "6", "--format", "csv"], 2, "usage: *"),  # no csv form
    (["bijection", "--map", "psi", "--input", "1"], 2, "usage: *"),  # only phi
    # a required option left out
    (["count", "--n", "4"], 2, "usage: *"),  # neither --class nor --patterns
    (["count", "--class", "pi1"], 2, "usage: *"),
    (["series", "--n", "3"], 2, "usage: *"),
    (["recurrence", "--n", "3"], 2, "usage: *"),
    (["recurrence", "--class", "pi1"], 2, "usage: *"),
    (["oeis"], 2, "usage: *"),
    (["class5"], 2, "usage: *"),  # none of the three actions
    # two options that exclude each other; --input and --path belong to
    # opposite directions
    (["class5", "--count", "3", "--indec", "3"], 2, "usage: *"),
    (["count", "--class", "pi1", "--patterns", "1 2", "--n", "3"], 2, "usage: *"),
    (["bijection", "--inverse", "--path", "NDE", "--input", "9 9"], 2, "usage: *"),
    (["bijection", "--input", "3 1 4 2", "--path", "XYZ"], 2, "usage: *"),
    # the command's own usage errors: a bijection runs one direction, and
    # sequence prints one row per class
    (["bijection"], 2, "usage error: *"),
    (["bijection", "--inverse", "--input", "3 1 4 2"], 2, "usage error: *"),
    (["bijection", "--path", "NDE"], 2, "usage error: *"),
    *((["sequence", "--classes", "pi1, pi1", "--n", "3", "--format", fmt], 2,
       "usage error: class 'pi1' given twice\n") for fmt in ("table", "csv", "json")),
    # int() takes each of these; an integer option takes only an optional
    # minus sign and ASCII digits, as a b-file line does
    *(([*option, text], 2, f"usage: *\nweaksort {option[0]}: error: argument {option[-1]}: "
       f"invalid parse_int value: {text!r}\n")
      for option, _ in INTEGER_OPTIONS for text in ("1_0", "\u0663", "+5", " 5")),
    # -1 is an integer, and each command rejects it
    *(([*option, "-1"], 1, f"error: {message}\n") for option, message in INTEGER_OPTIONS),
    # the message of a KeyError, without the quotes of its repr
    (["oeis", "--id", "A000000"], 1, "error: no offline fixture for A000000; "
     "bundled: A111279, A006318, A026671, A060693\n"),
    # an empty list would count every permutation; the library still takes
    # an empty set (test_enumerate_counts_match_trivial_cases)
    *((["count", "--patterns", text, "--n", "4"], 1, "error: no pattern in *")
      for text in ("", ";", "  ", " ; ;")),
    (["bijection", "--input", "2 \u0661"], 1, "error: *"),
]


@pytest.mark.parametrize(
    "argv, code, err", CONTRACT, ids=[shlex.join(["weaksort", *row[0]]) for row in CONTRACT]
)
def test_contract(capsys, argv, code, err):
    # a usage error raises SystemExit; a rejected input is returned
    if code == 2:
        with pytest.raises(SystemExit) as exc:
            main(argv)
        got = exc.value.code
    else:
        got = main(argv)
    captured = capsys.readouterr()
    assert (got, captured.out) == (code, "")
    assert fnmatch.fnmatchcase(captured.err, err), captured.err


@pytest.mark.parametrize("argv, limit", [
    pytest.param(["count", "--patterns", "1 2; 2 1", "--n", "11"], 10, id="count-patterns"),
    pytest.param(["count", "--class", "pi1", "--n", "12"], 10, id="count-class"),
    pytest.param(["sequence", "--n", "11"], 10, id="sequence"),
    pytest.param(["search", "--n", "9"], 8, id="search"),
    pytest.param(["series", "--name", "main", "--n", "1001"], 1000, id="series"),
    pytest.param(["series", "--name", "class5_bivariate", "--n", "301"], 300, id="series-bivariate"),
    pytest.param(["recurrence", "--class", "pi2", "--n", "1001"], 1000, id="recurrence"),
    pytest.param(["class5", "--count", "301"], 300, id="class5-count"),
    pytest.param(["class5", "--indec", "10000"], 300, id="class5-indec"),
])
def test_size_limit_exits_2(capsys, argv, limit):
    # the rows of the contract that README's size table lists
    with pytest.raises(SystemExit) as exc:
        main(argv)
    captured = capsys.readouterr()
    assert (exc.value.code, captured.out) == (2, "")
    assert captured.err == (
        f"usage error: {argv[0]} {argv[-2]} {argv[-1]} exceeds the size limit {limit}; "
        "pass --limit-override\n"
    )


def test_size_limits_agree_with_readme_and_help(capsys):
    # README's size table and each --limit-override help name the limits
    # that main enforces
    lines = README.read_text(encoding="utf-8").splitlines()
    head = next(i for i, line in enumerate(lines) if line.startswith("| command "))
    listed = set()
    for line in itertools.takewhile(lambda line: line.startswith("|"), lines[head + 2 :]):
        command, option, limit = (cell.strip(" `") for cell in line.strip("|").split("|"))
        listed.add((command, option, int(limit)))
    limits = {
        (command, option, limit)
        for command, (options, limit) in cli.SIZE_LIMITS.items()
        for option in options
    }
    assert listed == limits | {("series --name class5_bivariate", "--n", cli._BIVARIATE_LIMIT)}
    for command, (options, limit) in cli.SIZE_LIMITS.items():
        with pytest.raises(SystemExit):
            main([command, "--help"])
        text = " ".join(capsys.readouterr().out.split())
        if command == "series":
            limit = f"{limit} ({cli._BIVARIATE_LIMIT} for class5_bivariate)"
        assert f"--limit-override allow {' or '.join(options)} above {limit}" in text, text


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


def test_guarded_n_with_override(capsys, monkeypatch):
    code, out, _ = run(
        capsys, "count", "--patterns", "1 2; 2 1", "--n", "12", "--limit-override"
    )
    assert (code, out.strip()) == (0, "0")
    # one past the limit, against the series run within it
    code, out, _ = run(capsys, "recurrence", "--class", "pi1", "--n", "1001", "--limit-override")
    assert code == 0
    want = series.gf_catalog("main", 1001).coeffs[-1]
    assert out.splitlines()[-1] == f"1001,{want}"
    # class5_bivariate's own limit is lifted too: the catalog is asked for
    # order 301, and a stand-in answers with order 3 rather than build it
    asked = []
    real = series.gf_catalog

    def gf_catalog(name, order):
        asked.append((name, order))
        return real(name, 3)

    monkeypatch.setattr(series, "gf_catalog", gf_catalog)
    argv = ("series", "--name", "class5_bivariate", "--n", "301", "--limit-override")
    assert run(capsys, *argv)[0] == 0
    assert asked == [("class5_bivariate", 301)]
    monkeypatch.undo()
    # a permutation is its own size, so --decompose has no limit
    code, out, _ = run(capsys, "class5", "--decompose", " ".join(map(str, range(400, 0, -1))))
    assert code == 0 and out.startswith("{")


def test_count_refuses_n_past_the_byte_columns(capsys):
    # an enumeration level holds its entries in bytes: 256 is the longest
    # count, and 257 is an error, not a wrong count
    code, out, _ = run(capsys, "count", "--patterns", "2 1", "--n", "256", "--limit-override")
    assert (code, out) == (0, "1\n")
    code, out, err = run(capsys, "count", "--patterns", "2 1", "--n", "257", "--limit-override")
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and "256" in err, err


def _loaded_by(setup: str) -> set[str]:
    """The modules loaded once setup has run in a fresh interpreter, so
    modules the test run already imported do not count."""
    out = subprocess.run(
        [sys.executable, "-c", f"import sys; {setup}print(' '.join(sorted(sys.modules)))"],
        capture_output=True, text=True, check=True,
        env={"PYTHONPATH": SRC},
    ).stdout
    return set(out.split())


def test_cli_import_loads_no_network_module():
    cli = _loaded_by("import weaksort.cli; weaksort.cli.build_parser(); ")
    assert "weaksort.cli" in cli
    network = {"socket", "ssl", "http.client", "urllib.request"}
    assert (cli - _loaded_by("")) & network == set()


def test_cli_start_up_loads_no_dataclasses_or_inspect():
    # every command pays for its imports: dataclasses alone pulls in
    # inspect, ast, dis and tokenize, about 10 ms of each start
    cli = _loaded_by("from weaksort import cli; cli.build_parser(); ")
    assert "weaksort.cli" in cli
    assert (cli - _loaded_by("")) & {"dataclasses", "inspect"} == set()
