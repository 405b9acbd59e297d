"""
Command-line surface.

    weaksort count      --class pi5 --n 6
    weaksort sequence   --classes all --n 8
    weaksort search     --target A111279 --n 8
    weaksort series     --name main --n 20 --format csv
    weaksort bijection  --map phi --input "3 1 4 2"
    weaksort bijection  --inverse --path "NDE"
    weaksort class5     --count 9 | --decompose "3 1 4 2" | --indec 7
    weaksort recurrence --class pi1 --n 20
    weaksort oeis       --id A006318
    weaksort verify

Exit codes: 0 success, 1 a verification check failed, the input was
rejected or stdout was closed before the output was written (`| head`),
2 usage error.
Identical invocations produce byte-identical output.  count, sequence,
series, recurrence and oeis take --format table|csv|json; search takes
--format table|json, because its report has no csv form.  search --target
takes an OEIS id whose first term counts length 0 (`oeis.FIRST_LENGTH`) or
one term per comma-separated field, e.g. 1,1,2,6,21.
Every integer given, option or entry, is an optional minus sign and ASCII
digits (`perms.parse_int`).
OEIS terms come only from the four bundled b-files; no command reaches the
network or writes a file.

Size policy: each option that SIZE_LIMITS names refuses a value above
its limit there, or above _BIVARIATE_LIMIT for series --name
class5_bivariate, with exit 2 and nothing on stdout unless
--limit-override is given.  The three commands that enumerate
permutations cost as much as the counting sequence, which may be
factorial; an --n above 256 exits 1 with an error: line,
--limit-override or not, since enumeration holds a permutation's entries
in bytes and the library refuses it (`levels.MAX_ENTRY`).  The other
three have polynomial cost, and their limits lie at or above every size
that the tests, CI and the benchmark run.  bijection and class5
--decompose have no limit: they read one permutation or path, written
out in full.  verify runs its criteria in one forked child per CPU this
process may run on (`weaksort._fork`).  count, sequence and search count
their last two lengths in such children only when the level they split
holds at least `counting.MIN_CHUNK` prefixes per child, which the five
classes first reach past the size limits, at n = 11.  The output does
not depend on the number.
"""
from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from typing import Sequence

from . import acceptance, class5, counting, oeis, recurrence, schroder, series
from .perms import TRIPLES, format_perm, parse_int, parse_pattern_set, parse_perm

#: the options each command bounds, and the largest value they take
#: without --limit-override
SIZE_LIMITS = {
    "count": (("--n",), 10),
    "sequence": (("--n",), 10),
    "search": (("--n",), 8),
    "series": (("--n",), 1000),
    "recurrence": (("--n",), 1000),
    "class5": (("--count", "--indec"), 300),
}
#: `series --name class5_bivariate`'s own limit: its cost is cubic in the
#: order, one series product per column
_BIVARIATE_LIMIT = 300


def _usage(message: str) -> "SystemExit":
    print(f"usage error: {message}", file=sys.stderr)
    return SystemExit(2)


def _emit_terms(
    name: str, rows: list[tuple[int, ...]], fmt: str, index: tuple[str, ...] = ("n",)
) -> None:
    """Print rows of index entries and a value, the index columns named by
    index; the JSON terms are the bare values under one index, whole rows
    under more."""
    if fmt == "table":
        for row in rows:
            print(*row)
    elif fmt == "csv":
        print(",".join((*index, "value")))
        for row in rows:
            print(",".join(map(str, row)))
    else:
        terms = [row[-1] for row in rows] if len(index) == 1 else list(map(list, rows))
        print(json.dumps({"name": name, "terms": terms}))


def _resolve_target(text: str, nmax: int) -> tuple[int, ...]:
    """
    --target accepts an OEIS id (bundled fixture) or one count in each
    comma-separated field; an empty field would shift every later term.
    An id is taken only if its first term counts length 0
    (`oeis.FIRST_LENGTH`).  Every set of patterns of length >= 2 has
    exactly one avoider of length 0 and one of length 1, so terms that do
    not start 1, 1 are indexed from another offset and are rejected rather
    than matched against nothing.
    """
    if text.startswith("A"):
        seq = oeis.fetch(text)
        first = oeis.FIRST_LENGTH[seq.id]
        if first is None:
            raise ValueError(f"target {text} is not indexed by permutation length")
        if first != 0:
            raise ValueError(
                f"target {text} starts at length {first}, not 0; its offset does "
                "not match permutation length"
            )
        return seq.prefix(nmax + 1)
    read = []
    for number, field in enumerate(text.split(","), 1):
        try:
            read.append(parse_int(field))
        except ValueError as exc:
            raise ValueError(f"target {text}: field {number} is {exc}") from None
    terms = tuple(read)
    if min(terms) < 0:
        raise ValueError(f"target {text} has a negative term")
    head = terms[:2]
    if head != (1, 1)[: len(head)]:
        raise ValueError(
            f"target {text} starts {', '.join(map(str, head))}, but avoider counts "
            "start 1, 1 at lengths 0 and 1; its offset does not match "
            "permutation length"
        )
    return terms


def _class_list(selector: str) -> list[str]:
    if selector == "all":
        return list(TRIPLES)
    out = []
    for token in selector.split(","):
        token = token.strip()
        if token not in TRIPLES:
            raise _usage(f"unknown class {token!r}; choose from {list(TRIPLES)}")
        if token in out:
            raise _usage(f"class {token!r} given twice")
        out.append(token)
    return out


def _cmd_count(args: argparse.Namespace) -> int:
    patterns = TRIPLES[args.cls] if args.cls else parse_pattern_set(args.patterns)
    seq = counting.counting_sequence(patterns, args.n)
    label = args.cls or "custom"
    if args.format == "json":
        print(json.dumps({"name": label, "n": args.n, "count": seq[args.n]}))
    elif args.format == "csv":
        print("n,value")
        print(f"{args.n},{seq[args.n]}")
    else:
        print(seq[args.n])
    return 0


def _cmd_sequence(args: argparse.Namespace) -> int:
    classes = _class_list(args.classes)
    seqs = counting.counting_sequences([TRIPLES[cid] for cid in classes], args.n)
    rows = dict(zip(classes, seqs))
    if args.format == "json":
        print(json.dumps(rows, sort_keys=True))
    elif args.format == "csv":
        print("class,n,value")
        for cid in classes:
            for n, v in enumerate(rows[cid]):
                print(f"{cid},{n},{v}")
    else:
        for cid in classes:
            print(cid, " ".join(str(v) for v in rows[cid]))
    return 0


def _cmd_search(args: argparse.Namespace) -> int:
    target = _resolve_target(args.target, args.n)
    report = counting.wilf_search(args.n, target)
    # the closest impostors go to stderr, so stdout is the same in both formats
    diverged = ", ".join(f"n={n}: {count}" for n, count in report.diverged) or "none"
    print(
        f"orbits first diverging from the target: {diverged}; "
        f"{len(report.matches)} match through n={report.nmax}",
        file=sys.stderr,
    )
    reps = ["; ".join(format_perm(t) for t in rep) for rep in report.matches]
    if args.format == "json":
        print(
            json.dumps(
                {
                    "target": list(report.target),
                    "nmax": report.nmax,
                    "orbits_examined": report.orbits_examined,
                    "triples_total": report.triples_total,
                    "matches": reps,
                },
                sort_keys=True,
            )
        )
    else:
        print(f"target  {' '.join(str(v) for v in report.target)}")
        print(f"orbits  {report.orbits_examined} (covering {report.triples_total} triples)")
        print(f"matches {len(report.matches)}")
        for rep in reps:
            print(f"  {rep}")
    return 0


def _cmd_series(args: argparse.Namespace) -> int:
    f = series.gf_catalog(args.name, args.n)
    if isinstance(f, series.BivariateSeries):
        rows = [
            (n, k, c) for n, row in enumerate(f.coeffs) for k, c in enumerate(row) if c
        ]
        _emit_terms(args.name, rows, args.format, index=("n", "k"))
    else:
        _emit_terms(args.name, list(enumerate(f.coeffs)), args.format)
    return 0


def _cmd_bijection(args: argparse.Namespace) -> int:
    if args.inverse:
        if args.path is None:
            raise _usage("bijection --inverse needs --path")
        path = schroder.validate_path(args.path)
        print(format_perm(schroder.path_to_perm(path)))
        return 0
    if args.path is not None:
        raise _usage("bijection --path needs --inverse")
    if args.input is None:
        raise _usage("bijection --map phi needs --input")
    print(schroder.perm_to_path(parse_perm(args.input)))
    return 0


def _cmd_class5(args: argparse.Namespace) -> int:
    if args.count is not None:
        print(class5.count_avoiders(args.count))
    elif args.indec is not None:
        print(class5.count_indecomposable(args.indec))
    else:
        d = class5.decompose(parse_perm(args.decompose))
        fields = {**d._asdict(), "perm": format_perm(d.perm)}
        print(json.dumps({**fields, "a": d.a, "k": d.k, "i": d.i}, sort_keys=True))
    return 0


def _cmd_recurrence(args: argparse.Namespace) -> int:
    seq = recurrence.count_via_recurrence(args.cls, args.n)
    _emit_terms(args.cls, list(enumerate(seq)), args.format)
    return 0


def _cmd_oeis(args: argparse.Namespace) -> int:
    seq = oeis.fetch(args.id)
    pairs = [(seq.offset + i, v) for i, v in enumerate(seq.terms)]
    _emit_terms(seq.id, pairs, args.format)
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    return 0 if acceptance.run_all() else 1


def _add_format(p: argparse.ArgumentParser, default: str = "table") -> None:
    p.add_argument(
        "--format", choices=("table", "csv", "json"), default=default,
        help="output format (default %(default)s)",
    )


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process and shared by every
    `main` call: parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="weaksort",
        description="pattern-avoidance enumeration for the five triples "
        "counted by the weak sorting numbers",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("count", help="|S_n(T)| for one class or pattern set")
    chosen = p.add_mutually_exclusive_group(required=True)
    chosen.add_argument("--class", dest="cls", choices=list(TRIPLES))
    chosen.add_argument("--patterns", help='semicolon-separated, e.g. "3 2 1 4; 4 2 1 3"')
    p.add_argument("--n", type=parse_int, required=True)
    _add_format(p)
    p.set_defaults(func=_cmd_count)

    p = sub.add_parser("sequence", help="counting sequences of the five classes")
    p.add_argument(
        "--classes",
        default="all",
        help="'all' or a comma list of distinct classes like pi1,pi4",
    )
    p.add_argument("--n", type=parse_int, default=8)
    _add_format(p)
    p.set_defaults(func=_cmd_sequence)

    p = sub.add_parser("search", help="classify all 2024 triples by counting sequence")
    p.add_argument(
        "--target", default="A111279", help="OEIS id, or one term per comma-separated field"
    )
    p.add_argument("--n", type=parse_int, default=8, help="match counts for 0..n (default 8)")
    p.add_argument(
        "--format", choices=("table", "json"), default="table",
        help="output format (default %(default)s)",
    )
    p.set_defaults(func=_cmd_search)

    p = sub.add_parser("series", help="coefficients of a catalog generating function")
    p.add_argument("--name", required=True, choices=series.CATALOG_NAMES)
    p.add_argument("--n", type=parse_int, default=20, help="truncation order (default 20)")
    _add_format(p)
    p.set_defaults(func=_cmd_series)

    p = sub.add_parser("bijection", help="permutation <-> Schroder path")
    p.add_argument("--map", default="phi", choices=("phi",))
    chosen = p.add_mutually_exclusive_group()
    chosen.add_argument("--input", help="permutation in one-line notation")
    chosen.add_argument("--path", help="path step string like NDE (with --inverse)")
    p.add_argument("--inverse", action="store_true")
    p.set_defaults(func=_cmd_bijection)

    p = sub.add_parser("class5", help="fifth-triple counts and decomposition")
    chosen = p.add_mutually_exclusive_group(required=True)
    chosen.add_argument("--count", type=parse_int)
    chosen.add_argument("--decompose", help="permutation in one-line notation")
    chosen.add_argument("--indec", type=parse_int)
    p.set_defaults(func=_cmd_class5)

    p = sub.add_parser("recurrence", help="counting sequence via the table recurrence")
    p.add_argument("--class", dest="cls", required=True, choices=recurrence.CLASS_IDS)
    p.add_argument("--n", type=parse_int, required=True)
    _add_format(p, default="csv")
    p.set_defaults(func=_cmd_recurrence)

    p = sub.add_parser("oeis", help="terms of a bundled OEIS sequence")
    p.add_argument("--id", required=True)
    _add_format(p)
    p.set_defaults(func=_cmd_oeis)

    p = sub.add_parser("verify", help="run the full verification suite")
    p.set_defaults(func=_cmd_verify)

    for cmd, (options, limit) in SIZE_LIMITS.items():
        limit = f"{limit} ({_BIVARIATE_LIMIT} for class5_bivariate)" if cmd == "series" else limit
        sub.choices[cmd].add_argument(
            "--limit-override", action="store_true",
            help=f"allow {' or '.join(options)} above {limit}",
        )
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    options, limit = SIZE_LIMITS.get(args.command, ((), None))
    if args.command == "series" and args.name == "class5_bivariate":
        limit = _BIVARIATE_LIMIT
    for option in options:
        # class5 --decompose leaves --count and --indec None
        value = getattr(args, option[2:])
        if value is not None and value > limit and not args.limit_override:
            raise _usage(
                f"{args.command} {option} {value} exceeds the size limit {limit}; "
                "pass --limit-override"
            )
    try:
        code = args.func(args)
        # flush here, so that a closed stdout is met inside the handler below
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader closed stdout (`| head`); point stdout at devnull, so the
        # interpreter's final flush of what is still buffered stays quiet
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 1
    except (ValueError, KeyError) as exc:
        # str() of a KeyError is the repr of its message, quotes included
        message = exc.args[0] if isinstance(exc, KeyError) and exc.args else exc
        print(f"error: {message}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
