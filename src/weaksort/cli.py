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
--format table|json, because its report has no csv form.
OEIS terms come only from the four bundled b-files; no command reaches the
network or writes a file.

Size policy: the three commands that enumerate permutations (count,
sequence, search) refuse an --n above SIZE_LIMITS with exit 2 unless
--limit-override is given, because their cost grows with the counting
sequence, which may be factorial.  This is the only size check; the library
takes n as given.  series, recurrence, class5 and bijection have polynomial
cost and no limit.  count, sequence and search count their last two lengths,
and verify runs its criteria, in one forked child per CPU this process may
run on (`weaksort._fork`); the output does not depend on the number.
"""
from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from typing import Sequence

from . import _fork, acceptance, class5, counting, oeis, recurrence, schroder, series
from .perms import (
    TRIPLES,
    format_perm,
    parse_decimal,
    parse_pattern_set,
    parse_perm,
)

#: largest --n each enumerating command runs without --limit-override
SIZE_LIMITS = {"count": 10, "sequence": 10, "search": 8}


def _usage(message: str) -> "SystemExit":
    print(f"usage error: {message}", file=sys.stderr)
    return SystemExit(2)


def _emit_terms(name: str, pairs: list[tuple[int, int]], fmt: str) -> None:
    if fmt == "table":
        for n, v in pairs:
            print(n, v)
    elif fmt == "csv":
        print("n,value")
        for n, v in pairs:
            print(f"{n},{v}")
    else:
        print(json.dumps({"name": name, "terms": [v for _, v in pairs]}))


def _resolve_target(text: str, nmax: int) -> tuple[int, ...]:
    """
    --target accepts an OEIS id (bundled fixture) or comma-separated ints.
    Every set of patterns of length >= 2 has exactly one avoider of length
    0 and one of length 1, so a target that does not start 1, 1 is indexed
    from another offset and is rejected rather than matched against nothing.
    """
    if text.startswith("A"):
        seq = oeis.fetch(text)
        head, terms = tuple(seq.terms[:2]), seq.prefix(nmax + 1)
    else:
        terms = tuple(parse_decimal(tok) for tok in text.replace(",", " ").split())
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
    seq = counting.counting_sequence(patterns, args.n, workers=_fork.cpus())
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
    seqs = counting.counting_sequences(
        [TRIPLES[cid] for cid in classes], args.n, workers=_fork.cpus()
    )
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
    report = counting.wilf_search(args.n, target, workers=_fork.cpus())
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
        triples = [
            (n, k, f.coefficient(n, k))
            for n in range(f.order + 1)
            for k in range(len(f.coeffs[n]))
        ]
        if args.format == "json":
            print(
                json.dumps(
                    {
                        "name": args.name,
                        "terms": [[n, k, c] for n, k, c in triples if c],
                    }
                )
            )
        elif args.format == "csv":
            print("n,k,value")
            for n, k, c in triples:
                if c:
                    print(f"{n},{k},{c}")
        else:
            for n, k, c in triples:
                if c:
                    print(n, k, c)
        return 0
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
        print(
            json.dumps(
                {
                    "perm": format_perm(d.perm),
                    "upper": d.upper,
                    "lower": d.lower,
                    "upper_head": d.upper_head,
                    "upper_tail": d.upper_tail,
                    "lower_tail": d.lower_tail,
                    "key_positions": d.key_positions,
                    "key_values": d.key_values,
                    "blocks": d.blocks,
                    "a": d.a,
                    "k": d.k,
                    "i": d.i,
                },
                sort_keys=True,
            )
        )
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
    p.add_argument("--n", type=int, required=True)
    _add_format(p)
    p.set_defaults(func=_cmd_count)

    p = sub.add_parser("sequence", help="counting sequences of the five classes")
    p.add_argument(
        "--classes",
        default="all",
        help="'all' or a comma list of distinct classes like pi1,pi4",
    )
    p.add_argument("--n", type=int, default=8)
    _add_format(p)
    p.set_defaults(func=_cmd_sequence)

    p = sub.add_parser("search", help="classify all 2024 triples by counting sequence")
    p.add_argument("--target", default="A111279", help="OEIS id or comma-separated terms")
    p.add_argument("--n", type=int, default=8, help="match counts for 0..n (default 8)")
    p.add_argument(
        "--format", choices=("table", "json"), default="table",
        help="output format (default %(default)s)",
    )
    p.set_defaults(func=_cmd_search)

    p = sub.add_parser("series", help="coefficients of a catalog generating function")
    p.add_argument("--name", required=True, choices=series.CATALOG_NAMES)
    p.add_argument("--n", type=int, default=20, help="truncation order (default 20)")
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
    chosen.add_argument("--count", type=int)
    chosen.add_argument("--decompose", help="permutation in one-line notation")
    chosen.add_argument("--indec", type=int)
    p.set_defaults(func=_cmd_class5)

    p = sub.add_parser("recurrence", help="counting sequence via the table recurrence")
    p.add_argument("--class", dest="cls", required=True, choices=recurrence.CLASS_IDS)
    p.add_argument("--n", type=int, required=True)
    _add_format(p, default="csv")
    p.set_defaults(func=_cmd_recurrence)

    p = sub.add_parser("oeis", help="terms of a bundled OEIS sequence")
    p.add_argument("--id", required=True)
    _add_format(p)
    p.set_defaults(func=_cmd_oeis)

    p = sub.add_parser("verify", help="run the full verification suite")
    p.set_defaults(func=_cmd_verify)

    for cmd, limit in SIZE_LIMITS.items():
        sub.choices[cmd].add_argument(
            "--limit-override", action="store_true", help=f"allow --n above {limit}"
        )
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    limit = SIZE_LIMITS.get(args.command)
    if limit is not None and args.n > limit and not args.limit_override:
        raise _usage(
            f"{args.command} --n {args.n} exceeds the size limit {limit}; "
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
