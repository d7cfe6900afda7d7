"""Command line front end.

Subcommands: cf, gram, torsion, census, verify.  JSON lines are the
primary machine format (schema tag cmkit/1); census, cf, torsion and gram
also speak CSV via --format csv.  Exit codes: 0 verified/ok, 1
counterexample found, 2 bad input, 3 capacity exceeded.
"""

from __future__ import annotations

import argparse
import json
import sys
from contextlib import ExitStack, contextmanager

from . import census as census_mod
from .changemaker import ChangemakerVector
from .errors import CapacityError
from .graphs import orthogonal_basis
from .lattice import gram_matrix
from .linear import cf_expand, linear_gram
from .torsion import torsion_staircase

SCHEMA = "cmkit/1"

# The census CSV header, printed before the first record because a census
# may have none; tests tie it to the cells _census_row takes from to_dict.
_CSV_COLUMNS = (
    "rank,sigma,p,g,k,classification,linear_p,linear_q,torsion,exponents,"
    "theorem1_applicable,theorem1_verified"
)


def _dump(obj) -> str:
    return json.dumps(obj, separators=(",", ":"))


def _csv_row(values) -> str:
    """One CSV line: a list is space-joined, None is empty, and any other
    value is str(value)."""
    return ",".join(
        " ".join(map(str, v)) if isinstance(v, list) else "" if v is None else str(v)
        for v in values
    )


@contextmanager
def _sink(path):
    """A line writer to FILE, opened at the first line so that a request
    refused before it writes leaves FILE as it was; to stdout (print's
    file=None) without a path."""
    with ExitStack() as stack:
        fh = None

        def write(line: str) -> None:
            nonlocal fh
            if fh is None and path:
                fh = stack.enter_context(open(path, "w", encoding="utf-8"))
            print(line, file=fh)

        yield write


def _emit(args, out, payload: dict) -> None:
    """A one-object command's output: one cmkit/1 JSON line, or a CSV
    header of the payload's keys and one row."""
    if args.format == "csv":
        out(",".join(payload))
        out(_csv_row(payload.values()))
    else:
        out(_dump({"schema": SCHEMA, "command": args.command, **payload}))


def _header(args, out, **fields) -> None:
    out(_dump({"schema": SCHEMA, "kind": "header", "command": args.command, **fields}))


def _cmd_cf(args, out) -> int:
    _emit(args, out, {"p": args.p, "q": args.q, "cf": cf_expand(args.p, args.q)})
    return 0


def _cmd_gram(args, out) -> int:
    if args.linear:
        if len(args.values) != 2:
            raise ValueError("--linear expects exactly two values: p q")
        p, q = args.values
        payload = {"source": "linear", "p": p, "q": q, "gram": linear_gram(p, q)}
    else:
        gram = gram_matrix(orthogonal_basis(args.values))
        payload = {"source": "sigma", "sigma": args.values, "gram": gram}
    if args.format == "csv":
        for row in payload["gram"]:
            out(_csv_row(row))
    else:
        _emit(args, out, payload)
    return 0


def _cmd_torsion(args, out) -> int:
    cm = ChangemakerVector(args.sigma)  # ValueError unless a changemaker
    t = list(torsion_staircase(cm))  # ValueError unless sigma_0 = 1
    _emit(args, out, {"sigma": list(cm.sigma), "p": cm.p, "g": len(t) - 1, "t": t})
    return 0


def _census_row(rec) -> str:
    """A census record's CSV row: its to_dict() without kind, with linear
    split into its p and q cells."""
    cells = []
    for name, value in rec.to_dict().items():
        if name == "linear":
            cells += value or (None, None)
        elif name != "kind":
            cells.append(value)
    return _csv_row(cells)


def _cmd_census(args, out) -> int:
    records = census_mod.run_census(args.max_rank, sigma_n=args.sigma_n)
    acc = census_mod.SummaryAccumulator()
    csv = args.format == "csv"
    if csv:
        out(_CSV_COLUMNS)
    else:
        _header(args, out, max_rank=args.max_rank, sigma_n=args.sigma_n)
    for rec in records:
        acc.add(rec)
        if not args.quiet:
            out(_census_row(rec) if csv else _dump(rec.to_dict()))
    summary = acc.as_dict()
    if csv:
        out(f"# records={summary['records']}")
        for name, count in summary["counts"].items():
            out(f"# {name}={count}")
        out(f"# lemma5_holds={str(summary['lemma5_holds']).lower()}")
        out(f"# theorem1_holds={str(summary['theorem1_holds']).lower()}")
    else:
        out(_dump(summary))
    return 0


def _cmd_verify(args, out) -> int:
    census_mod.check_rank_cap(args.max_rank)  # refuse before the header
    _header(args, out, claim=args.claim, max_rank=args.max_rank)
    emit = None if args.quiet else (lambda info: out(_dump(info)))
    result = census_mod.verify_claim(args.claim, args.max_rank, emit=emit)
    out(
        _dump(
            {
                "kind": "verdict",
                "claim": result.claim,
                "max_rank": result.max_rank,
                "instances": result.instances,
                "counterexamples": result.counterexamples,
                "holds": result.holds,
            }
        )
    )
    return 0 if result.holds else 1


# The flags a subcommand may take; each takes only those it reads.
_FLAGS = {
    "--format": {"choices": ("json", "csv"), "default": "json", "help": "output format"},
    "--out": {"metavar": "FILE", "default": None, "help": "write to FILE"},
    "--quiet": {"action": "store_true", "help": "suppress per-record/instance lines"},
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cmkit",
        description=(
            "Exact arithmetic for changemaker vectors, chain lattices, and "
            "torsion staircases; includes an enumerated census and bundled "
            "verification sweeps."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, func, flags, summary):
        cmd = sub.add_parser(name, help=summary)
        for flag in flags:
            cmd.add_argument(flag, **_FLAGS[flag])
        cmd.set_defaults(func=func)
        return cmd

    tabular = ("--format", "--out")
    p_cf = command("cf", _cmd_cf, tabular, "negative continued fraction of p/q")
    p_cf.add_argument("p", type=int)
    p_cf.add_argument("q", type=int)

    p_gram = command(
        "gram",
        _cmd_gram,
        tabular,
        "Gram matrix of a complement basis, or of a chain via --linear p q",
    )
    p_gram.add_argument(
        "--linear", action="store_true", help="interpret the values as p q"
    )
    p_gram.add_argument("values", type=int, nargs="+")

    p_torsion = command(
        "torsion", _cmd_torsion, tabular, "torsion staircase of a changemaker"
    )
    p_torsion.add_argument("sigma", type=int, nargs="+")

    p_census = command(
        "census",
        _cmd_census,
        (*tabular, "--quiet"),
        "enumerate changemakers with invariants",
    )
    p_census.add_argument("--max-rank", type=int, required=True, dest="max_rank")
    p_census.add_argument(
        "--sigma-n", type=int, default=None, dest="sigma_n", help="filter on sigma_n"
    )

    p_verify = command(
        "verify",
        _cmd_verify,
        ("--out", "--quiet"),
        "run one exhaustive verification sweep",
    )
    p_verify.add_argument("claim", choices=census_mod.CLAIMS)
    p_verify.add_argument("--max-rank", type=int, required=True, dest="max_rank")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        with _sink(args.out) as out:
            return args.func(args, out)
    except CapacityError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
