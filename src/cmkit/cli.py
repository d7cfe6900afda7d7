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
from contextlib import contextmanager

from . import census as census_mod
from .changemaker import ChangemakerVector, is_changemaker
from .errors import CapacityError
from .graphs import orthogonal_basis
from .lattice import gram_matrix
from .linear import cf_expand, linear_gram
from .torsion import genus_from_changemaker, torsion_staircase

SCHEMA = "cmkit/1"


def _dump(obj) -> str:
    return json.dumps(obj, separators=(",", ":"))


@contextmanager
def _sink(path):
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            yield fh
    else:
        yield sys.stdout


def _cmd_cf(args, out) -> int:
    expansion = cf_expand(args.p, args.q)
    if args.format == "csv":
        print("p,q,cf", file=out)
        print(f"{args.p},{args.q}," + " ".join(map(str, expansion)), file=out)
    else:
        print(
            _dump(
                {
                    "schema": SCHEMA,
                    "command": "cf",
                    "p": args.p,
                    "q": args.q,
                    "cf": expansion,
                }
            ),
            file=out,
        )
    return 0


def _cmd_gram(args, out) -> int:
    if args.linear:
        if len(args.values) != 2:
            raise ValueError("--linear expects exactly two values: p q")
        p, q = args.values
        gram = linear_gram(p, q)
        meta = {"source": "linear", "p": p, "q": q}
    else:
        sig = tuple(args.values)
        if not any(sig):
            raise ValueError("sigma must be nonzero")
        gram = gram_matrix(orthogonal_basis(sig))
        meta = {"source": "sigma", "sigma": list(sig)}
    if args.format == "csv":
        for row in gram:
            print(",".join(map(str, row)), file=out)
    else:
        payload = {"schema": SCHEMA, "command": "gram"}
        payload.update(meta)
        payload["gram"] = [list(row) for row in gram]
        print(_dump(payload), file=out)
    return 0


def _cmd_torsion(args, out) -> int:
    sig = tuple(args.sigma)
    if not is_changemaker(sig) or sig[0] != 1:
        raise ValueError(f"not a changemaker with sigma_0 = 1: {list(sig)}")
    cm = ChangemakerVector(sig)
    g = genus_from_changemaker(cm)
    staircase = list(torsion_staircase(cm))
    if args.format == "csv":
        print("sigma,p,g,t", file=out)
        print(
            f"{' '.join(map(str, sig))},{cm.p},{g},{' '.join(map(str, staircase))}",
            file=out,
        )
    else:
        print(
            _dump(
                {
                    "schema": SCHEMA,
                    "command": "torsion",
                    "sigma": list(sig),
                    "p": cm.p,
                    "g": g,
                    "t": staircase,
                }
            ),
            file=out,
        )
    return 0


_CSV_COLUMNS = (
    "rank,sigma,p,g,k,classification,linear_p,linear_q,torsion,exponents,"
    "theorem1_applicable,theorem1_verified"
)


def _record_csv(rec) -> str:
    lp, lq = (rec.linear if rec.linear is not None else ("", ""))
    fields = [
        rec.rank,
        " ".join(map(str, rec.sigma)),
        rec.p,
        rec.g,
        rec.k if rec.k is not None else "",
        rec.classification,
        lp,
        lq,
        " ".join(map(str, rec.torsion)),
        " ".join(map(str, rec.exponents)) if rec.exponents is not None else "",
        rec.theorem1_applicable,
        rec.theorem1_verified if rec.theorem1_verified is not None else "",
    ]
    return ",".join(str(f) for f in fields)


def _cmd_census(args, out) -> int:
    records = census_mod.run_census(args.max_rank, sigma_n=args.sigma_n)
    acc = census_mod.SummaryAccumulator()
    csv = args.format == "csv"
    if csv:
        print(_CSV_COLUMNS, file=out)
    else:
        print(
            _dump(
                {
                    "schema": SCHEMA,
                    "kind": "header",
                    "command": "census",
                    "max_rank": args.max_rank,
                    "sigma_n": args.sigma_n,
                }
            ),
            file=out,
        )
    for rec in records:
        acc.add(rec)
        if args.quiet:
            continue
        print(_record_csv(rec) if csv else _dump(rec.to_dict()), file=out)
    summary = acc.as_dict()
    if csv:
        print(f"# records={summary['records']}", file=out)
        for name, count in summary["counts"].items():
            print(f"# {name}={count}", file=out)
        print(f"# lemma5_holds={str(summary['lemma5_holds']).lower()}", file=out)
        print(f"# theorem1_holds={str(summary['theorem1_holds']).lower()}", file=out)
    else:
        print(_dump(summary), file=out)
    return 0


def _cmd_verify(args, out) -> int:
    census_mod.check_rank_cap(args.max_rank)  # refuse before the header
    print(
        _dump(
            {
                "schema": SCHEMA,
                "kind": "header",
                "command": "verify",
                "claim": args.claim,
                "max_rank": args.max_rank,
            }
        ),
        file=out,
    )
    emit = None if args.quiet else (lambda info: print(_dump(info), file=out))
    result = census_mod.verify_claim(args.claim, args.max_rank, emit=emit)
    print(
        _dump(
            {
                "kind": "verdict",
                "claim": result.claim,
                "max_rank": result.max_rank,
                "instances": result.instances,
                "counterexamples": result.counterexamples,
                "holds": result.holds,
            }
        ),
        file=out,
    )
    return 0 if result.holds else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cmkit",
        description=(
            "Exact arithmetic for changemaker vectors, chain lattices, and "
            "torsion staircases; includes an enumerated census and bundled "
            "verification sweeps."
        ),
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--format", choices=("json", "csv"), default="json", help="output format"
    )
    common.add_argument("--out", metavar="FILE", default=None, help="write to FILE")
    common.add_argument(
        "--quiet", action="store_true", help="suppress per-record/instance lines"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_cf = sub.add_parser(
        "cf", parents=[common], help="negative continued fraction of p/q"
    )
    p_cf.add_argument("p", type=int)
    p_cf.add_argument("q", type=int)
    p_cf.set_defaults(func=_cmd_cf)

    p_gram = sub.add_parser(
        "gram",
        parents=[common],
        help="Gram matrix of a complement basis, or of a chain via --linear p q",
    )
    p_gram.add_argument(
        "--linear", action="store_true", help="interpret the values as p q"
    )
    p_gram.add_argument("values", type=int, nargs="+")
    p_gram.set_defaults(func=_cmd_gram)

    p_torsion = sub.add_parser(
        "torsion", parents=[common], help="torsion staircase of a changemaker"
    )
    p_torsion.add_argument("sigma", type=int, nargs="+")
    p_torsion.set_defaults(func=_cmd_torsion)

    p_census = sub.add_parser(
        "census", parents=[common], help="enumerate changemakers with invariants"
    )
    p_census.add_argument("--max-rank", type=int, required=True, dest="max_rank")
    p_census.add_argument(
        "--sigma-n", type=int, default=None, dest="sigma_n", help="filter on sigma_n"
    )
    p_census.set_defaults(func=_cmd_census)

    p_verify = sub.add_parser(
        "verify", parents=[common], help="run one exhaustive verification sweep"
    )
    p_verify.add_argument("claim", choices=census_mod.CLAIMS)
    p_verify.add_argument("--max-rank", type=int, required=True, dest="max_rank")
    p_verify.set_defaults(func=_cmd_verify)
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
