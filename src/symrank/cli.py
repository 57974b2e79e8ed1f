"""Command-line interface wiring the library into reproducible experiments.

Every subcommand emits a JSON report (stdout or --out) that names the
command and echoes every flag but the output paths, so identical
invocations with identical seeds are byte-identical.  Exit codes: 0
success, 1 mathematical verification failure, 2 usage error.  The argument
parser is built once per process, on the first call to main, and reused by
every later call.
"""

from __future__ import annotations

import argparse
import functools
import json
import random
import sys
from fractions import Fraction

from . import families as fam
from . import designs as dsg
from .errors import ConstructionFailedError, VerificationError
from .exactfield import format_scalar, parse_rational, parse_scalar
from .ensemble import (
    BipartiteGraph,
    LinearTheta,
    TwoValuePair,
    bigraph_classes,
    matrix_from_bigraph,
    matrix_from_tournament,
    mu_squared,
    random_tournament,
)
from .linalg import SIZE_CAP, Matrix
from .spectra import low_rank_matching_instance, rank_sandwich

# largest max-m x max-n an exhaustive theorem1-verify accepts (2^25 raw graphs in that cell)
EXHAUSTIVE_ENTRY_CAP = 25

# parsed arguments a report's config leaves out: the parser's own fields and
# the output paths, which change where a report goes but not what it says
UNECHOED = frozenset(("handler", "command", "out", "matrix_out"))


def _read_text(path: str) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _read_json_object(path: str, keys) -> dict:
    """The JSON object in the file; ValueError naming the file and a missing key,
    text that does not parse (an integer too long to convert included), or
    JSON nested deeper than the recursion limit."""
    text = _read_text(path)
    try:
        data = json.loads(text)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
    except RecursionError:
        raise ValueError(f"{path} nests JSON deeper than the recursion limit") from None
    if not isinstance(data, dict):
        raise ValueError(f"{path} must hold a JSON object, got {data!r}")
    for key in keys:
        if key not in data:
            raise ValueError(f"{path} has no key {key!r}")
    return data


# the types json.dumps writes as one token
_JSON_SCALARS = frozenset((str, int, float, bool, type(None)))


def report_json(value, indent: str = "\n") -> str:
    """The text of `json.dumps(value, sort_keys=True, indent=2)`, built faster.

    With `indent` set, json.dumps runs its pure-Python encoder over every
    value.  Here only dicts and lists are walked in Python: a list of scalars
    is encoded in one C-level json.dumps call whose item separator carries
    the indentation.  `indent` is the newline and indentation that precede
    the value's closing bracket.  Dict keys must be strings, as in every
    report.  A HadamardMatrix is written as the list of its +1/-1 rows,
    straight from its row masks.
    """
    inner = indent + "  "
    if isinstance(value, dict):
        if not value:
            return "{}"
        items = (json.dumps(k) + ": " + report_json(v, inner) for k, v in sorted(value.items()))
        return "{" + inner + ("," + inner).join(items) + indent + "}"
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        if set(map(type, value)) <= _JSON_SCALARS:
            body = json.dumps(value, separators=("," + inner, ": "))[1:-1]
        else:
            body = ("," + inner).join(report_json(x, inner) for x in value)
        return "[" + inner + body + indent + "]"
    if isinstance(value, dsg.HadamardMatrix):
        entry = inner + "  "
        rows = value.entry_text("," + entry)
        body = ("," + inner).join("[" + entry + row + inner + "]" for row in rows)
        return "[" + inner + body + indent + "]"
    return json.dumps(value)


def _emit(report: dict, args) -> None:
    text = report_json(report) + "\n"
    out = getattr(args, "out", None)
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _envelope(args) -> dict:
    """The part every report shares: the command and each echoed argument."""
    config = {name: value for name, value in vars(args).items() if name not in UNECHOED}
    return {"command": args.command, "config": config}


def _capped(flag: str, size: int, cap: int = SIZE_CAP) -> int:
    """size, checked against cap before anything of that size is built."""
    if size > cap:
        raise ValueError(f"{flag} {size} exceeds the size limit of {cap}")
    return size


def _write_matrix_out(report: dict, args, matrix) -> None:
    """Write the matrix's CSV to --matrix-out, if given, and name the file in the report."""
    if args.matrix_out:
        with open(args.matrix_out, "w", encoding="utf-8") as fh:
            fh.write(matrix.to_csv())
        report["matrix_out"] = args.matrix_out


def _pair_from_args(args) -> TwoValuePair:
    alpha = parse_scalar(args.alpha)
    beta = parse_scalar(args.beta)
    if getattr(args, "table", None):
        values = [parse_scalar(v) for v in args.table]
        return TwoValuePair.table(alpha, beta, *values)
    return TwoValuePair(LinearTheta(parse_rational(args.theta)), alpha, beta)


# -- subcommand handlers ----------------------------------------------------


def _cmd_rank(args) -> dict:
    matrix = Matrix.from_csv(_read_text(args.infile))
    return {
        "rows": matrix.rows,
        "cols": matrix.cols,
        "rank": matrix.rank(),
    }


def _cmd_mu(args) -> dict:
    return {"mu_squared": format_scalar(mu_squared(_pair_from_args(args)))}


def _cmd_tournament(args) -> dict:
    t = random_tournament(_capped("--n", args.n), args.seed)
    report = {"tournament": t.to_dict()}
    if args.values:
        values = [parse_scalar(v) for v in args.values.split(",")]
        m = matrix_from_tournament(LinearTheta(parse_rational(args.theta)), values, t)
        report["rank"] = m.rank()
        _write_matrix_out(report, args, m)
    return report


def _cmd_bigraph(args) -> dict:
    graph = BipartiteGraph.from_dict(_read_json_object(args.infile, ("m", "n", "edges")))
    pair = _pair_from_args(args)
    matrix = matrix_from_bigraph(pair, graph)
    report = {
        "m": graph.m,
        "n": graph.n,
        "matrix": [[format_scalar(x) for x in matrix.row_list(i)] for i in range(matrix.rows)],
    }
    _write_matrix_out(report, args, matrix)
    return report


def _random_admissible_pair(rng: random.Random) -> TwoValuePair:
    if rng.random() < 0.5:
        theta = Fraction(rng.randint(1, 9), 10)
        alpha = Fraction(rng.randint(1, 12), rng.randint(1, 4))
        beta = Fraction(rng.randint(1, 12), rng.randint(1, 4))
        while beta == alpha:
            beta = Fraction(rng.randint(1, 12), rng.randint(1, 4))
        return TwoValuePair.linear(theta, alpha, beta)
    # table pair, possibly with f(a,a) f(b,b) < 0
    def nz(lo, hi):
        v = 0
        while v == 0:
            v = rng.randint(lo, hi)
        return Fraction(v)

    f_aa = nz(-6, 6)
    f_bb = nz(-6, 6)
    f_ab = Fraction(rng.randint(-6, 6))
    f_ba = f_ab
    while f_ba == f_ab:
        f_ba = Fraction(rng.randint(-6, 6))
    return TwoValuePair.table(Fraction(1), Fraction(2), f_aa, f_ab, f_ba, f_bb)


def _cmd_theorem1_verify(args) -> dict:
    """Verify the rank sandwich exhaustively or on random instances."""
    checked = 0
    if args.samples < 0:
        raise ValueError(f"--samples must be >= 0 (0 means exhaustive), got {args.samples}")
    for flag, bound in (("--max-m", args.max_m), ("--max-n", args.max_n)):
        if bound < 1:
            raise ValueError(f"{flag} must be >= 1, got {bound}")
    if args.samples:
        _capped("--max-m", args.max_m)
        _capped("--max-n", args.max_n)
        rng = random.Random(args.seed)
        for _ in range(args.samples):
            m = rng.randint(1, args.max_m)
            n = rng.randint(1, args.max_n)
            masks = [rng.getrandbits(n) for _ in range(m)]
            rank_sandwich(_random_admissible_pair(rng), BipartiteGraph(m, n, masks))
            checked += 1
    else:
        if args.max_m * args.max_n > EXHAUSTIVE_ENTRY_CAP:
            raise ValueError(
                f"--max-m {args.max_m} x --max-n {args.max_n} exceeds the exhaustive "
                f"limit of {EXHAUSTIVE_ENTRY_CAP} biadjacency entries"
            )
        pair = _pair_from_args(args)
        # rank and nu are invariant under S_m x S_n: rank one graph per class
        for m in range(1, args.max_m + 1):
            for n in range(1, args.max_n + 1):
                for masks, orbit_size in bigraph_classes(m, n):
                    rank_sandwich(pair, BipartiteGraph(m, n, masks))
                    checked += orbit_size
    return {
        "instances_checked": checked,
        "violations": 0,
    }


def _cmd_theorem2(args) -> dict:
    theta = parse_rational(args.theta)
    beta, report = low_rank_matching_instance(theta, _capped("--n", args.n), args.sign)
    ok = report.exact_rank <= args.n + 3
    out = {
        "beta": format_scalar(beta),
        "report": report.to_dict(),
        "rank_at_most_n_plus_3": ok,
    }
    if not ok:
        raise VerificationError(f"rank {report.exact_rank} exceeds n + 3 = {args.n + 3}")
    return out


# name -> builder from the parsed arguments; the names are also the argparse choices.
# A builder caps its order at SIZE_CAP first: 2^k, and q + 1 before is_prime divides q
HADAMARD_CONSTRUCTIONS = {
    "sylvester": lambda args: dsg.sylvester(_capped("--k", args.k, SIZE_CAP.bit_length() - 1)),
    "paley": lambda args: dsg.paley(_capped("--q", args.q, SIZE_CAP - 1)),
}

DESIGNS = {
    "fano": lambda args: dsg.fano(),
    "complement-fano": lambda args: dsg.complement_design(dsg.fano()),
    "paley-hadamard": lambda args: dsg.hadamard_design(HADAMARD_CONSTRUCTIONS["paley"](args)),
    "sylvester-hadamard": lambda args: dsg.hadamard_design(
        HADAMARD_CONSTRUCTIONS["sylvester"](args)
    ),
}


def _hadamard_family(args) -> fam.SetFamily:
    order = _capped("--order", args.order)
    if order < 1 or order & (order - 1):
        raise ValueError(f"--order must be a power of two, got {order}")
    return fam.hadamard_family(dsg.sylvester(order.bit_length() - 1))


FAMILY_KINDS = {
    "sunflower": lambda args: fam.sunflower_family(_capped("--n", args.n)),
    "fano": lambda args: fam.fano_family(),
    "hadamard": _hadamard_family,
}


def _cmd_hadamard(args) -> dict:
    h = HADAMARD_CONSTRUCTIONS[args.construction](args)
    report = {
        "order": h.order,
        "normalized": h.normalized,
        "rows": h,
    }
    _write_matrix_out(report, args, h)
    return report


def _cmd_design(args) -> dict:
    return {"design": DESIGNS[args.design](args).to_dict()}


def _cmd_design_rank(args) -> dict:
    design = DESIGNS[args.design](args)
    pair = _pair_from_args(args)
    report = dsg.design_rank_instance(design, pair)
    mu2 = report.mu_squared
    return {
        "k_minus_lambda": design.k - design.lam,
        "low_rank_branch": mu2 == design.k - design.lam,
        "report": report.to_dict(),
    }


def _cmd_onebytwo(args) -> dict:
    pairs = dsg.onebytwo_scan(args.k_minus_lambda, args.bound)
    return {"solutions": [list(p) for p in pairs]}


def _cmd_family_check(args) -> dict:
    family = fam.SetFamily.from_dict(_read_json_object(args.infile, ("n", "sets")))
    theta = parse_rational(args.theta)
    violation = fam.theta_violation(family, theta)
    report = {
        "size": len(family),
        "ok": violation is None,
        "violation": list(violation) if violation else None,
    }
    if violation is not None:
        _emit(_envelope(args) | report, args)
        raise VerificationError(f"family is not theta-intersecting: {violation}")
    return report


def _cmd_family_build(args) -> dict:
    family = FAMILY_KINDS[args.kind](args)
    return {
        "size": len(family),
        "family": family.to_dict(),
    }


def _cmd_family_search(args) -> dict:
    _capped("--n", args.n, fam.SEARCH_GROUND_CAP)
    if args.seed_file:
        seed = fam.SetFamily.from_dict(_read_json_object(args.seed_file, ("n", "sets")))
    else:
        seed = FAMILY_KINDS[args.seed_kind](args)
    result = fam.search_bisection_closed(args.n, seed, time_budget=args.budget)
    return {
        "seed_size": len(seed),
        "size": len(result),
        "beats_bound": len(result) > 3 * args.n // 2 - 2,
        "family": result.to_dict(),
    }


def _cmd_random_rank_stats(args) -> dict:
    if args.samples < 1:
        raise ValueError(f"--samples must be >= 1, got {args.samples}")
    theta = parse_rational(args.theta)
    f = LinearTheta(theta)
    values = list(range(1, _capped("--n", args.n) + 1))
    ranks = [
        matrix_from_tournament(f, values, random_tournament(args.n, args.seed + i)).rank()
        for i in range(args.samples)
    ]
    hits = sum(1 for r in ranks if r >= args.n - 1)
    return {
        "ranks": ranks,
        "near_full_rank_fraction": f"{hits}/{args.samples}",
        "near_full_rank_ok": hits * 100 >= 95 * args.samples,
    }


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser of every subcommand; parse_args keeps no state between calls."""
    parser = argparse.ArgumentParser(
        prog="symrank",
        description="Exact rank experiments on two-valued symmetric ensembles",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, seed=False):
        p.add_argument("--out", default=None, help="write the JSON report to a file")
        if seed:
            p.add_argument("--seed", type=int, default=0)

    def pair_flags(p):
        p.add_argument("--theta", default="1/2")
        p.add_argument("--alpha", default="1")
        p.add_argument("--beta", default="2")
        p.add_argument(
            "--table",
            nargs=4,
            metavar=("FAA", "FAB", "FBA", "FBB"),
            default=None,
            help="explicit table values overriding the linear form",
        )

    p = sub.add_parser("rank", help="exact rank of a CSV matrix")
    p.add_argument("--in", dest="infile", required=True)
    common(p)
    p.set_defaults(handler=_cmd_rank)

    p = sub.add_parser("mu", help="the scalar mu^2 of a pair")
    pair_flags(p)
    common(p)
    p.set_defaults(handler=_cmd_mu)

    p = sub.add_parser("tournament", help="seeded random tournament (optionally its matrix rank)")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--values", default=None, help="comma-separated sequence values")
    p.add_argument("--theta", default="1/2")
    p.add_argument("--matrix-out", default=None)
    common(p, seed=True)
    p.set_defaults(handler=_cmd_tournament)

    p = sub.add_parser("bigraph", help="ensemble matrix of a bipartite graph JSON")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--matrix-out", default=None)
    pair_flags(p)
    common(p)
    p.set_defaults(handler=_cmd_bigraph)

    p = sub.add_parser("theorem1-verify", help="verify the rank sandwich on batches")
    p.add_argument("--max-m", type=int, default=4)
    p.add_argument("--max-n", type=int, default=4)
    p.add_argument(
        "--samples",
        type=int,
        default=0,
        help="0 means exhaustive up to max sizes: one graph per S_m x S_n class, "
        "counted by its orbit size, with max-m x max-n <= 25",
    )
    pair_flags(p)
    common(p, seed=True)
    p.set_defaults(handler=_cmd_theorem1_verify)

    p = sub.add_parser("theorem2", help="low-rank instance on K_{n,n} minus a matching")
    p.add_argument("--theta", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--sign", choices=("+", "-"), default="+")
    common(p)
    p.set_defaults(handler=_cmd_theorem2)

    p = sub.add_parser("hadamard", help="construct a validated Hadamard matrix")
    p.add_argument("--construction", choices=HADAMARD_CONSTRUCTIONS, required=True)
    p.add_argument("--k", type=int, default=3, help="sylvester exponent")
    p.add_argument("--q", type=int, default=23, help="paley prime")
    p.add_argument("--matrix-out", default=None)
    common(p)
    p.set_defaults(handler=_cmd_hadamard)

    def design_flags(p):
        p.add_argument("--design", choices=DESIGNS, default="fano")
        p.add_argument("--q", type=int, default=23)
        p.add_argument("--k", type=int, default=3)

    p = sub.add_parser("design", help="construct a validated symmetric design")
    design_flags(p)
    common(p)
    p.set_defaults(handler=_cmd_design)

    p = sub.add_parser("design-rank", help="rank sandwich of a design's ensemble matrix")
    design_flags(p)
    pair_flags(p)
    common(p)
    p.set_defaults(handler=_cmd_design_rank)

    p = sub.add_parser("onebytwo", help="scan coprime pairs with alpha*beta/(alpha-beta)^2 = k - lambda")
    p.add_argument("--k-minus-lambda", dest="k_minus_lambda", type=int, required=True)
    p.add_argument("--bound", type=int, default=10000)
    common(p)
    p.set_defaults(handler=_cmd_onebytwo)

    p = sub.add_parser("family-check", help="check a family JSON for theta-intersection")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--theta", default="1/2")
    common(p)
    p.set_defaults(handler=_cmd_family_check)

    p = sub.add_parser("family-build", help="build a named bisection-closed family")
    p.add_argument("--kind", choices=FAMILY_KINDS, required=True)
    p.add_argument("--n", type=int, default=8)
    p.add_argument("--order", type=int, default=8)
    common(p)
    p.set_defaults(handler=_cmd_family_build)

    p = sub.add_parser("family-search", help="extend a seed family by backtracking")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed-kind", choices=FAMILY_KINDS, default="sunflower")
    p.add_argument("--seed-file", default=None)
    p.add_argument("--budget", type=float, default=60.0)
    p.add_argument("--order", type=int, default=8)
    common(p)
    p.set_defaults(handler=_cmd_family_search)

    p = sub.add_parser("random-rank-stats", help="rank statistics of seeded random tournaments")
    p.add_argument("--n", type=int, default=30)
    p.add_argument("--samples", type=int, default=50)
    p.add_argument("--theta", default="1/2")
    common(p, seed=True)
    p.set_defaults(handler=_cmd_random_rank_stats)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        report = args.handler(args)
    except (VerificationError, ConstructionFailedError) as exc:
        sys.stderr.write(f"verification failure: {exc}\n")
        return 1
    except (ValueError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    _emit(_envelope(args) | report, args)
    return 0


if __name__ == "__main__":
    sys.exit(main())
