"""Command-line interface wiring the library into reproducible experiments.

Every subcommand emits a JSON report (stdout or --out) that echoes its full
configuration, so identical invocations with identical seeds are
byte-identical.  Exit codes: 0 success, 1 mathematical verification failure,
2 usage error.
"""

from __future__ import annotations

import argparse
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
    matrix_from_bigraph,
    matrix_from_tournament,
    mu_squared,
    random_tournament,
)
from .linalg import Matrix
from .spectra import low_rank_matching_instance, rank_sandwich


def _read_text(path: str) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _read_json_object(path: str) -> dict:
    data = json.loads(_read_text(path))
    if not isinstance(data, dict):
        raise ValueError(f"{path} must hold a JSON object, got {data!r}")
    return data


def _emit(report: dict, args) -> None:
    if getattr(args, "format", "json") == "csv":
        lines = []
        for key, value in sorted(report.items()):
            if isinstance(value, (dict, list)):
                value = json.dumps(value, sort_keys=True)
            lines.append(f"{key},{value}")
        text = "\n".join(lines) + "\n"
    else:
        text = json.dumps(report, sort_keys=True, indent=2) + "\n"
    out = getattr(args, "out", None)
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _config(args, fields) -> dict:
    return {name: getattr(args, name) for name in fields}


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
        "command": "rank",
        "config": {"infile": args.infile},
        "rows": matrix.rows,
        "cols": matrix.cols,
        "rank": matrix.rank(),
    }


def _cmd_mu(args) -> dict:
    pair = _pair_from_args(args)
    return {
        "command": "mu",
        "config": _config(args, ("theta", "alpha", "beta")) | {"table": args.table},
        "mu_squared": format_scalar(mu_squared(pair)),
    }


def _cmd_tournament(args) -> dict:
    t = random_tournament(args.n, args.seed)
    report = {
        "command": "tournament",
        "config": _config(args, ("n", "seed")),
        "tournament": t.to_dict(),
    }
    if args.values:
        values = [parse_scalar(v) for v in args.values.split(",")]
        m = matrix_from_tournament(LinearTheta(parse_rational(args.theta)), values, t)
        report["rank"] = m.rank()
        if args.matrix_out:
            with open(args.matrix_out, "w", encoding="utf-8") as fh:
                fh.write(m.to_csv())
            report["matrix_out"] = args.matrix_out
    return report


def _cmd_bigraph(args) -> dict:
    graph = BipartiteGraph.from_dict(_read_json_object(args.infile))
    pair = _pair_from_args(args)
    matrix = matrix_from_bigraph(pair, graph)
    report = {
        "command": "bigraph",
        "config": _config(args, ("infile", "theta", "alpha", "beta")),
        "m": graph.m,
        "n": graph.n,
        "matrix": [[format_scalar(x) for x in matrix.row_list(i)] for i in range(matrix.rows)],
    }
    if args.matrix_out:
        with open(args.matrix_out, "w", encoding="utf-8") as fh:
            fh.write(matrix.to_csv())
        report["matrix_out"] = args.matrix_out
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
    if args.samples:
        for flag, bound in (("--max-m", args.max_m), ("--max-n", args.max_n)):
            if bound < 1:
                raise ValueError(f"{flag} must be >= 1 with --samples, got {bound}")
        rng = random.Random(args.seed)
        for _ in range(args.samples):
            m = rng.randint(1, args.max_m)
            n = rng.randint(1, args.max_n)
            masks = [rng.getrandbits(n) for _ in range(m)]
            rank_sandwich(_random_admissible_pair(rng), BipartiteGraph(m, n, masks))
            checked += 1
    else:
        pair = _pair_from_args(args)
        for m in range(1, args.max_m + 1):
            for n in range(1, args.max_n + 1):
                for code in range(1 << (m * n)):
                    masks = [(code >> (i * n)) & ((1 << n) - 1) for i in range(m)]
                    rank_sandwich(pair, BipartiteGraph(m, n, masks))
                    checked += 1
    return {
        "command": "theorem1-verify",
        "config": _config(args, ("max_m", "max_n", "samples", "seed")),
        "instances_checked": checked,
        "violations": 0,
    }


def _cmd_theorem2(args) -> dict:
    theta = parse_rational(args.theta)
    beta, report = low_rank_matching_instance(theta, args.n, args.sign)
    ok = report.exact_rank <= args.n + 3
    out = {
        "command": "theorem2",
        "config": _config(args, ("theta", "n", "sign")),
        "beta": format_scalar(beta),
        "report": report.to_dict(),
        "rank_at_most_n_plus_3": ok,
    }
    if not ok:
        raise VerificationError(f"rank {report.exact_rank} exceeds n + 3 = {args.n + 3}")
    return out


def _hadamard_from_args(args) -> dsg.HadamardMatrix:
    if args.construction == "sylvester":
        return dsg.sylvester(args.k)
    if args.construction == "paley":
        return dsg.paley(args.q)
    raise ValueError(f"unknown construction {args.construction!r}")


def _cmd_hadamard(args) -> dict:
    h = _hadamard_from_args(args)
    report = {
        "command": "hadamard",
        "config": _config(args, ("construction", "k", "q")),
        "order": h.order,
        "normalized": h.normalized,
        "rows": h.rows(),
    }
    if args.matrix_out:
        with open(args.matrix_out, "w", encoding="utf-8") as fh:
            fh.write(h.to_csv())
        report["matrix_out"] = args.matrix_out
    return report


def _design_from_args(args) -> dsg.SymmetricDesign:
    kind = args.design
    if kind == "fano":
        return dsg.fano()
    if kind == "complement-fano":
        return dsg.complement_design(dsg.fano())
    if kind == "paley-hadamard":
        return dsg.hadamard_design(dsg.paley(args.q))
    if kind == "sylvester-hadamard":
        return dsg.hadamard_design(dsg.sylvester(args.k))
    raise ValueError(f"unknown design {kind!r}")


def _cmd_design(args) -> dict:
    design = _design_from_args(args)
    return {
        "command": "design",
        "config": _config(args, ("design", "q", "k")),
        "design": design.to_dict(),
    }


def _cmd_design_rank(args) -> dict:
    design = _design_from_args(args)
    pair = _pair_from_args(args)
    report = dsg.design_rank_instance(design, pair)
    mu2 = report.mu_squared
    return {
        "command": "design-rank",
        "config": _config(args, ("design", "q", "k", "theta", "alpha", "beta")),
        "k_minus_lambda": design.k - design.lam,
        "low_rank_branch": mu2 == design.k - design.lam,
        "report": report.to_dict(),
    }


def _cmd_onebytwo(args) -> dict:
    pairs = dsg.onebytwo_scan(args.k_minus_lambda, args.bound)
    return {
        "command": "onebytwo",
        "config": _config(args, ("k_minus_lambda", "bound")),
        "solutions": [list(p) for p in pairs],
    }


def _cmd_family_check(args) -> dict:
    family = fam.SetFamily.from_dict(_read_json_object(args.infile))
    theta = parse_rational(args.theta)
    violation = fam.theta_violation(family, theta)
    report = {
        "command": "family-check",
        "config": _config(args, ("infile", "theta")),
        "size": len(family),
        "ok": violation is None,
        "violation": list(violation) if violation else None,
    }
    if violation is not None:
        _emit(report, args)
        raise VerificationError(f"family is not theta-intersecting: {violation}")
    return report


def _family_from_kind(kind: str, args) -> fam.SetFamily:
    if kind == "sunflower":
        return fam.sunflower_family(args.n)
    if kind == "fano":
        return fam.fano_family()
    if kind == "hadamard":
        order = args.order
        if order < 1 or order & (order - 1):
            raise ValueError(f"--order must be a power of two, got {order}")
        return fam.hadamard_family(dsg.sylvester(order.bit_length() - 1))
    raise ValueError(f"unknown family kind {kind!r}")


def _cmd_family_build(args) -> dict:
    family = _family_from_kind(args.kind, args)
    return {
        "command": "family-build",
        "config": _config(args, ("kind", "n", "order")),
        "size": len(family),
        "family": family.to_dict(),
    }


def _cmd_family_search(args) -> dict:
    if args.seed_file:
        seed = fam.SetFamily.from_dict(_read_json_object(args.seed_file))
    else:
        seed = _family_from_kind(args.seed_kind, args)
    result = fam.search_bisection_closed(
        args.n, seed, time_budget=args.budget, max_set_size=args.max_set_size
    )
    return {
        "command": "family-search",
        "config": _config(args, ("n", "seed_kind", "seed_file", "budget", "max_set_size")),
        "seed_size": len(seed.sets),
        "size": len(result),
        "beats_bound": len(result) > 3 * args.n // 2 - 2,
        "family": result.to_dict(),
    }


def _cmd_random_rank_stats(args) -> dict:
    if args.samples < 1:
        raise ValueError(f"--samples must be >= 1, got {args.samples}")
    theta = parse_rational(args.theta)
    f = LinearTheta(theta)
    values = list(range(1, args.n + 1))
    ranks = [
        matrix_from_tournament(f, values, random_tournament(args.n, args.seed + i)).rank()
        for i in range(args.samples)
    ]
    hits = sum(1 for r in ranks if r >= args.n - 1)
    return {
        "command": "random-rank-stats",
        "config": _config(args, ("n", "samples", "seed", "theta")),
        "ranks": ranks,
        "near_full_rank_fraction": f"{hits}/{args.samples}",
        "near_full_rank_ok": hits * 100 >= 95 * args.samples,
    }


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="symrank",
        description="Exact rank experiments on two-valued symmetric ensembles",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, seed=False):
        p.add_argument("--out", default=None, help="write the JSON report to a file")
        p.add_argument("--format", choices=("json", "csv"), default="json")
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
    p.add_argument("--samples", type=int, default=0, help="0 means exhaustive up to max sizes")
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
    p.add_argument("--construction", choices=("sylvester", "paley"), required=True)
    p.add_argument("--k", type=int, default=3, help="sylvester exponent")
    p.add_argument("--q", type=int, default=23, help="paley prime")
    p.add_argument("--matrix-out", default=None)
    common(p)
    p.set_defaults(handler=_cmd_hadamard)

    def design_flags(p):
        p.add_argument(
            "--design",
            choices=("fano", "complement-fano", "paley-hadamard", "sylvester-hadamard"),
            default="fano",
        )
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
    p.add_argument("--kind", choices=("sunflower", "fano", "hadamard"), required=True)
    p.add_argument("--n", type=int, default=8)
    p.add_argument("--order", type=int, default=8)
    common(p)
    p.set_defaults(handler=_cmd_family_build)

    p = sub.add_parser("family-search", help="extend a seed family by backtracking")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed-kind", choices=("sunflower", "fano", "hadamard"), default="sunflower")
    p.add_argument("--seed-file", default=None)
    p.add_argument("--budget", type=float, default=60.0)
    p.add_argument("--max-set-size", type=int, default=None)
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
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        report = args.handler(args)
    except (VerificationError, ConstructionFailedError) as exc:
        sys.stderr.write(f"verification failure: {exc}\n")
        return 1
    except (ValueError, OSError, KeyError, json.JSONDecodeError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    _emit(report, args)
    return 0


if __name__ == "__main__":
    sys.exit(main())
