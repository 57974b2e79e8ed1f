"""The fixed command batch of each workload, with its generated inputs and checks.

A batch is a list of symrank command lines.  Its inputs (pair values, CLI
seeds, CSV matrices, seed families) come from the workload seed, and every
command carries a check of its report from `checks`.  Each workload puts most
of its time in one layer and little in the others, so that a change to one
layer shows on one workload and can be seen not to move the rest:

- small: many small instances.  A sweep of tiny rank-sandwich instances loads
  per-instance overhead in ensemble, spectra and small dense ranks; +-1 and
  bitmask work loads designs and families with little linear algebra.
- large: a few large exact ranks.  Over the integers they load bignum Bareiss
  in linalg, and generated CSVs of full and deficient rank split a
  certified-rank fast path from its certificate path; over Q(sqrt d) they
  load QuadExt arithmetic and the Z[sqrt d] rank.

Two paper-admissible inputs that fail today stay in the mix as ordinary
commands (`probe-*`) and count as failures until the program handles them.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Callable

from checks import (
    CheckFailed,
    Quad,
    addable_even_set,
    check_bisection_closed,
    check_design,
    check_hadamard,
    check_sandwich,
    design_multiplicity,
    exhaustive_instances,
    fmt,
    linear_values,
    matched_root,
    mu_squared,
    parse,
    require,
    tournament_rank_floor,
)

WORKLOADS = ("small", "large")

#: family-search budget in seconds, far above the searches' completion time,
#: so that every search runs to completion and its result is deterministic.
SEARCH_BUDGET = "600"


@dataclass
class Command:
    name: str
    argv: list[str]
    check: Callable[[dict], None]
    #: writes this command's input from the reports of earlier commands in the batch
    prepare: Callable[[dict], None] | None = None


@dataclass
class Batch:
    commands: list[Command] = field(default_factory=list)
    #: name of the command whose time is reported as big_cmd_x
    big: str = ""

    def add(self, name, argv, check, prepare=None) -> None:
        self.commands.append(Command(name, [str(a) for a in argv], check, prepare))


def build(workload: str, seed: int, workdir: Path, tiny: bool = False) -> Batch:
    """The batch of one workload; `tiny` shrinks every size for self-tests."""
    rng = random.Random(f"{workload}:{seed}")
    make = {"small": _small, "large": _large}[workload]
    return make(rng, workdir, tiny)


# -- shared pieces ----------------------------------------------------------------


def _linear_pair(rng) -> tuple[Fraction, int, int]:
    """theta, alpha, beta with all four values f(x, y) nonzero.

    Zero cross values are covered by the probe command of the sweep, so that
    the set of failing commands does not depend on the seed.
    """
    while True:
        theta = Fraction(rng.randint(1, 9), 10)
        alpha, beta = rng.sample(range(1, 10), 2)
        if all(linear_values(theta, Fraction(alpha), Fraction(beta))):
            return theta, alpha, beta


def _table_pair(rng) -> list[int]:
    """f(a,a), f(a,b), f(b,a), f(b,b), all nonzero, with f(a,b) != f(b,a)."""
    nonzero = [v for v in range(-6, 7) if v]
    while True:
        values = [rng.choice(nonzero) for _ in range(4)]
        if values[1] != values[2]:
            return values


def _check_instances(expected: int):
    def check(report):
        require(report["violations"] == 0, f"{report['violations']} violations")
        require(
            report["instances_checked"] == expected,
            f"{report['instances_checked']} instances checked, the arguments fix {expected}",
        )

    return check


def _check_mu(mu2):
    def check(report):
        require(parse(report["mu_squared"]) == mu2, f"mu^2 = {report['mu_squared']}, not {fmt(mu2)}")

    return check


def _design_params(design: str, q: int, k: int) -> tuple[int, int, int]:
    if design == "fano":
        return 7, 3, 1
    if design == "complement-fano":
        return 7, 4, 2
    if design == "paley-hadamard":
        return q, (q - 1) // 2, (q - 3) // 4
    return 2**k - 1, 2 ** (k - 1) - 1, 2 ** (k - 2) - 1  # sylvester-hadamard


def _add_design_rank(batch, name, design, theta, alpha, beta, q=23, k=3):
    v, kk, lam = _design_params(design, q, k)
    theta = Fraction(theta)
    mu2 = mu_squared(linear_values(theta, parse(str(alpha)), parse(str(beta))))
    nu = design_multiplicity(v, kk, lam, mu2)

    def check(report):
        require(report["k_minus_lambda"] == kk - lam, "k - lambda differs from the design's")
        require(report["low_rank_branch"] == (mu2 == kk - lam), "low_rank_branch is wrong")
        r = report["report"]
        require((r["m"], r["n"]) == (v, v), f"parts {r['m']}x{r['n']}, the design has v = {v}")
        _check_mu(mu2)(r)
        check_sandwich(r, nu)

    argv = ["design-rank", "--design", design, "--q", q, "--k", k]
    batch.add(name, argv + ["--theta", theta, "--alpha", alpha, "--beta", beta], check)


def _write_low_rank_csv(path: Path, rng, shape: tuple[int, int, int], d: int, spread: int) -> None:
    """A rows x cols matrix of rank exactly r over Q(sqrt d), written as CSV.

    A = L U with L = [I_r; X] and U = [I_r | Y]: L has full column rank and U
    full row rank, so rank A = r over any field.  Entries of X and Y are
    a + b*sqrt(d) with |a|, |b| <= spread, b = 0 when d = 0, kept as integer
    pairs (a, b).  Rows and columns are then shuffled, which keeps the rank
    and hides the identity block.
    """
    rows, cols, r = shape

    def entry():
        return rng.randint(-spread, spread), rng.randint(-spread, spread) if d else 0

    def dot(u, v):
        a = b = 0
        for (ua, ub), (va, vb) in zip(u, v):
            a += ua * va + d * ub * vb
            b += ua * vb + ub * va
        return a, b

    x = [[entry() for _ in range(r)] for _ in range(rows - r)]
    y_cols = [[entry() for _ in range(r)] for _ in range(cols - r)]
    top = [[(int(i == j), 0) for j in range(r)] + [c[i] for c in y_cols] for i in range(r)]
    matrix = top + [xi + [dot(xi, c) for c in y_cols] for xi in x]
    rng.shuffle(matrix)
    order = list(range(cols))
    rng.shuffle(order)

    def cell(a, b):
        return f"{a}{b:+d}*sqrt({d})" if b else str(a)

    text = "\n".join(",".join(cell(*row[j]) for j in order) for row in matrix) + "\n"
    path.write_text(text, encoding="utf-8")


def _add_csv_ranks(batch, prefix: str, workdir: Path, rng, shapes, d: int, spread: int):
    for rows, cols, r in shapes:
        kind = "full" if r == min(rows, cols) else "deficient"
        name = f"{prefix}-{kind}-{rows}x{cols}-r{r}"
        path = workdir / f"{name}.csv"
        _write_low_rank_csv(path, rng, (rows, cols, r), d, spread)

        def check(report, rows=rows, cols=cols, r=r):
            require((report["rows"], report["cols"]) == (rows, cols), "shape differs from the file")
            require(report["rank"] == r, f"rank {report['rank']}, built with rank {r}")

        batch.add(name, ["rank", "--in", path], check)


# -- workloads -----------------------------------------------------------------------


def _sweep(rng, workdir: Path, tiny: bool) -> Batch:
    batch = Batch()
    cells = [(2, 2, "linear"), (2, 2, "table")] if tiny else [
        (2, 4, "linear"),
        (3, 3, "linear"),
        (3, 3, "table"),
        (4, 2, "table"),
        (4, 3, "linear"),
    ]
    for max_m, max_n, kind in cells:
        name = f"exhaustive-{max_m}x{max_n}-{kind}"
        if kind == "linear":
            theta, alpha, beta = _linear_pair(rng)
            flags = ["--theta", theta, "--alpha", alpha, "--beta", beta]
        else:
            flags = ["--table", *_table_pair(rng)]
        argv = ["theorem1-verify", "--max-m", max_m, "--max-n", max_n, *flags]
        batch.add(name, argv, _check_instances(exhaustive_instances(max_m, max_n)))
    batch.big = batch.commands[-1].name

    sampled = [(10, 4)] if tiny else [(200, 12), (100, 30)]
    for samples, size in sampled:
        argv = ["theorem1-verify", "--samples", samples, "--max-m", size, "--max-n", size]
        argv += ["--seed", rng.randrange(10**6)]
        batch.add(f"sampled-{samples}x{size}", argv, _check_instances(samples))

    # the spectra fix nu: Fano and its complement at mu^2 = 2, Paley(23) at 6,
    # the order-16 Sylvester design at 4; then seeded pairs on each design
    _add_design_rank(batch, "design-fano", "fano", "1/2", 1, 2)
    _add_design_rank(batch, "design-complement-fano", "complement-fano", "1/2", 1, 2)
    _add_design_rank(batch, "design-paley23", "paley-hadamard", "1/2", 2, 3, q=23)
    _add_design_rank(batch, "design-sylvester16", "sylvester-hadamard", "1/4", 4, 1, k=4)
    designs = [("fano", 23, 3), ("paley-hadamard", 11, 3)]
    if not tiny:
        designs += [("complement-fano", 23, 3), ("sylvester-hadamard", 23, 3)]
    for design, q, k in designs:
        theta, alpha, beta = _linear_pair(rng)
        _add_design_rank(batch, f"design-{design}-seeded", design, theta, alpha, beta, q, k)

    for i in range(2 if tiny else 4):
        theta, alpha, beta = _linear_pair(rng)
        mu2 = mu_squared(linear_values(theta, Fraction(alpha), Fraction(beta)))
        argv = ["mu", "--theta", theta, "--alpha", alpha, "--beta", beta]
        batch.add(f"mu-linear-{i}", argv, _check_mu(mu2))
        table = _table_pair(rng)
        mu2 = mu_squared([Fraction(v) for v in table])
        batch.add(f"mu-table-{i}", ["mu", "--table", *table], _check_mu(mu2))

    # known defect: a zero cross value on K_{1,1} escapes the floor max(m, n)
    argv = ["theorem1-verify", "--samples", 50, "--max-m", 1, "--max-n", 1, "--seed", 0]
    batch.add("probe-k11-zero-cross", argv, _check_instances(50))
    return batch


def _dense(rng, workdir: Path, tiny: bool) -> Batch:
    batch = Batch()
    n, samples = (12, 2) if tiny else (120, 2)
    seed = rng.randrange(10**6)
    theta = Fraction(1, 2)

    def check_ranks(report):
        ranks = report["ranks"]
        require(len(ranks) == samples, f"{len(ranks)} ranks for {samples} samples")
        for i, rank in enumerate(ranks):
            # rank mod P equals the rank over Q unless P divides a minor (odds < n/P)
            floor = tournament_rank_floor(n, seed + i, theta)
            require(rank == floor, f"sample {i}: rank {rank}, rank mod P is {floor}")
        hits = sum(1 for rank in ranks if rank >= n - 1)
        require(report["near_full_rank_fraction"] == f"{hits}/{samples}", "hit count is wrong")
        require(report["near_full_rank_ok"] == (hits * 100 >= 95 * samples), "hit verdict is wrong")

    argv = ["random-rank-stats", "--n", n, "--samples", samples, "--seed", seed]
    batch.add(f"tournaments-n{n}", argv + ["--theta", theta], check_ranks)
    batch.big = batch.commands[-1].name

    # the pair sets the size of the entries and so the cost of the elimination,
    # which differs by up to 1.5x between pairs of one-digit values: it is fixed
    q = 11 if tiny else 83
    _add_design_rank(batch, f"design-paley{q}", "paley-hadamard", "1/2", 4, 5, q=q)

    shapes = [(6, 9, 6), (9, 6, 6), (8, 8, 5)] if tiny else [
        (120, 200, 120),
        (150, 150, 120),
        (160, 160, 159),
    ]
    _add_csv_ranks(batch, "csv", workdir, rng, shapes, d=0, spread=9)
    return batch


def _quadratic(rng, workdir: Path, tiny: bool) -> Batch:
    batch = Batch()
    cases = [("1/2", "+", 6), ("2/5", "+", 5), ("3/11", "-", 4)] if tiny else [
        ("1/2", "+", 60),
        ("1/2", "-", 30),
        ("1/3", "+", 30),
        ("1/3", "-", 30),
        ("2/5", "+", 40),
        ("2/5", "-", 40),
        ("3/11", "+", 40),
        ("3/11", "-", 40),
    ]
    for theta_text, sign_, n in cases:
        theta = Fraction(theta_text)
        beta = matched_root(theta, sign_)
        mu2 = mu_squared(linear_values(theta, Fraction(1), beta))
        # K_{n,n} minus a matching: B B^T = (J - I)^2 has eigenvalue 1 with
        # multiplicity n - 1, and (n-1)^2 = 1 once more when n = 2
        nu = n - 1 + (n == 2)

        def check(report, n=n, beta=beta, mu2=mu2, nu=nu):
            require(parse(report["beta"]) == beta, f"beta = {report['beta']}, not {fmt(beta)}")
            r = report["report"]
            require((r["m"], r["n"]) == (n, n), "parts differ from n")
            _check_mu(mu2)(r)
            check_sandwich(r, nu)
            require(r["exact_rank"] <= n + 3, f"rank {r['exact_rank']} exceeds n + 3")
            require(report["rank_at_most_n_plus_3"] is True, "rank_at_most_n_plus_3 is not true")

        argv = ["theorem2", "--theta", theta_text, "--n", n, "--sign", sign_]
        batch.add(f"theorem2-{theta_text}{sign_}-n{n}", argv, check)
    batch.big = batch.commands[0].name

    # d sets the size of the entries, and so the cost of the rank: each shape
    # has its own fixed d
    shapes = [(5, 7, 5, 2), (6, 6, 4, 3)] if tiny else [(50, 80, 50, 2), (80, 50, 49, 3), (70, 70, 55, 5)]
    for rows, cols, r, d in shapes:
        _add_csv_ranks(batch, f"csv-sqrt{d}", workdir, rng, [(rows, cols, r)], d=d, spread=3)

    d = rng.choice([2, 3, 5, 6, 7])

    for i in range(3):
        theta, alpha, beta = _linear_pair(rng)
        alpha_q = Quad(alpha, rng.randint(1, 3), d)
        mu2 = mu_squared(linear_values(theta, alpha_q, Fraction(beta)))
        argv = ["mu", "--theta", theta, "--alpha", fmt(alpha_q), "--beta", beta]
        batch.add(f"mu-sqrt{d}-{i}", argv, _check_mu(mu2))

    # known defect: an irrational mu^2 is rejected instead of given its sandwich
    _add_design_rank(batch, "probe-fano-irrational-mu", "fano", "1/2", 1, "1+1*sqrt(2)")
    return batch


def _small(rng, workdir: Path, tiny: bool) -> Batch:
    """The rank-sandwich sweep, then the designs and families; the Paley
    Hadamard matrix of the second part is the largest command."""
    batch = _sweep(rng, workdir, tiny)
    combinatorics = _combinatorics(rng, workdir, tiny)
    batch.commands += combinatorics.commands
    batch.big = combinatorics.big
    return batch


def _large(rng, workdir: Path, tiny: bool) -> Batch:
    """The integer ranks, then the same layers over Q(sqrt d); the n = 120
    tournaments are the largest command."""
    batch = _dense(rng, workdir, tiny)
    batch.commands += _quadratic(rng, workdir, tiny).commands
    return batch


def _relabeled_sunflower(rng, k: int, n: int) -> dict:
    """The bisection-closed sunflower family over [k], moved onto random points of [n]."""
    sets = [(1, j) for j in range(2, k + 1)]
    sets += [(1, 2, 2 * j + 1, 2 * j + 2) for j in range(1, k // 2)]
    points = rng.sample(range(1, n + 1), k)
    return {"n": n, "sets": [sorted(points[x - 1] for x in s) for s in sets]}


def _write_family(path: Path, family: dict) -> None:
    path.write_text(json.dumps(family), encoding="utf-8")


def _check_family(n: int, size: int):
    def check(report):
        family = report["family"]
        require(family["n"] == n, f"ground set [1..{family['n']}], expected [1..{n}]")
        masks = check_bisection_closed(family)
        require(report["size"] == len(masks) == size, f"{len(masks)} sets, expected {size}")

    return check


def _add_family_check(batch, source: str, path: Path) -> None:
    """family-check on the family that command `source` reported earlier in the batch."""
    expected = {}

    def prepare(reports):
        if source not in reports:
            raise CheckFailed(f"input unavailable: {source} failed")
        family = reports[source]["family"]
        _write_family(path, family)
        expected["size"] = len(family["sets"])

    def check(report):
        require(report["ok"] is True and report["violation"] is None, "family-check rejected it")
        require(report["size"] == expected["size"], "size differs from the checked file")

    batch.add(f"check-{source}", ["family-check", "--in", path], check, prepare)


def _combinatorics(rng, workdir: Path, tiny: bool) -> Batch:
    batch = Batch()

    def check_hadamard_report(order):
        def check(report):
            require(report["order"] == order, f"order {report['order']}, expected {order}")
            rows = report["rows"]
            check_hadamard(rows, order)
            normalized = all(v == 1 for v in rows[0]) and all(row[0] == 1 for row in rows)
            require(report["normalized"] == normalized, "normalized flag is wrong")

        return check

    q = 19 if tiny else 307
    argv = ["hadamard", "--construction", "paley", "--q", q]
    batch.add(f"hadamard-paley{q}", argv, check_hadamard_report(q + 1))
    batch.big = batch.commands[-1].name
    k = 3 if tiny else 8
    argv = ["hadamard", "--construction", "sylvester", "--k", k]
    batch.add(f"hadamard-sylvester{k}", argv, check_hadamard_report(2**k))

    q, k = (11, 3) if tiny else (131, 6)
    for design in ("paley-hadamard", "sylvester-hadamard"):
        params = _design_params(design, q, k)

        def check(report, params=params):
            check_design(report["design"], *params)

        batch.add(f"design-{design}", ["design", "--design", design, "--q", q, "--k", k], check)

    order = 8 if tiny else 16
    name = f"family-hadamard{order}"
    argv = ["family-build", "--kind", "hadamard", "--order", order]
    batch.add(name, argv, _check_family(order, 3 * order // 2 - 2))
    _add_family_check(batch, name, workdir / f"{name}.json")
    n = rng.randrange(8, 21, 2)
    name = f"family-sunflower{n}"
    batch.add(name, ["family-build", "--kind", "sunflower", "--n", n], _check_family(n, 3 * n // 2 - 2))
    _add_family_check(batch, name, workdir / f"{name}.json")

    for n in (9, 10) if tiny else range(9, 14):
        seed_family = _relabeled_sunflower(rng, 4 if n <= 11 else 6, n)
        seed_path = workdir / f"seed-{n}.json"
        _write_family(seed_path, seed_family)
        seed_masks = {sum(1 << (x - 1) for x in s) for s in seed_family["sets"]}

        def check(report, n=n, seed_masks=seed_masks):
            require(report["seed_size"] == len(seed_masks), "seed_size differs from the seed file")
            family = report["family"]
            require(family["n"] == n, f"ground set [1..{family['n']}], expected [1..{n}]")
            masks = check_bisection_closed(family)
            require(report["size"] == len(masks), "size differs from the family listed")
            require(seed_masks <= set(masks), "the family drops a seed set")
            require(report["beats_bound"] == (len(masks) > 3 * n // 2 - 2), "beats_bound is wrong")
            extra = addable_even_set(n, frozenset(masks))
            if extra is not None:
                raise CheckFailed(f"search stopped short: set {extra:b} could still be added")

        name = f"search-n{n}"
        argv = ["family-search", "--n", n, "--seed-file", seed_path, "--budget", SEARCH_BUDGET]
        batch.add(name, argv, check)
        _add_family_check(batch, name, workdir / f"{name}.json")
    return batch
