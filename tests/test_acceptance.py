"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Every tolerance is exact (integer or rational equality); runtime budgets are
asserted as stated.  Run with `pytest tests/test_acceptance.py -v -s` to see
the per-criterion lines.
"""

import itertools
import random
import time
import warnings
from fractions import Fraction

from sympy import ZZ
from sympy.polys.matrices import DomainMatrix

from symrank.designs import (
    complement_design,
    design_rank_instance,
    fano,
    hadamard_design,
    incidence_bigraph,
    onebytwo_scan,
    paley,
    prime_powers_up_to,
    replicate_bigraph,
    sylvester,
)
from symrank.ensemble import (
    BipartiteGraph,
    LinearTheta,
    TwoValuePair,
    matrix_from_tournament,
    mu_squared,
    random_tournament,
)
from symrank.families import (
    SetFamily,
    fano_family,
    hadamard_family,
    is_theta_intersecting,
    search_bisection_closed,
    sunflower_family,
)
from symrank.linalg import Matrix
from symrank.spectra import (
    bigraph_multiplicity,
    low_rank_matching_instance,
    rank_sandwich,
)

from oracle import rank_naive

HALF = Fraction(1, 2)


def report(number: int, label: str, elapsed: float, budget: float) -> None:
    print(f"[PASS] criterion {number}: {label} ({elapsed:.1f}s, budget {budget:.0f}s)")
    assert elapsed < budget, f"criterion {number} exceeded its {budget}s budget"


def test_criterion_01_sandwich_exhaustive_small():
    start = time.monotonic()
    pair = TwoValuePair.linear(HALF, 1, 2)
    checked = 0
    for m in range(1, 5):
        for n in range(1, 5):
            for code in range(1 << (m * n)):
                masks = [(code >> (i * n)) & ((1 << n) - 1) for i in range(m)]
                rep = rank_sandwich(pair, BipartiteGraph(m, n, masks))
                assert rep.rank_lower <= rep.exact_rank <= rep.rank_upper
                checked += 1
    assert checked == 74954
    report(1, f"sandwich exhaustive on {checked} graphs (m,n <= 4), zero violations",
           time.monotonic() - start, 30)


def _random_admissible_pair(rng: random.Random) -> TwoValuePair:
    if rng.random() < 0.5:
        theta = Fraction(rng.randint(1, 9), 10)
        alpha = Fraction(rng.randint(1, 12), rng.randint(1, 4))
        beta = Fraction(rng.randint(1, 12), rng.randint(1, 4))
        while beta == alpha:
            beta = Fraction(rng.randint(1, 12), rng.randint(1, 4))
        return TwoValuePair.linear(theta, alpha, beta)

    def nonzero(lo, hi):
        v = 0
        while v == 0:
            v = rng.randint(lo, hi)
        return Fraction(v)

    f_aa = nonzero(-6, 6)
    f_bb = nonzero(-6, 6)
    f_ab = Fraction(rng.randint(-6, 6))
    f_ba = f_ab
    while f_ba == f_ab:
        f_ba = Fraction(rng.randint(-6, 6))
    return TwoValuePair.table(Fraction(1), Fraction(2), f_aa, f_ab, f_ba, f_bb)


def test_criterion_02_sandwich_randomized():
    start = time.monotonic()
    rng = random.Random(20240)
    negative_product_cases = 0
    for _ in range(200):
        m = rng.randint(1, 12)
        n = rng.randint(1, 12)
        g = BipartiteGraph(m, n, [rng.getrandbits(n) for _ in range(m)])
        pair = _random_admissible_pair(rng)
        rep = rank_sandwich(pair, g)
        assert rep.rank_lower <= rep.exact_rank <= rep.rank_upper
        if pair.value_aa() * pair.value_bb() < 0:
            negative_product_cases += 1
            assert rep.nu == 0
            assert rep.exact_rank >= m + n - 2
    assert negative_product_cases >= 20
    report(2, f"sandwich on 200 random graphs/pairs ({negative_product_cases} with "
              "f(a,a)f(b,b) < 0, all nu = 0), zero violations",
           time.monotonic() - start, 120)


def test_criterion_03_matched_root_instances():
    start = time.monotonic()
    for theta in (HALF, Fraction(2, 5), Fraction(3, 11), Fraction(1, 3)):
        for n in range(2, 41):
            for sign in ("+", "-"):
                beta, rep = low_rank_matching_instance(theta, n, sign)
                assert rep.exact_rank <= n + 3
                if theta == Fraction(2, 5) and sign == "+":
                    assert beta == 4
                if theta == Fraction(3, 11) and sign == "+":
                    assert beta == 9
    report(3, "rank <= n+3 for 4 thetas x n in 2..40 x both roots; "
              "beta+ = 4 (theta=2/5) and 9 (theta=3/11) exact",
           time.monotonic() - start, 120)


def test_criterion_04_fano_instances_and_replication():
    start = time.monotonic()
    pair = TwoValuePair.linear(HALF, 1, 2)
    rep = design_rank_instance(fano(), pair)
    assert rep.nu == 6
    assert 7 <= rep.exact_rank <= 10

    co = complement_design(fano())
    assert co.k - co.lam == 2 == mu_squared(pair)
    rep_co = design_rank_instance(co, pair)
    assert rep_co.nu == 6
    assert 7 <= rep_co.exact_rank <= 10

    heawood = incidence_bigraph(fano())
    for copies in range(1, 11):
        rep_c = rank_sandwich(pair, replicate_bigraph(heawood, copies))
        assert rep_c.exact_rank <= 8 * copies + 2
    report(4, "Fano nu = 6 with rank in [7,10], complement likewise, replicated "
              "Heawood rank <= 8c+2 for c in 1..10",
           time.monotonic() - start, 30)


def test_criterion_05_hadamard_design_instance():
    start = time.monotonic()
    design = hadamard_design(paley(23))
    assert (design.v, design.k, design.lam) == (23, 11, 5)
    pair = TwoValuePair.linear(HALF, 2, 3)
    assert mu_squared(pair) == 6 == design.k - design.lam
    rep = design_rank_instance(design, pair)
    assert rep.nu == 22
    assert rep.exact_rank <= 26
    g = incidence_bigraph(design)
    base = bigraph_multiplicity(g, Fraction(6))
    for copies in range(1, 6):
        assert bigraph_multiplicity(replicate_bigraph(g, copies), Fraction(6)) == copies * base
    report(5, "Paley(23) design 2-(23,11,5): mu^2 = 6 = k - lambda, nu = 22, "
              "46x46 rank <= 26; multiplicities add under replication",
           time.monotonic() - start, 30)


def test_criterion_06_squared_difference_low_rank():
    # the oracle is sympy's rank over ZZ, built directly as a DomainMatrix
    # (building a sympy.Matrix first and converting it costs more than the rank)
    start = time.monotonic()
    for n in range(3, 201):
        rows = [[(i - j) ** 2 for j in range(n)] for i in range(n)]
        m = Matrix(n, n, [x for row in rows for x in row])
        r = m.rank()
        assert r <= 3
        oracle = DomainMatrix([[ZZ(x) for x in row] for row in rows], (n, n), ZZ).rank()
        assert oracle == 3 == r
    report(6, "squared-difference matrix has rank exactly 3 for n in 3..200, "
              "oracle-confirmed", time.monotonic() - start, 60)


def test_criterion_07_coprime_pair_scan():
    start = time.monotonic()
    for pp in prime_powers_up_to(50):
        expected = [(1, 2)] if pp == 2 else []
        assert onebytwo_scan(pp, 10**4) == expected
    for t in range(2, 8):
        assert onebytwo_scan(t * t, 10**4) == []
    report(7, "scan empty for prime powers <= 50 except 2 -> [(1,2)]; "
              "Menon values t^2 empty for t in 2..7",
           time.monotonic() - start, 60)


def test_criterion_08_mu_squared_properties():
    start = time.monotonic()
    rng = random.Random(1729)
    checked = 0
    while checked < 1000:
        theta = Fraction(rng.randint(1, 19), 20)
        alpha = Fraction(rng.randint(-30, 30), rng.randint(1, 8))
        beta = Fraction(rng.randint(-30, 30), rng.randint(1, 8))
        k = Fraction(rng.randint(-10, 10), rng.randint(1, 4))
        if 0 in (alpha, beta, k) or alpha == beta:
            continue
        base = mu_squared(TwoValuePair.linear(theta, alpha, beta))
        assert base == mu_squared(TwoValuePair.linear(theta, beta, alpha))
        assert base == mu_squared(TwoValuePair.linear(theta, k * alpha, k * beta))
        assert base == mu_squared(TwoValuePair.linear(theta, 1, alpha / beta))
        assert base == mu_squared(TwoValuePair.linear(theta, 1, beta / alpha))
        checked += 1
    report(8, "mu^2 symmetry, scale invariance, and ratio form exact on 1000 "
              "random rational triples", time.monotonic() - start, 10)


def test_criterion_09_families():
    start = time.monotonic()
    for n in range(4, 66, 2):
        fam = sunflower_family(n)
        assert len(fam) == 3 * n // 2 - 2
        assert is_theta_intersecting(fam, HALF)

    ff = fano_family()
    assert len(ff) == 14 and is_theta_intersecting(ff, HALF)

    h8 = hadamard_family(sylvester(3))
    assert len(h8) == 10 and is_theta_intersecting(h8, HALF)
    h16 = hadamard_family(sylvester(4))
    assert len(h16) == 22 and is_theta_intersecting(h16, HALF)

    found = search_bisection_closed(8, sunflower_family(8), time_budget=60)
    assert len(found) >= 14 and is_theta_intersecting(found, HALF)

    # the full sunflower seed is maximal beyond n = 8, so the searches that
    # beat floor(3n/2) - 2 start from the 14-set family re-grounded
    for n in (10, 12):
        best = search_bisection_closed(n, fano_family(), time_budget=600)
        assert is_theta_intersecting(best, HALF)
        assert len(best) > 3 * n // 2 - 2

    # stretch goal, not build-failing: n up to 15
    for n in (13, 14, 15):
        best = search_bisection_closed(n, fano_family(), time_budget=60)
        if len(best) <= 3 * n // 2 - 2:
            warnings.warn(f"stretch search at n={n} reached only {len(best)}")
    report(9, "sunflower sizes exact to n = 64, fano 14, hadamard families 10 "
              "and 22, searches beat floor(3n/2)-2 for n in {8, 10, 12}",
           time.monotonic() - start, 700)


def test_criterion_10_random_tournament_ranks():
    start = time.monotonic()
    f = LinearTheta(HALF)
    values = [Fraction(k) for k in range(1, 31)]
    hits = 0
    for seed in range(50):
        t = random_tournament(30, seed)
        if matrix_from_tournament(f, values, t).rank() >= 29:
            hits += 1
    fraction = hits / 50
    if fraction < 0.95:
        warnings.warn(
            f"only {hits}/50 random tournaments reached rank >= 29; the guarantee "
            "is asymptotic, so this is a soft warning"
        )
    print(f"[INFO] criterion 10: {hits}/50 seeded tournaments at rank >= 29")
    report(10, "empirical high-rank statistic collected (soft threshold 95%)",
           time.monotonic() - start, 60)


def test_criterion_11_oracle_equivalence():
    start = time.monotonic()
    rng = random.Random(4096)
    for _ in range(10**4):
        r, c = rng.randint(1, 8), rng.randint(1, 8)
        m = Matrix(r, c, [rng.randint(-2, 2) for _ in range(r * c)])
        assert m.rank() == rank_naive(m)
    for entries in itertools.product((-1, 0, 1), repeat=9):
        m = Matrix(3, 3, list(entries))
        assert m.rank() == rank_naive(m)
    report(11, "fraction-free rank equals naive elimination on 10^4 random "
               "matrices up to 8x8 and all 3x3 over {-1,0,1}",
           time.monotonic() - start, 120)


def test_criterion_12_pair_seeded_searches_complete():
    start = time.monotonic()
    for n, size in ((8, 14), (9, 15), (10, 16)):
        best = search_bisection_closed(n, SetFamily(n, [(1, 2)]), time_budget=600)
        assert len(best) == size and is_theta_intersecting(best, HALF)
    report(12, "searches seeded from {1, 2} complete with sizes 14, 15, 16 "
               "for n = 8, 9, 10", time.monotonic() - start, 30)
