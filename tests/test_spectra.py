import random
from fractions import Fraction

import pytest

from symrank.errors import DegenerateEnsembleError, GoodPairError
from symrank.exactfield import QuadExt
from symrank.ensemble import BipartiteGraph, TwoValuePair
from symrank.spectra import (
    bigraph_multiplicity,
    complete_minus_matching,
    low_rank_matching_instance,
    rank_sandwich,
    rowlinson_check,
)

from oracle import rank_naive

HALF = Fraction(1, 2)


def test_matching_complement_multiplicity():
    # spectrum of K_{n,n} minus a matching has +1 with multiplicity n-1; at
    # n = 2 the extreme eigenvalue n-1 coincides with +1 and the counts merge
    for n in (1, 3, 5, 8):
        assert bigraph_multiplicity(complete_minus_matching(n), Fraction(1)) == n - 1
    assert bigraph_multiplicity(complete_minus_matching(2), Fraction(1)) == 2


def test_heawood_multiplicity():
    from symrank.designs import fano, incidence_bigraph

    assert bigraph_multiplicity(incidence_bigraph(fano()), Fraction(2)) == 6


def test_multiplicity_edge_cases():
    g = BipartiteGraph.empty(3, 4)
    assert bigraph_multiplicity(g, Fraction(1)) == 0
    assert bigraph_multiplicity(g, Fraction(-2)) == 0
    with pytest.raises(ValueError):
        bigraph_multiplicity(g, Fraction(0))
    with pytest.raises(ValueError):
        bigraph_multiplicity(g, QuadExt(0, 1, 5))  # irrational mu^2 rejected


def test_multiplicity_side_independence():
    # both Gram products yield the same count at a nonzero eigenvalue
    rng = random.Random(41)
    for _ in range(60):
        m, n = rng.randint(1, 6), rng.randint(1, 6)
        g = BipartiteGraph(m, n, [rng.getrandbits(n) for _ in range(m)])
        transposed = BipartiteGraph.from_edges(n, m, [(j, i) for i, j in g.edges()])
        for mu2 in (Fraction(1), Fraction(2), Fraction(1, 2)):
            assert bigraph_multiplicity(g, mu2) == bigraph_multiplicity(transposed, mu2)


def test_complete_minus_matching_shape():
    g1 = complete_minus_matching(1)
    assert g1.edge_count() == 0
    g3 = complete_minus_matching(3)
    assert g3.edge_count() == 6
    assert all(d == 2 for d in g3.degrees())
    with pytest.raises(ValueError):
        complete_minus_matching(0)


def test_rank_sandwich_fano():
    from symrank.designs import fano, incidence_bigraph

    report = rank_sandwich(TwoValuePair.linear(HALF, 1, 2), incidence_bigraph(fano()))
    assert report.nu == 6
    assert (report.rank_lower, report.rank_upper) == (7, 10)
    assert report.exact_rank == 8


def test_rank_sandwich_negative_mu2_table_pair():
    rng = random.Random(43)
    pair = TwoValuePair.table(1, 2, Fraction(3), Fraction(1), Fraction(0), Fraction(-2))
    for _ in range(20):
        m, n = rng.randint(1, 6), rng.randint(1, 6)
        g = BipartiteGraph(m, n, [rng.getrandbits(n) for _ in range(m)])
        report = rank_sandwich(pair, g)
        assert report.nu == 0
        assert report.exact_rank >= m + n - 2


def test_rank_sandwich_hypotheses():
    g = BipartiteGraph.empty(2, 2)
    with pytest.raises(GoodPairError):
        rank_sandwich(TwoValuePair.table(1, 2, Fraction(0), 1, 2, Fraction(3)), g)
    with pytest.raises(DegenerateEnsembleError):
        rank_sandwich(TwoValuePair.table(1, 2, Fraction(1), Fraction(2), Fraction(2), Fraction(3)), g)


def test_rank_sandwich_k11_zero_cross_value():
    # theta = 1/4, alpha = -1, beta = 2 gives f(alpha, beta) = 0: K_{1,1} has rank 0
    pair = TwoValuePair.linear(Fraction(1, 4), -1, 2)
    assert pair.value_ab() == 0
    report = rank_sandwich(pair, BipartiteGraph.complete(1, 1))
    assert (report.exact_rank, report.rank_lower) == (0, 0)
    assert rank_sandwich(pair, BipartiteGraph.empty(1, 1)).exact_rank == 2


def test_rank_sandwich_one_vertex_part_floor():
    # a part of size 1 contributes no diagonal rank; the other part's k(J - I) does
    pair = TwoValuePair.linear(Fraction(1, 4), -1, 2)
    for n in range(2, 5):
        report = rank_sandwich(pair, BipartiteGraph.complete(1, n))
        assert report.rank_lower >= n and report.exact_rank >= n


def test_rank_sandwich_random_instances():
    rng = random.Random(47)
    pair = TwoValuePair.linear(HALF, 1, 2)
    for _ in range(150):
        m, n = rng.randint(1, 5), rng.randint(1, 5)
        g = BipartiteGraph(m, n, [rng.getrandbits(n) for _ in range(m)])
        report = rank_sandwich(pair, g)  # raises VerificationError on violation
        assert max(m, n) <= report.exact_rank <= m + n


def test_low_rank_matching_instances():
    beta, matrix, report = low_rank_matching_instance(Fraction(2, 5), 5, "+")
    assert beta == 4
    assert report.exact_rank <= 8
    assert rank_naive(matrix) == report.exact_rank

    beta, matrix, report = low_rank_matching_instance(HALF, 5, "+")
    assert beta == QuadExt(Fraction(3, 2), Fraction(1, 2), 5)
    assert report.exact_rank <= 8
    assert rank_naive(matrix) == report.exact_rank

    beta, _, report = low_rank_matching_instance(Fraction(3, 11), 4, "+")
    assert beta == 9
    assert report.exact_rank <= 7

    beta_minus, _, report_minus = low_rank_matching_instance(HALF, 4, "-")
    assert beta_minus == QuadExt(Fraction(3, 2), Fraction(-1, 2), 5)
    assert report_minus.exact_rank <= 7


def test_low_rank_matching_validation():
    with pytest.raises(ValueError):
        low_rank_matching_instance(Fraction(3, 2), 4, "+")
    with pytest.raises(ValueError):
        low_rank_matching_instance(HALF, 4, "?")


def test_rowlinson_heawood():
    from symrank.designs import fano, incidence_bigraph

    report = rowlinson_check(incidence_bigraph(fano()), Fraction(2))
    assert report.applicable
    assert report.nu == 6 and report.max_degree == 3 and report.order == 14
    assert report.bound_a_holds  # 6 <= 14 - 1 - 3
    assert not report.bound_b_applicable


def test_rowlinson_matching_complement():
    for n in (4, 6):
        g = complete_minus_matching(n)
        report = rowlinson_check(g, Fraction(1), assume_positive_root=True)
        assert report.applicable
        assert report.nu == n - 1 and report.max_degree == n - 1
        assert report.bound_a_holds  # n-1 <= 2n-1-(n-1) = n
        assert not report.bound_b_applicable


def test_rowlinson_inapplicable_cases():
    disconnected = BipartiteGraph.empty(4, 4)
    assert not rowlinson_check(disconnected, Fraction(2)).applicable
    small = complete_minus_matching(2)
    assert not rowlinson_check(small, Fraction(1), assume_positive_root=True).applicable
    ambiguous = complete_minus_matching(6)
    report = rowlinson_check(ambiguous, Fraction(1))
    assert not report.applicable and "ambiguous" in report.reason


def test_report_serialization():
    from symrank.designs import fano, incidence_bigraph

    report = rank_sandwich(TwoValuePair.linear(HALF, 1, 2), incidence_bigraph(fano()))
    data = report.to_dict()
    assert data["mu_squared"] == "2" and data["nu"] == 6 and data["exact_rank"] == 8
