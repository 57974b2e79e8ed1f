import random
from fractions import Fraction

import pytest
import sympy

from symrank import spectra
from symrank.errors import DegenerateEnsembleError, GoodPairError
from symrank.exactfield import QuadExt
from symrank.ensemble import BipartiteGraph, TwoValuePair, matrix_from_bigraph
from symrank.linalg import rank_rows
from symrank.spectra import (
    _gram_smaller_side,
    bigraph_multiplicity,
    complete_minus_matching,
    low_rank_matching_instance,
    rank_sandwich,
)

from oracle import (
    bigraph_edges,
    bigraph_from_edges,
    complete_bigraph,
    empty_bigraph,
    rank_naive,
)

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
    g = empty_bigraph(3, 4)
    assert bigraph_multiplicity(g, Fraction(1)) == 0
    assert bigraph_multiplicity(g, Fraction(-2)) == 0
    with pytest.raises(ValueError):
        bigraph_multiplicity(g, QuadExt(0, 1, 5))  # irrational mu^2 rejected


def _eliminated_nullity(gram, mu2: Fraction) -> int:
    # q G - p I through rank_rows, for every mu2 = p/q, with no bound applied
    p, q = mu2.numerator, mu2.denominator
    rows = [[q * v - (p if i == j else 0) for j, v in enumerate(row)] for i, row in enumerate(gram)]
    return len(gram) - rank_rows(rows)


def _sympy_nullity(gram, mu2: Fraction) -> int:
    size = len(gram)
    shifted = sympy.Matrix(gram) - sympy.Rational(mu2.numerator, mu2.denominator) * sympy.eye(size)
    return size - shifted.rank()


def test_multiplicity_matches_full_elimination_and_sympy():
    # integer mu2 up to one past the largest Gram row sum, and p/q with q <= 4
    rng = random.Random(53)
    eigen_hits = 0
    for _ in range(60):
        m, n = rng.randint(1, 7), rng.randint(1, 7)
        g = BipartiteGraph(m, n, [rng.getrandbits(n) for _ in range(m)])
        gram = _gram_smaller_side(g)
        bound = max(map(sum, gram))
        draws = {Fraction(max(bound, 1)), Fraction(bound + 1)}
        draws |= {Fraction(rng.randint(1, bound + 1)) for _ in range(5)}
        draws |= {Fraction(rng.randint(1, 4 * bound + 4), rng.randint(2, 4)) for _ in range(3)}
        for mu2 in draws:
            nu = bigraph_multiplicity(g, mu2)
            assert nu == _eliminated_nullity(gram, mu2) == _sympy_nullity(gram, mu2), (g.row_masks, mu2)
            eigen_hits += nu > 0
    assert eigen_hits >= 20


def test_multiplicity_at_the_row_sum_bound():
    from symrank.designs import fano, incidence_bigraph

    for m, n in ((1, 1), (2, 3), (4, 2), (3, 5), (6, 6)):
        g = complete_bigraph(m, n)  # Gram (smaller side) is max(m, n) J: eigenvalue mn once
        assert bigraph_multiplicity(g, Fraction(m * n)) == 1
        assert bigraph_multiplicity(g, Fraction(m * n + 1)) == 0
    assert bigraph_multiplicity(complete_minus_matching(2), Fraction(1)) == 2
    heawood = incidence_bigraph(fano())  # Gram 2I + J: row sum 9, spectrum {9, 2^6}
    assert bigraph_multiplicity(heawood, Fraction(2)) == 6
    assert bigraph_multiplicity(heawood, Fraction(9)) == 1
    assert bigraph_multiplicity(heawood, Fraction(10)) == 0
    empty = empty_bigraph(4, 3)  # bound 0: no positive mu2 is an eigenvalue
    assert bigraph_multiplicity(empty, Fraction(1)) == 0
    assert bigraph_multiplicity(empty, Fraction(1, 3)) == 0


def test_multiplicity_eliminates_only_an_integer_inside_the_bound(monkeypatch):
    from symrank.designs import fano, incidence_bigraph

    calls = []

    def spy(rows, d=None):
        calls.append(len(rows))
        return rank_rows(rows, d)

    monkeypatch.setattr(spectra, "rank_rows", spy)
    heawood = incidence_bigraph(fano())
    for mu2 in (Fraction(5, 2), Fraction(1, 3), Fraction(10), Fraction(100)):
        assert bigraph_multiplicity(heawood, mu2) == 0
    assert bigraph_multiplicity(empty_bigraph(3, 3), Fraction(1)) == 0
    assert calls == []
    assert bigraph_multiplicity(heawood, Fraction(3)) == 0  # integer in [1, 9], not an eigenvalue
    assert bigraph_multiplicity(heawood, 9) == 1
    assert calls == [7, 7]


def test_multiplicity_side_independence():
    # both Gram products yield the same count at a nonzero eigenvalue
    rng = random.Random(41)
    for _ in range(60):
        m, n = rng.randint(1, 6), rng.randint(1, 6)
        g = BipartiteGraph(m, n, [rng.getrandbits(n) for _ in range(m)])
        transposed = bigraph_from_edges(n, m, [(j, i) for i, j in bigraph_edges(g)])
        for mu2 in (Fraction(1), Fraction(2), Fraction(1, 2)):
            assert bigraph_multiplicity(g, mu2) == bigraph_multiplicity(transposed, mu2)


def test_complete_minus_matching_shape():
    g1 = complete_minus_matching(1)
    assert g1.row_masks == [0]
    g3 = complete_minus_matching(3)
    assert g3.row_masks == [0b110, 0b101, 0b011]
    assert all(mask.bit_count() == 2 for mask in g3.row_masks + g3.column_masks())
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
    g = empty_bigraph(2, 2)
    with pytest.raises(GoodPairError):
        rank_sandwich(TwoValuePair.table(1, 2, Fraction(0), 1, 2, Fraction(3)), g)
    with pytest.raises(DegenerateEnsembleError):
        rank_sandwich(TwoValuePair.table(1, 2, Fraction(1), Fraction(2), Fraction(2), Fraction(3)), g)


def test_rank_sandwich_k11_zero_cross_value():
    # theta = 1/4, alpha = -1, beta = 2 gives f(alpha, beta) = 0: K_{1,1} has rank 0
    pair = TwoValuePair.linear(Fraction(1, 4), -1, 2)
    assert pair.value_ab() == 0
    report = rank_sandwich(pair, complete_bigraph(1, 1))
    assert (report.exact_rank, report.rank_lower) == (0, 0)
    assert rank_sandwich(pair, empty_bigraph(1, 1)).exact_rank == 2


def test_rank_sandwich_one_vertex_part_floor():
    # a part of size 1 contributes no diagonal rank; the other part's k(J - I) does
    pair = TwoValuePair.linear(Fraction(1, 4), -1, 2)
    for n in range(2, 5):
        report = rank_sandwich(pair, complete_bigraph(1, n))
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
    g = complete_minus_matching(5)
    beta, report = low_rank_matching_instance(Fraction(2, 5), 5, "+")
    assert beta == 4
    assert report.exact_rank <= 8
    matrix = matrix_from_bigraph(TwoValuePair.linear(Fraction(2, 5), 1, beta), g)
    assert rank_naive(matrix) == report.exact_rank

    beta, report = low_rank_matching_instance(HALF, 5, "+")
    assert beta == QuadExt(Fraction(3, 2), Fraction(1, 2), 5)
    assert report.exact_rank <= 8
    matrix = matrix_from_bigraph(TwoValuePair.linear(HALF, 1, beta), g)
    assert rank_naive(matrix) == report.exact_rank

    beta, report = low_rank_matching_instance(Fraction(3, 11), 4, "+")
    assert beta == 9
    assert report.exact_rank <= 7

    beta_minus, report_minus = low_rank_matching_instance(HALF, 4, "-")
    assert beta_minus == QuadExt(Fraction(3, 2), Fraction(-1, 2), 5)
    assert report_minus.exact_rank <= 7


def test_low_rank_matching_validation():
    with pytest.raises(ValueError):
        low_rank_matching_instance(Fraction(3, 2), 4, "+")


def test_report_serialization():
    from symrank.designs import fano, incidence_bigraph

    report = rank_sandwich(TwoValuePair.linear(HALF, 1, 2), incidence_bigraph(fano()))
    data = report.to_dict()
    assert data["mu_squared"] == "2" and data["nu"] == 6 and data["exact_rank"] == 8
