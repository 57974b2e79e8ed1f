import random
from fractions import Fraction

import pytest
import sympy
from sympy import ZZ
from sympy.polys.matrices import DomainMatrix

from symrank import spectra
from symrank.errors import DegenerateEnsembleError, GoodPairError
from symrank.exactfield import QuadExt, solve_monic_quadratic
from symrank.ensemble import BipartiteGraph, TwoValuePair, matrix_from_bigraph
from symrank.linalg import SMALL_RANK, rank_rows, ring_rows
from symrank.spectra import (
    bigraph_multiplicity,
    complete_minus_matching,
    ensemble_rank,
    low_rank_matching_instance,
    mu_squared,
    rank_sandwich,
)

from oracle import (
    bigraph_edges,
    bigraph_from_edges,
    complete_bigraph,
    empty_bigraph,
    rank_naive,
    replicate_bigraph,
    replicated_design_rank,
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


def _dense_gram(g) -> list[list[int]]:
    """B B^T or B^T B, whichever is smaller, from the 0/1 biadjacency matrix B."""
    b = [[mask >> j & 1 for j in range(g.n)] for mask in g.row_masks]
    if g.m > g.n:
        b = [list(column) for column in zip(*b)]
    return [[sum(x * y for x, y in zip(r, s)) for s in b] for r in b]


def _transposed(g) -> BipartiteGraph:
    return bigraph_from_edges(g.n, g.m, [(j, i) for i, j in bigraph_edges(g)])


def test_multiplicity_matches_full_elimination_and_sympy():
    # integer mu2 up to one past the largest Gram row sum, and p/q with q <= 4
    rng = random.Random(53)

    def graphs():
        for _ in range(60):
            m, n = rng.randint(1, 7), rng.randint(1, 7)
            yield BipartiteGraph(m, n, [rng.getrandbits(n) for _ in range(m)])
        # one-vertex sides, and m < n beside its transpose m > n
        yield from (empty_bigraph(1, 1), complete_bigraph(1, 1), empty_bigraph(1, 5))
        for g in (complete_bigraph(1, 4), BipartiteGraph(2, 6, [0b101101, 0b011110])):
            yield from (g, _transposed(g))
        g = BipartiteGraph(3, 5, [0b10011, 0b01110, 0b11001])
        yield from (g, _transposed(g))

    eigen_hits = 0
    for g in graphs():
        gram = g.gram()
        assert gram == _dense_gram(g), (g.m, g.n, g.row_masks)
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
        transposed = _transposed(g)
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


# -- the closed form on Gram matrices aI + bB -------------------------------------
#
# rank_sandwich reads nu and the rank off a Gram matrix aI + b(I_c (x) J_v) with
# no elimination.  Its oracles are the general route, bigraph_multiplicity and
# ensemble_rank called directly, and sympy's rank of the ensemble matrix itself
# where m + n <= 16.  replicated_design_rank shares the closed form's eigenvalue
# argument, so it is a sanity check only.


def _structured_graphs():
    """(graph, (v, k, lambda, copies) or None): every graph's Gram is aI + bB."""
    from symrank.designs import (
        complement_design,
        fano,
        hadamard_design,
        incidence_bigraph,
        paley,
        sylvester,
    )

    designs = [fano(), complement_design(fano())]
    designs += [hadamard_design(paley(q)) for q in (7, 11, 19, 23)]
    designs += [hadamard_design(sylvester(k)) for k in (3, 4, 5)]
    cases = []
    for design in designs:
        for copies in (1, 2, 3) if design.v <= 11 else (1,):
            params = (design.v, design.k, design.lam, copies)
            cases.append((replicate_bigraph(incidence_bigraph(design), copies), params))
    cases += [(complete_minus_matching(n), None) for n in range(1, 10)]
    cases += [(complete_bigraph(m, n), None) for m, n in ((1, 5), (4, 4), (5, 7), (8, 6), (7, 3))]
    cases.append((empty_bigraph(5, 6), None))
    return cases


def _pairs_at(t):
    """Pairs with mu^2 = t: linear ones over Z or over some Z[sqrt r], and table
    ones over Z, Z[sqrt 2] and Z[sqrt 3]; and one pair with mu^2 = -t."""
    for theta in (HALF, Fraction(1, 3), Fraction(2, 5), Fraction(3, 4)):
        # alpha = 1 and beta a root of x^2 - (2 + (1/theta - 1)^2 / t) x + 1
        for beta in solve_monic_quadratic(-(2 + (1 / theta - 1) ** 2 / Fraction(t)), 1):
            yield TwoValuePair.linear(theta, 1, beta)
    yield TwoValuePair.table(1, 2, Fraction(t), Fraction(3), Fraction(2), Fraction(1))
    for r in (2, 3):
        root = QuadExt(0, 1, r)
        for cross in (Fraction(1), QuadExt(1, 1, r)):
            yield TwoValuePair.table(1, 2, root, cross + root, cross, t * root)
    yield TwoValuePair.table(1, 2, Fraction(1), Fraction(3), Fraction(1), Fraction(-t))


def _sympy_rank(matrix) -> int:
    """sympy's rank of the matrix; over Q(sqrt d), half the rank over Q of the
    real form [[A, dB], [B, A]] of A + B sqrt(d), which is Q(sqrt d)-linear."""
    rows, d = ring_rows([matrix.row_list(i) for i in range(matrix.rows)])
    if d is not None:
        a_rows = [[a for a, _ in row] for row in rows]
        b_rows = [[b for _, b in row] for row in rows]
        rows = [ra + [d * b for b in rb] for ra, rb in zip(a_rows, b_rows)]
        rows += [rb + ra for ra, rb in zip(a_rows, b_rows)]
    shape = (len(rows), len(rows[0]))
    rank = DomainMatrix([[ZZ(x) for x in row] for row in rows], shape, ZZ).rank()
    return rank if d is None else rank // 2


def test_closed_form_matches_the_general_route_and_sympy(monkeypatch):
    closed, closed_form = [], spectra._closed_form

    def spy(pair, gram, mu2, p):
        found = closed_form(pair, gram, mu2, p)
        if found is not None:
            closed.append((found[0] > 0, pair.integral_values[0] is not None))
        return found

    monkeypatch.setattr(spectra, "_closed_form", spy)
    checked = 0
    for g, params in _structured_graphs():
        gram = g.gram()
        g0, off = gram[0][0], max(gram[0][1:], default=0)
        # the eigenvalues a = g0 - b and a + vb (the row sum), and a t that is neither
        targets = {t for t in (g0 - off, sum(gram[0])) if t > 0}
        for t in targets | {sum(gram[0]) + 1}:
            for pair in _pairs_at(t):
                report = rank_sandwich(pair, g)
                mu2 = mu_squared(pair)
                want = (bigraph_multiplicity(g, mu2), ensemble_rank(pair, g))
                assert (report.nu, report.exact_rank) == want, (g, t, pair.values)
                if g.m + g.n <= 16:
                    assert report.exact_rank == _sympy_rank(matrix_from_bigraph(pair, g))
                if params is not None:
                    rank, nu = replicated_design_rank(*params, pair.values)
                    assert (report.nu, report.exact_rank) == (nu, rank)
                checked += 1
    assert checked > 1200
    # the closed form answered with nu > 0 and with nu = 0, over Z and over Z[sqrt r]
    assert set(closed) == {(True, False), (True, True), (False, False), (False, True)}
    assert len(closed) > 1000


def _moved_edge_fano():
    from symrank.designs import fano, incidence_bigraph

    masks = list(incidence_bigraph(fano()).row_masks)
    low = masks[0] & -masks[0]
    masks[0] ^= low | next(1 << j for j in range(7) if not masks[0] >> j & 1)
    return BipartiteGraph(7, 7, masks)  # every degree still 3


def _flipped_paley11():
    from symrank.designs import hadamard_design, incidence_bigraph, paley

    masks = list(incidence_bigraph(hadamard_design(paley(11))).row_masks)
    masks[4] ^= 1 << 6
    return BipartiteGraph(11, 11, masks)


def _fano_and_paley11():
    from symrank.designs import fano, hadamard_design, incidence_bigraph, paley

    small, large = incidence_bigraph(fano()), incidence_bigraph(hadamard_design(paley(11)))
    masks = small.row_masks + [mask << 7 for mask in large.row_masks]
    return BipartiteGraph(18, 18, masks)


NEAR_MISSES = [
    pytest.param(_moved_edge_fano, id="fano-one-edge-moved"),
    pytest.param(_flipped_paley11, id="paley11-one-incidence-flipped"),
    # designs of v = 7 and v = 11 side by side; their diagonals differ too (3 and 5)
    pytest.param(_fano_and_paley11, id="fano-and-paley11"),
    # K_{2,3} beside K_{3,3}: Gram 3J_2 (+) 3J_3, constant diagonal, one b
    pytest.param(lambda: BipartiteGraph(5, 6, [0b111] * 2 + [0b111000] * 3), id="classes-2-and-3"),
    # the 10-cycle: Gram 2I plus 1s at i +- 1 mod 5, every row alike, no equivalence
    pytest.param(
        lambda: BipartiteGraph(5, 5, [1 << i | 1 << (i + 1) % 5 for i in range(5)]), id="cycle-10"
    ),
    # K_{4,6} and one isolated smaller-side vertex: a zero on the diagonal
    pytest.param(lambda: BipartiteGraph(5, 6, [0b111111] * 4 + [0]), id="isolated-vertex"),
    # blocks {0,1,2}, {0,1,3}, {0,4,5}, {1,4,5}: degree 3, no zeros, overlaps 1 and 2
    pytest.param(lambda: BipartiteGraph(4, 6, [0b111, 0b1011, 0b110001, 0b110010]), id="two-overlaps"),
    # the near-pencil {0,1,2}, {0,3}, {1,3}, {2,3}: every overlap 1, degrees 3 and 2
    pytest.param(lambda: BipartiteGraph(4, 4, [0b111, 0b1001, 0b1010, 0b1100]), id="near-pencil"),
    # {0,1} apart from the path {2,3}, {3,4}, {4,5}: the first row alone looks like 2I
    pytest.param(lambda: BipartiteGraph(4, 6, [0b11, 0b1100, 0b11000, 0b110000]), id="first-row-apart"),
]


@pytest.mark.parametrize("build", NEAR_MISSES)
def test_near_miss_grams_take_the_general_route(monkeypatch, build):
    g = build()
    assert min(g.m, g.n) > SMALL_RANK
    calls = []

    def spy(rows, d=None):
        calls.append(len(rows))
        return rank_rows(rows, d)

    pairs = [TwoValuePair.linear(HALF, 1, 2), TwoValuePair.linear(Fraction(1, 3), 2, 5)]
    pairs += [
        TwoValuePair.table(1, 2, Fraction(1), Fraction(3), Fraction(1), Fraction(t)) for t in (2, 3, 4)
    ]
    for pair in pairs:
        mu2 = mu_squared(pair)
        want = (bigraph_multiplicity(g, mu2), ensemble_rank(pair, g))
        monkeypatch.setattr(spectra, "rank_rows", spy)
        report = rank_sandwich(pair, g)
        monkeypatch.setattr(spectra, "rank_rows", rank_rows)
        assert calls, pair.values
        calls.clear()
        assert (report.nu, report.exact_rank) == want


def test_structured_grams_take_no_elimination(monkeypatch):
    from symrank.designs import fano, incidence_bigraph

    calls = []

    def spy(rows, d=None):
        calls.append(len(rows))
        return rank_rows(rows, d)

    monkeypatch.setattr(spectra, "rank_rows", spy)
    heawood = incidence_bigraph(fano())
    assert rank_sandwich(TwoValuePair.linear(HALF, 1, 2), heawood).exact_rank == 8
    assert low_rank_matching_instance(HALF, 12)[1].nu == 11
    assert calls == []
    # k = 3 <= SMALL_RANK keeps the general route
    rank_sandwich(TwoValuePair.linear(HALF, 1, 2), complete_minus_matching(3))
    assert calls


def test_irrational_mu2_is_rejected_before_either_route():
    from symrank.designs import fano, incidence_bigraph

    pair = TwoValuePair.linear(HALF, 1, QuadExt(1, 1, 2))  # mu^2 = 1/2 + sqrt(2)/2
    for g in (incidence_bigraph(fano()), complete_bigraph(2, 3)):
        with pytest.raises(ValueError, match=r"1/2\+1/2\*sqrt\(2\) is irrational"):
            rank_sandwich(pair, g)
