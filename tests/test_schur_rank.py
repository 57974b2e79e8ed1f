"""Differential tests: the smaller-side Schur-complement rank of an ensemble matrix.

`ensemble_rank` (and `rank_sandwich`, which reports it) never builds the
(m+n)x(m+n) matrix.  Each case here builds it with `matrix_from_bigraph` and
checks the Schur rank against its dense Bareiss rank and the textbook
elimination in `oracle.rank_naive`.
"""

from fractions import Fraction

from hypothesis import given
from hypothesis import strategies as st

from symrank.ensemble import BipartiteGraph, TwoValuePair, matrix_from_bigraph, mu_squared
from symrank.exactfield import QuadExt, scalar_sign, solve_monic_quadratic
from symrank.spectra import complete_minus_matching, ensemble_rank, rank_sandwich

from oracle import rank_naive


def assert_schur_rank_exact(pair: TwoValuePair, g: BipartiteGraph) -> None:
    matrix = matrix_from_bigraph(pair, g)
    expected = rank_naive(matrix)
    assert matrix.rank() == expected
    assert ensemble_rank(pair, g) == expected
    _, vab, vba, _ = pair.values
    if vab == vba:
        return
    mu2 = mu_squared(pair)
    # the multiplicity accepts rational mu^2 and mu^2 < 0 (no real eigenvalue)
    if not isinstance(mu2, QuadExt) or scalar_sign(mu2) < 0:
        assert rank_sandwich(pair, g).exact_rank == expected


@st.composite
def graphs(draw, max_side: int = 8) -> BipartiteGraph:
    m = draw(st.integers(1, max_side))
    n = draw(st.integers(1, max_side))
    kind = draw(st.sampled_from(("random", "empty", "complete", "matching")))
    if kind == "matching":  # K_{n,n} minus a perfect matching, square
        return complete_minus_matching(n)
    if kind == "empty":
        return BipartiteGraph.empty(m, n)
    if kind == "complete":
        return BipartiteGraph.complete(m, n)
    masks = draw(st.lists(st.integers(0, (1 << n) - 1), min_size=m, max_size=m))
    return BipartiteGraph(m, n, masks)


rationals = st.fractions(min_value=-8, max_value=8, max_denominator=6)
nonzero_rationals = rationals.filter(lambda x: x != 0)
thetas = st.fractions(min_value=0, max_value=1, max_denominator=12).filter(lambda t: 0 < t < 1)


def _is_good(pair: TwoValuePair) -> bool:
    vaa, _, _, vbb = pair.values
    return vaa != 0 and vbb != 0


def linear_pair(draw, alpha, betas) -> TwoValuePair:
    theta = draw(thetas)
    # beta = -alpha / (1 - 2 theta) makes f(alpha, beta) = 0
    if draw(st.booleans()) and theta != Fraction(1, 2):
        beta = -alpha / (1 - 2 * theta)
    else:
        beta = draw(betas)
    pair = TwoValuePair.linear(theta, alpha, beta)
    return draw(st.just(pair).filter(_is_good))


@st.composite
def linear_pairs(draw) -> TwoValuePair:
    return linear_pair(draw, draw(rationals), rationals)


@st.composite
def table_pairs(draw) -> TwoValuePair:
    # f(a,a) f(b,b) < 0 and zero cross values are both allowed
    f_aa, f_bb = draw(nonzero_rationals), draw(nonzero_rationals)
    f_ab, f_ba = draw(rationals), draw(st.one_of(st.just(Fraction(0)), rationals))
    return TwoValuePair.table(Fraction(1), Fraction(2), f_aa, f_ab, f_ba, f_bb)


discriminants = st.sampled_from((2, 3, 5, 6, 7))


@st.composite
def quadratic_pairs(draw) -> TwoValuePair:
    kind = draw(st.sampled_from(("theorem2", "alpha", "table")))
    if kind == "theorem2":
        # beta a root of x^2 - (2 + (1/theta - 1)^2) x + 1, as in low_rank_matching_instance
        theta = draw(thetas)
        roots = solve_monic_quadratic(-(2 + (1 / theta - 1) ** 2), 1)
        pair = TwoValuePair.linear(theta, Fraction(1), roots[draw(st.integers(0, 1))])
    elif kind == "alpha":
        d = draw(discriminants)
        alpha = QuadExt(draw(rationals), draw(nonzero_rationals), d)
        return linear_pair(
            draw, alpha, st.one_of(rationals, st.builds(QuadExt, rationals, rationals, st.just(d)))
        )
    else:
        d = draw(discriminants)
        values = st.builds(QuadExt, rationals, rationals, st.just(d))
        f_aa, f_ab, f_bb = (draw(values) for _ in range(3))
        f_ba = draw(st.one_of(st.just(Fraction(0)), values))
        pair = TwoValuePair.table(Fraction(1), Fraction(2), f_aa, f_ab, f_ba, f_bb)
    return draw(st.just(pair).filter(_is_good))


@given(linear_pairs(), graphs())
def test_schur_rank_rational_linear_pairs(pair, g):
    assert_schur_rank_exact(pair, g)


@given(table_pairs(), graphs())
def test_schur_rank_rational_table_pairs(pair, g):
    assert_schur_rank_exact(pair, g)


@given(quadratic_pairs(), graphs(max_side=6))
def test_schur_rank_quadratic_pairs(pair, g):
    assert_schur_rank_exact(pair, g)


def test_schur_rank_matched_root_instances():
    # K_{n,n} minus a matching under the theorem2 roots: rank <= n + 3, far below 2n
    for theta in (Fraction(1, 2), Fraction(1, 3), Fraction(2, 5), Fraction(3, 11)):
        for beta in solve_monic_quadratic(-(2 + (1 / theta - 1) ** 2), 1):
            pair = TwoValuePair.linear(theta, Fraction(1), beta)
            for n in range(1, 9):
                assert_schur_rank_exact(pair, complete_minus_matching(n))


def test_schur_rank_every_small_graph_zero_cross():
    # f(alpha, beta) = 0 at theta = 1/4 when beta = -2 alpha; then f(beta, alpha) = 0
    alpha = QuadExt(1, 1, 2)
    pairs = (
        TwoValuePair.linear(Fraction(1, 4), -1, 2),
        TwoValuePair.linear(Fraction(1, 4), alpha, -2 * alpha),
        TwoValuePair.table(Fraction(1), Fraction(2), Fraction(-3), Fraction(5, 2), 0, Fraction(2)),
    )
    for pair in pairs:
        for m in range(1, 4):
            for n in range(1, 4):
                for code in range(1 << (m * n)):
                    masks = [(code >> (i * n)) & ((1 << n) - 1) for i in range(m)]
                    assert_schur_rank_exact(pair, BipartiteGraph(m, n, masks))


def test_schur_rank_empty_part():
    pair = TwoValuePair.linear(Fraction(1, 3), 1, 2)
    for (m, n), expected in {(0, 0): 0, (0, 1): 0, (1, 0): 0, (0, 4): 4, (5, 0): 5}.items():
        assert ensemble_rank(pair, BipartiteGraph.empty(m, n)) == expected
