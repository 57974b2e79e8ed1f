"""Differential tests: the smaller-side Schur-complement rank of an ensemble matrix.

`ensemble_rank` (and `rank_sandwich`, which reports it) never builds the
(m+n)x(m+n) matrix.  Each case here builds it with `matrix_from_bigraph` and
checks the Schur rank against its dense Bareiss rank and the textbook
elimination in `oracle.rank_naive`.  The complement's builder is checked
entry by entry: its rows, read as exact scalars, are one nonzero multiple of
the dense Schur complement from `oracle.schur_complement`.
"""

from fractions import Fraction

from hypothesis import assume, given
from hypothesis import strategies as st

from symrank.ensemble import BipartiteGraph, TwoValuePair, matrix_from_bigraph, mu_squared
from symrank.exactfield import QuadExt, scalar_sign, solve_monic_quadratic
from symrank.spectra import _schur_rows, complete_minus_matching, ensemble_rank, rank_sandwich

from oracle import complete_bigraph, empty_bigraph, from_rows, rank_naive, schur_complement


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
        return empty_bigraph(m, n)
    if kind == "complete":
        return complete_bigraph(m, n)
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
    # beta = alpha / (2 theta - 1) makes f(alpha, beta) = 0
    if draw(st.booleans()) and theta != Fraction(1, 2):
        beta = alpha / (2 * theta - 1)
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
        assert ensemble_rank(pair, empty_bigraph(m, n)) == expected


def builder_case(pair: TwoValuePair, g: BipartiteGraph):
    """(xy, c^2, cd, d^2), p, the smaller-side Gram matrix and `_schur_rows`' rows.

    The constants come from the pair's integral values, as in
    `ensemble_rank`, multiplied here as exact scalars; over Q(sqrt r) their
    a-parts and b-parts give one set of rows each, read back as
    a + b*sqrt(r).
    """
    r, values = pair.integral_values
    if r is not None:
        values = [QuadExt(a, b, r) for a, b in values]
    vaa, vab, vba, vbb = values
    c, d = vba, vab - vba
    consts = (vaa * vbb, c * c, c * d, d * d)
    small = g.row_masks if g.m <= g.n else g.column_masks()
    gram = [[(u & v).bit_count() for v in small] for u in small]
    p = max(g.m, g.n)
    if r is None:
        return consts, p, gram, _schur_rows(*consts, p, gram)
    parts = [(k.a, k.b) if isinstance(k, QuadExt) else (k, 0) for k in consts]
    a_rows = _schur_rows(*(a for a, _ in parts), p, gram)
    b_rows = _schur_rows(*(b for _, b in parts), p, gram)
    rows = [[QuadExt(a, b, r) for a, b in zip(ra, rb)] for ra, rb in zip(a_rows, b_rows)]
    return consts, p, gram, rows


def assert_builder_matches_dense_schur(pair: TwoValuePair, g: BipartiteGraph) -> None:
    consts, p, gram, rows = builder_case(pair, g)
    larger = range(g.m, g.m + g.n) if g.m <= g.n else range(g.m)
    dense = schur_complement(matrix_from_bigraph(pair, g), larger)
    # the rows are k S for one k != 0: k is (p-1) x times the square of the values' scale
    nonzero = [(i, j) for i, row in enumerate(dense) for j, v in enumerate(row) if v != 0]
    if nonzero:
        i, j = nonzero[0]
        k = rows[i][j] / dense[i][j]
        assert k != 0
        assert rows == [[k * v for v in row] for row in dense]
    else:
        assert all(v == 0 for row in rows for v in row)
    # rows - (p-1)(d^2 G - xy I) has its columns in span{1, g}, g_i = G_ii
    xy, _, _, d2 = consts
    ones, degrees = [1] * len(gram), [row[i] for i, row in enumerate(gram)]
    qd2 = (p - 1) * d2
    leftover = [[v - qd2 * g_ij for v, g_ij in zip(row, g_row)] for row, g_row in zip(rows, gram)]
    for i, row in enumerate(leftover):
        row[i] += (p - 1) * xy
    span = rank_naive(from_rows([ones, degrees]))
    assert rank_naive(from_rows([ones, degrees, *zip(*leftover)])) == span


@given(st.one_of(linear_pairs(), table_pairs(), quadratic_pairs()), graphs(max_side=6))
def test_builder_rows_are_a_multiple_of_the_dense_schur_complement(pair, g):
    assume(max(g.m, g.n) >= 2)
    assert_builder_matches_dense_schur(pair, g)


SQRT2 = QuadExt(0, 1, 2)


def test_builder_rows_named_cases():
    rational = TwoValuePair.linear(Fraction(1, 3), 1, 2)
    quadratic = TwoValuePair.table(Fraction(1), Fraction(2), 1 + SQRT2, 3, SQRT2, Fraction(-2))
    zero_cross = (
        TwoValuePair.table(Fraction(1), Fraction(2), Fraction(-3), Fraction(5, 2), 0, Fraction(2)),
        TwoValuePair.table(Fraction(1), Fraction(2), 1 + SQRT2, 2 - SQRT2, 0, SQRT2),
    )
    # f(a,b) = 2 sqrt 2 and f(b,a) = sqrt 2: c = d = sqrt 2, so c^2 = cd = d^2 = 2 and xy = 6
    rational_constants = TwoValuePair.table(
        Fraction(1), Fraction(2), SQRT2, 2 * SQRT2, SQRT2, 3 * SQRT2
    )
    graphs_ = (
        BipartiteGraph(2, 2, [0b01, 0b11]),  # p = 2
        complete_minus_matching(2),
        BipartiteGraph(1, 2, [0b10]),
        BipartiteGraph(2, 1, [0b1, 0b0]),
        BipartiteGraph(1, 5, [0b10110]),  # a one-vertex smaller side
        BipartiteGraph(5, 1, [1, 0, 1, 1, 0]),
        BipartiteGraph(3, 4, [0b0011, 0b0110, 0b1111]),
        BipartiteGraph(4, 3, [0b011, 0b110, 0b000, 0b101]),
    )
    for pair in (rational, quadratic, *zero_cross, rational_constants):
        for g in graphs_:
            assert_builder_matches_dense_schur(pair, g)
            assert_schur_rank_exact(pair, g)
    assert rational_constants.integral_values[0] == 2
    for g in graphs_:
        consts, _, _, rows = builder_case(rational_constants, g)
        assert consts == (6, 2, 2, 2)
        assert not any(isinstance(v, QuadExt) for row in rows for v in row)
