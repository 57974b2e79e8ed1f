import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from symrank.exactfield import QuadExt
from symrank.errors import DegenerateEnsembleError, GoodPairError
from symrank.ensemble import (
    BipartiteGraph,
    LinearTheta,
    TwoValuePair,
    mask_to_points,
    matrix_from_bigraph,
    matrix_from_tournament,
    mu_squared,
    points_to_mask,
    random_tournament,
    set_bits,
    transpose_masks,
)
from symrank.spectra import rank_sandwich

from oracle import (
    beats,
    bigraph_from_edges,
    bigraph_to_dict,
    complete_bigraph,
    empty_bigraph,
    tournament_from_dict,
    tournament_from_pairs,
)

HALF = Fraction(1, 2)


def squared_diff(x, y):
    """f(x, y) = (x - y)^2: it vanishes on the diagonal, so it is never a good pair."""
    return (x - y) ** 2


def test_mu_squared_reference_values():
    assert mu_squared(TwoValuePair.linear(HALF, 1, 2)) == 2
    assert mu_squared(TwoValuePair.linear(Fraction(2, 5), 1, 4)) == 1
    with pytest.raises(DegenerateEnsembleError):
        mu_squared(TwoValuePair.linear(HALF, 1, 1))


def test_mu_squared_table_pair():
    pair = TwoValuePair.table(1, 2, Fraction(3), Fraction(1), Fraction(-1), Fraction(-2))
    assert mu_squared(pair) == Fraction(3 * -2, 4)


def test_good_pair_check():
    TwoValuePair(LinearTheta(HALF), 1, 2).require_good()
    with pytest.raises(GoodPairError, match=r"f\(alpha, alpha\) == 0 at alpha = 1;"):
        TwoValuePair(squared_diff, 1, 2).require_good()
    with pytest.raises(GoodPairError, match=r"f\(alpha, alpha\) == 0 at alpha = 0;"):
        TwoValuePair(LinearTheta(HALF), 0, 1).require_good()
    with pytest.raises(GoodPairError, match=r"f\(beta, beta\) == 0 at beta = 2/3;"):
        TwoValuePair.table(1, Fraction(2, 3), 1, 2, 3, 0).require_good()


def test_linear_theta_validation():
    with pytest.raises(ValueError):
        LinearTheta(Fraction(0))
    with pytest.raises(ValueError):
        LinearTheta(Fraction(3, 2))


def test_table_function_domain():
    f = TwoValuePair.table(1, 2, 5, 6, 7, 8).f
    assert f(1, 1) == 5 and f(1, 2) == 6 and f(2, 1) == 7 and f(2, 2) == 8


@pytest.mark.parametrize(
    "alpha, beta, named",
    [
        pytest.param(1, 1, "1", id="int"),
        pytest.param(Fraction(3, 2), Fraction(6, 4), "3/2", id="fraction"),
        pytest.param(2, Fraction(2), "2", id="int-and-fraction"),
        pytest.param(QuadExt(1, 1, 2), QuadExt(1, 1, 2), "1+1*sqrt(2)", id="quadext"),
    ],
)
def test_table_function_needs_two_values(alpha, beta, named):
    # with alpha == beta the four table entries would share one key
    with pytest.raises(ValueError) as exc:
        TwoValuePair.table(alpha, beta, 5, 6, 7, 8)
    assert str(exc.value) == f"table pair needs alpha != beta, got {named} for both"


def test_matrix_from_tournament_small():
    f = LinearTheta(HALF)
    m1 = matrix_from_tournament(f, [5], tournament_from_pairs(1, []))
    assert m1.rows == m1.cols == 1 and m1.row_list(0) == [0]

    t = tournament_from_pairs(2, [(0, 1)])
    m2 = matrix_from_tournament(f, [Fraction(1), Fraction(2)], t)
    assert m2.row_list(0) == [0, f(1, 2)] and m2.row_list(1) == [f(1, 2), 0]

    with pytest.raises(ValueError):
        matrix_from_tournament(f, [1, 2, 3], t)


def test_squared_difference_tournament_is_rank_three():
    for seed in range(5):
        t = random_tournament(4, seed)
        m = matrix_from_tournament(squared_diff, [1, 2, 3, 4], t)
        assert m.row_list(0)[3] == 9
        assert m.rank() == 3


def test_matrix_symmetric_zero_diagonal_invariant():
    rng = random.Random(11)
    f = LinearTheta(Fraction(1, 3))
    for _ in range(30):
        n = rng.randint(1, 8)
        values = [Fraction(rng.randint(1, 9)) for _ in range(n)]
        m = matrix_from_tournament(f, values, random_tournament(n, rng.randint(0, 999)))
        rows = [m.row_list(i) for i in range(n)]
        assert all(rows[i][i] == 0 for i in range(n))
        assert all(rows[i][j] == rows[j][i] for i in range(n) for j in range(i))


def test_random_tournament_contract():
    t1 = random_tournament(1, 0)
    assert t1.oriented_pairs() == []
    assert random_tournament(8, 123) == random_tournament(8, 123)
    assert random_tournament(8, 123) != random_tournament(8, 124)
    with pytest.raises(ValueError):
        random_tournament(0, 1)


def test_matrix_from_bigraph_blocks():
    pair = TwoValuePair.linear(HALF, 1, 2)
    empty = matrix_from_bigraph(pair, empty_bigraph(1, 1))
    assert empty.row_list(0) == [0, pair.value_ba()]
    assert empty.row_list(1) == [pair.value_ba(), 0]

    complete = matrix_from_bigraph(pair, complete_bigraph(2, 3))
    for i in range(2):
        assert complete.row_list(i)[2:] == [pair.value_ab()] * 3


def test_matrix_from_bigraph_requires_good_pair():
    bad = TwoValuePair.table(1, 2, Fraction(0), Fraction(1), Fraction(2), Fraction(3))
    with pytest.raises(GoodPairError):
        matrix_from_bigraph(bad, empty_bigraph(2, 2))


def test_tournament_and_bigraph_constructions_agree():
    # over a two-valued sequence, a tournament matrix equals the matrix of the
    # bipartite graph read off its cross pairs
    rng = random.Random(23)
    pair = TwoValuePair.linear(Fraction(1, 3), Fraction(2), Fraction(5))
    for _ in range(20):
        m, n = rng.randint(1, 5), rng.randint(1, 5)
        t = random_tournament(m + n, rng.randint(0, 10**6))
        values = [pair.alpha] * m + [pair.beta] * n
        mt = matrix_from_tournament(pair.f, values, t)
        g = bigraph_from_edges(
            m, n, [(i, j) for i in range(m) for j in range(n) if beats(t, i, m + j)]
        )
        assert matrix_from_bigraph(pair, g) == mt


def test_mu_squared_invariance_properties():
    rng = random.Random(31)
    for _ in range(200):
        theta = Fraction(rng.randint(1, 9), 10)
        alpha = Fraction(rng.randint(1, 30), rng.randint(1, 6))
        beta = Fraction(rng.randint(1, 30), rng.randint(1, 6))
        if alpha == beta:
            continue
        k = Fraction(rng.randint(1, 12), rng.randint(1, 5))
        base = mu_squared(TwoValuePair.linear(theta, alpha, beta))
        assert base == mu_squared(TwoValuePair.linear(theta, beta, alpha))
        assert base == mu_squared(TwoValuePair.linear(theta, k * alpha, k * beta))
        assert base == mu_squared(TwoValuePair.linear(theta, 1, alpha / beta))
        assert base == mu_squared(TwoValuePair.linear(theta, 1, beta / alpha))
        # closed form for the linear pair function
        expected = (1 - theta) ** 2 * alpha * beta / (theta**2 * (alpha - beta) ** 2)
        assert base == expected


def test_serialization_roundtrips():
    g = bigraph_from_edges(3, 4, [(0, 1), (2, 3)])
    assert BipartiteGraph.from_dict(bigraph_to_dict(g)) == g
    tournaments = [random_tournament(n, seed) for n in (1, 2, 3, 5, 9) for seed in range(6)]
    for t in tournaments:
        data = t.to_dict()
        assert data["edges"] == sorted(data["edges"])
        assert t.oriented_pairs() == sorted(t.oriented_pairs())
        back = tournament_from_dict(data)
        assert back == t and hash(back) == hash(t)
    # a set of tournaments dedups exactly as their serialized forms do
    forms = {(t.n, tuple(map(tuple, t.to_dict()["edges"]))) for t in tournaments}
    assert len(set(tournaments)) == len(forms) < len(tournaments)


@given(st.integers(1, 40), st.integers(0, 2**32))
def test_tournament_dict_roundtrip_property(n, seed):
    t = random_tournament(n, seed)
    assert tournament_from_dict(t.to_dict()) == t


@st.composite
def _bipartite_graphs(draw):
    m, n = draw(st.integers(0, 9)), draw(st.integers(0, 9))
    rows = draw(st.lists(st.integers(0, (1 << n) - 1), min_size=m, max_size=m))
    return BipartiteGraph(m, n, rows)


@given(_bipartite_graphs())
def test_bigraph_dict_roundtrip_property(g):
    assert BipartiteGraph.from_dict(bigraph_to_dict(g)) == g


def _pair_list_tournament(n: int, seed: int):
    """The definition: one getrandbits(1) per pair i < j, in row order; 1 means i beats j."""
    rng = random.Random(seed)
    pairs = []
    for i in range(n):
        for j in range(i + 1, n):
            pairs.append((i, j) if rng.getrandbits(1) else (j, i))
    return tournament_from_pairs(n, pairs)


def test_random_tournament_draws_in_pair_order():
    for n in (1, 2, 3, 7, 16, 40):
        for seed in (0, 1, 5, 123, 10**9):
            t = random_tournament(n, seed)
            assert t == _pair_list_tournament(n, seed)
            assert all(
                beats(t, i, j) != beats(t, j, i) for i in range(n) for j in range(i + 1, n)
            )


_QUAD_VALUES = [QuadExt(1, 1, 3), 2, QuadExt(HALF, -1, 3), Fraction(5, 3), QuadExt(0, 2, 3)]


@pytest.mark.parametrize("theta", [HALF, Fraction(1, 3), Fraction(1, 4), Fraction(3, 4)])
@pytest.mark.parametrize(
    "values",
    [
        pytest.param([1, 2, 3, 5, 8], id="int"),
        pytest.param([Fraction(k, 4) for k in (2, 12, -7, 8, 9)], id="fraction"),
        pytest.param(_QUAD_VALUES, id="quadext"),
    ],
)
def test_tournament_entries_equal_the_pair_function(theta, values):
    f = LinearTheta(theta)
    exact = [v if isinstance(v, QuadExt) else Fraction(v) for v in values]
    n = len(values)
    for seed in range(4):
        t = random_tournament(n, seed)
        m = matrix_from_tournament(f, values, t)
        for i in range(n):
            row = m.row_list(i)
            assert row[i] == 0
            for j in range(n):
                if i != j:
                    x, y = (exact[i], exact[j]) if beats(t, i, j) else (exact[j], exact[i])
                    assert row[j] == x + (1 - 2 * theta) * y


def test_half_theta_keeps_int_values_int():
    f = LinearTheta(HALF)
    assert f.c == 0 and type(f.c) is int
    assert type(LinearTheta(Fraction(1, 4)).c) is Fraction
    for n, seed in ((1, 0), (6, 1), (25, 2)):
        m = matrix_from_tournament(f, range(1, n + 1), random_tournament(n, seed))
        assert all(type(x) is int for x in m.entries())


def test_int_valued_pairs_give_exact_mu_squared_and_sandwich():
    int_table = TwoValuePair.table(1, 2, 5, 6, 7, 8)
    frac_table = TwoValuePair.table(*(Fraction(v) for v in (1, 2, 5, 6, 7, 8)))
    int_linear = TwoValuePair.linear(HALF, 1, 3)
    frac_linear = TwoValuePair.linear(HALF, Fraction(1), Fraction(3))
    for int_pair, frac_pair in ((int_table, frac_table), (int_linear, frac_linear)):
        mu2 = mu_squared(int_pair)
        assert type(mu2) is Fraction and mu2 == mu_squared(frac_pair)
        for g in (
            complete_bigraph(2, 3),
            bigraph_from_edges(3, 3, [(0, 0), (1, 1), (2, 0)]),
            BipartiteGraph(4, 2, [1, 2, 3, 0]),
        ):
            assert rank_sandwich(int_pair, g).to_dict() == rank_sandwich(frac_pair, g).to_dict()
    assert mu_squared(int_table) == 40


def test_mask_helpers_match_a_bit_scan():
    rng = random.Random(11)
    for width in (0, 1, 5, 64, 130):
        masks = [rng.getrandbits(width) if width else 0 for _ in range(7)]
        for mask in masks:
            bits = [j for j in range(width) if mask >> j & 1]
            assert set_bits(mask) == bits
            assert mask_to_points(mask) == [j + 1 for j in bits]
            assert points_to_mask(mask_to_points(mask), max(width, 1)) == mask
        cols = transpose_masks(masks, width)
        assert len(cols) == width
        for j, col in enumerate(cols):
            assert set_bits(col) == [i for i, mask in enumerate(masks) if mask >> j & 1]
    assert points_to_mask((3, 1, 3), 3) == 0b101


@pytest.mark.parametrize(
    "points, message",
    [
        ([1, True], "point True is not an integer"),
        ([1.0], "point 1.0 is not an integer"),
        (["2"], "point '2' is not an integer"),
        ([2, 0], "point 0 outside [1..4]"),
        ([5], "point 5 outside [1..4]"),
    ],
)
def test_points_to_mask_names_a_bad_point(points, message):
    with pytest.raises(ValueError) as exc:
        points_to_mask(points, 4)
    assert str(exc.value) == message
