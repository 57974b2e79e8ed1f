import random
from fractions import Fraction

import pytest

from symrank.exactfield import QuadExt
from symrank.errors import DegenerateEnsembleError, GoodPairError, NotInEnsembleError
from symrank.ensemble import (
    BipartiteGraph,
    LinearTheta,
    SquaredDiff,
    TableFunction,
    Tournament,
    TwoValuePair,
    bigraph_from_matrix,
    matrix_from_bigraph,
    matrix_from_tournament,
    mu_squared,
    random_tournament,
    tournament_from_matrix,
)
from symrank.spectra import rank_sandwich

HALF = Fraction(1, 2)


def test_mu_squared_reference_values():
    assert mu_squared(TwoValuePair.linear(HALF, 1, 2)) == 2
    assert mu_squared(TwoValuePair.linear(Fraction(2, 5), 1, 4)) == 1
    with pytest.raises(DegenerateEnsembleError):
        mu_squared(TwoValuePair.linear(HALF, 1, 1))


def test_mu_squared_table_pair():
    pair = TwoValuePair.table(1, 2, Fraction(3), Fraction(1), Fraction(-1), Fraction(-2))
    assert mu_squared(pair) == Fraction(3 * -2, 4)


def test_good_pair_check():
    assert TwoValuePair(LinearTheta(HALF), 1, 2).is_good()
    assert not TwoValuePair(SquaredDiff(), 1, 2).is_good()
    assert not TwoValuePair(LinearTheta(HALF), 0, 1).is_good()


def test_linear_theta_validation():
    with pytest.raises(ValueError):
        LinearTheta(Fraction(0))
    with pytest.raises(ValueError):
        LinearTheta(Fraction(3, 2))


def test_table_function_domain():
    f = TableFunction(1, 2, 5, 6, 7, 8)
    assert f(1, 1) == 5 and f(1, 2) == 6 and f(2, 1) == 7 and f(2, 2) == 8
    with pytest.raises(ValueError):
        f(3, 1)


def test_matrix_from_tournament_small():
    f = LinearTheta(HALF)
    m1 = matrix_from_tournament(f, [5], Tournament(1, []))
    assert m1.rows == m1.cols == 1 and m1.entry(0, 0) == 0

    t = Tournament(2, [(0, 1)])
    m2 = matrix_from_tournament(f, [Fraction(1), Fraction(2)], t)
    assert m2.entry(0, 1) == f(1, 2) and m2.entry(1, 0) == f(1, 2)

    with pytest.raises(ValueError):
        matrix_from_tournament(f, [1, 2, 3], t)


def test_squared_difference_tournament_is_rank_three():
    for seed in range(5):
        t = random_tournament(4, seed)
        m = matrix_from_tournament(SquaredDiff(), [1, 2, 3, 4], t)
        assert m.entry(0, 3) == 9
        assert m.rank() == 3


def test_matrix_symmetric_zero_diagonal_invariant():
    rng = random.Random(11)
    f = LinearTheta(Fraction(1, 3))
    for _ in range(30):
        n = rng.randint(1, 8)
        values = [Fraction(rng.randint(1, 9)) for _ in range(n)]
        m = matrix_from_tournament(f, values, random_tournament(n, rng.randint(0, 999)))
        assert m.is_symmetric() and m.has_zero_diagonal()


def test_tournament_roundtrip():
    f = LinearTheta(HALF)
    t = random_tournament(6, 77)
    values = [Fraction(k) for k in (1, 2, 3, 4, 5, 6)]
    m = matrix_from_tournament(f, values, t)
    assert tournament_from_matrix(m, f, values) == t


def test_tournament_tie_break_canonical():
    # squared differences are symmetric, so every pair resolves to i -> j
    t = random_tournament(4, 3)
    m = matrix_from_tournament(SquaredDiff(), [1, 2, 3, 4], t)
    back = tournament_from_matrix(m, SquaredDiff(), [1, 2, 3, 4])
    assert all(back.beats(i, j) for i in range(4) for j in range(i + 1, 4))


def test_tournament_from_matrix_rejects_foreign_entries():
    f = LinearTheta(HALF)
    t = Tournament(2, [(0, 1)])
    m = matrix_from_tournament(f, [Fraction(1), Fraction(2)], t)
    bad = type(m)(2, 2, [0, Fraction(99), Fraction(99), 0])
    with pytest.raises(NotInEnsembleError):
        tournament_from_matrix(bad, f, [Fraction(1), Fraction(2)])


def test_random_tournament_contract():
    t1 = random_tournament(1, 0)
    assert t1.oriented_pairs() == []
    assert random_tournament(8, 123) == random_tournament(8, 123)
    assert random_tournament(8, 123) != random_tournament(8, 124)
    with pytest.raises(ValueError):
        random_tournament(0, 1)


def test_matrix_from_bigraph_blocks():
    pair = TwoValuePair.linear(HALF, 1, 2)
    empty = matrix_from_bigraph(pair, BipartiteGraph.empty(1, 1))
    assert empty.row_list(0) == [0, pair.value_ba()]
    assert empty.row_list(1) == [pair.value_ba(), 0]

    complete = matrix_from_bigraph(pair, BipartiteGraph.complete(2, 3))
    for i in range(2):
        for j in range(3):
            assert complete.entry(i, 2 + j) == pair.value_ab()


def test_matrix_from_bigraph_requires_good_pair():
    bad = TwoValuePair.table(1, 2, Fraction(0), Fraction(1), Fraction(2), Fraction(3))
    with pytest.raises(GoodPairError):
        matrix_from_bigraph(bad, BipartiteGraph.empty(2, 2))


def test_bigraph_roundtrip_random():
    rng = random.Random(17)
    pair = TwoValuePair.linear(HALF, 1, 2)
    for _ in range(50):
        m, n = rng.randint(1, 8), rng.randint(1, 8)
        g = BipartiteGraph(m, n, [rng.getrandbits(n) for _ in range(m)])
        assert bigraph_from_matrix(matrix_from_bigraph(pair, g), pair, m, n) == g


def test_bigraph_from_matrix_errors():
    pair = TwoValuePair.linear(HALF, 1, 2)
    g = BipartiteGraph.empty(2, 2)
    m = matrix_from_bigraph(pair, g)
    # all-f(beta,alpha) cross block decodes to the empty graph
    assert bigraph_from_matrix(m, pair, 2, 2).edge_count() == 0
    bad = type(m)(4, 4, list(m.entries()))
    bad._e[2] = Fraction(99)
    with pytest.raises(NotInEnsembleError):
        bigraph_from_matrix(bad, pair, 2, 2)
    with pytest.raises(DegenerateEnsembleError):
        bigraph_from_matrix(m, TwoValuePair.linear(HALF, 1, 1), 2, 2)


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
        g = BipartiteGraph.from_edges(
            m, n, [(i, j) for i in range(m) for j in range(n) if t.beats(i, m + j)]
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
    g = BipartiteGraph.from_edges(3, 4, [(0, 1), (2, 3)])
    assert BipartiteGraph.from_dict(g.to_dict()) == g
    tournaments = [random_tournament(n, seed) for n in (1, 2, 3, 5, 9) for seed in range(6)]
    for t in tournaments:
        data = t.to_dict()
        assert data["edges"] == sorted(data["edges"])
        assert t.oriented_pairs() == sorted(t.oriented_pairs())
        back = Tournament.from_dict(data)
        assert back == t and hash(back) == hash(t)
    # a set of tournaments dedups exactly as their serialized forms do
    forms = {(t.n, tuple(map(tuple, t.to_dict()["edges"]))) for t in tournaments}
    assert len(set(tournaments)) == len(forms) < len(tournaments)


def _pair_list_tournament(n: int, seed: int) -> Tournament:
    """The definition: one getrandbits(1) per pair i < j, in row order; 1 means i beats j."""
    rng = random.Random(seed)
    pairs = []
    for i in range(n):
        for j in range(i + 1, n):
            pairs.append((i, j) if rng.getrandbits(1) else (j, i))
    return Tournament(n, pairs)


def test_random_tournament_draws_in_pair_order():
    for n in (1, 2, 3, 7, 16, 40):
        for seed in (0, 1, 5, 123, 10**9):
            t = random_tournament(n, seed)
            assert t == _pair_list_tournament(n, seed)
            assert all(
                t.beats(i, j) != t.beats(j, i) for i in range(n) for j in range(i + 1, n)
            )


@pytest.mark.parametrize(
    "n, pairs, named",
    [
        pytest.param(3, [(0, 1), (1, 2), (0, 3)], "(0, 3)", id="out-of-range"),
        pytest.param(3, [(0, 1), (-1, 2), (0, 2)], "(-1, 2)", id="negative"),
        pytest.param(3, [(0, 1), (2, 2), (0, 2)], "(2, 2)", id="self-loop"),
        pytest.param(3, [(0, 1), (1, 2), (2, 1)], "{2, 1}", id="oriented-twice"),
        pytest.param(3, [(0, 1), (1, 2), (1, 2)], "{1, 2}", id="repeated"),
        pytest.param(3, [(0, 1), (1, 2)], "not complete", id="incomplete"),
        pytest.param(2.0, [(0, 1)], "2.0", id="float-size"),
        pytest.param(2, [(0.0, 1.0)], "(0.0, 1.0)", id="float-pair"),
    ],
)
def test_tournament_validation_names_the_pair(n, pairs, named):
    with pytest.raises(ValueError) as exc:
        Tournament(n, pairs)
    assert named in str(exc.value)


@pytest.mark.parametrize(
    "data, named",
    [
        pytest.param({"n": 2, "edges": [[1.0, 2.0]]}, "[1.0, 2.0]", id="float-edge"),
        pytest.param({"n": 2, "edges": [[1, "2"]]}, "[1, '2']", id="string-endpoint"),
        pytest.param({"n": 3, "edges": [[1, 2, 3]]}, "[1, 2, 3]", id="triple"),
        pytest.param({"n": 2, "edges": 5}, "got 5", id="edges-not-a-list"),
        pytest.param({"n": 2, "edges": [[1, 3]]}, "(0, 2)", id="out-of-range"),
        pytest.param({"n": 3, "edges": [[1, 2], [2, 3]]}, "not complete", id="incomplete"),
    ],
)
def test_tournament_from_dict_validates_edges(data, named):
    with pytest.raises(ValueError) as exc:
        Tournament.from_dict(data)
    assert named in str(exc.value)


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
            assert m.entry(i, i) == 0
            for j in range(n):
                if i != j:
                    x, y = (exact[i], exact[j]) if t.beats(i, j) else (exact[j], exact[i])
                    assert m.entry(i, j) == x + (1 - 2 * theta) * y


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
            BipartiteGraph.complete(2, 3),
            BipartiteGraph.from_edges(3, 3, [(0, 0), (1, 1), (2, 0)]),
            BipartiteGraph(4, 2, [1, 2, 3, 0]),
        ):
            assert rank_sandwich(int_pair, g).to_dict() == rank_sandwich(frac_pair, g).to_dict()
    assert mu_squared(int_table) == 40
