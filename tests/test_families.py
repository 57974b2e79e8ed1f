from fractions import Fraction

import pytest

from symrank.errors import UnsupportedParameterError
from symrank.designs import sylvester
from symrank.ensemble import TwoValuePair, bigraph_from_matrix
from symrank.families import (
    SetFamily,
    fano_family,
    family_matrix,
    hadamard_family,
    is_theta_intersecting,
    rank_to_size_bound,
    search_bisection_closed,
    sunflower_family,
    theta_violation,
)
from symrank.spectra import bigraph_multiplicity

HALF = Fraction(1, 2)


def test_checker_examples():
    assert is_theta_intersecting(fano_family(), HALF)
    bad = SetFamily(4, [(1, 2), (3, 4)])
    assert not is_theta_intersecting(bad, HALF)
    assert theta_violation(bad, HALF) == ([1, 2], [3, 4])
    assert is_theta_intersecting(SetFamily(4, [(1, 2, 3)]), HALF)
    with pytest.raises(ValueError):
        theta_violation(bad, Fraction(3, 2))


def test_set_family_validation():
    with pytest.raises(ValueError):
        SetFamily(4, [(1, 2), (1, 2)])
    with pytest.raises(ValueError):
        SetFamily(4, [(1, 5)])
    with pytest.raises(ValueError):
        SetFamily(4, [()])


def test_sunflower_family():
    f8 = sunflower_family(8)
    expected = {
        (1, 2), (1, 3), (1, 4), (1, 5), (1, 6), (1, 7), (1, 8),
        (1, 2, 3, 4), (1, 2, 5, 6), (1, 2, 7, 8),
    }
    assert {tuple(sorted(s)) for s in f8.sets} == expected
    assert len(f8) == 10 == 3 * 8 // 2 - 2
    f4 = sunflower_family(4)
    assert len(f4) == 4 and is_theta_intersecting(f4, HALF)
    for n in range(4, 66, 2):
        fam = sunflower_family(n)
        assert len(fam) == 3 * n // 2 - 2
        assert is_theta_intersecting(fam, HALF)
    with pytest.raises(ValueError):
        sunflower_family(7)


def test_fano_family():
    ff = fano_family()
    assert len(ff) == 14
    assert is_theta_intersecting(ff, HALF)
    assert 14 > 3 * 8 // 2 - 2


def test_hadamard_family_order_8():
    fam = hadamard_family(sylvester(3))
    assert len(fam) == 10
    assert is_theta_intersecting(fam, HALF)
    sizes = sorted(fam.sizes())
    assert sizes.count(4) == 6 and sizes.count(2) == 4


def test_hadamard_family_order_16():
    fam = hadamard_family(sylvester(4))
    assert len(fam) == 22
    assert is_theta_intersecting(fam, HALF)
    assert set(fam.sizes()) == {8, 4}


def test_hadamard_family_other_sources():
    from symrank.designs import paley
    from symrank.errors import ConstructionFailedError

    # the order-8 quadratic-residue matrix also completes to the 6 + 4 profile
    fam = hadamard_family(paley(7))
    assert len(fam) == 10 and is_theta_intersecting(fam, HALF)
    # order 32 works through the row-support fallback
    fam32 = hadamard_family(sylvester(5))
    assert len(fam32) == 46 and is_theta_intersecting(fam32, HALF)
    # order-24 row supports have non-uniform triple intersections: the
    # construction must fail loudly rather than return an unverified family
    with pytest.raises(ConstructionFailedError):
        hadamard_family(paley(23))


def test_hadamard_family_rejects_small_orders():
    with pytest.raises(UnsupportedParameterError):
        hadamard_family(sylvester(2))
    denormalized = sylvester(3)
    full = (1 << denormalized.order) - 1
    flipped = type(denormalized)([full ^ m for m in denormalized.row_masks])
    with pytest.raises(UnsupportedParameterError):
        hadamard_family(flipped)


def test_family_matrix_fano():
    m = family_matrix(fano_family(), HALF)
    assert m.rows == m.cols == 14
    assert m.is_symmetric() and m.has_zero_diagonal()
    # the family lists seven 2-sets then seven 4-sets, so the matrix lies in
    # the two-valued ensemble over (2^(7), 4^(7)); decode its bipartite graph
    pair = TwoValuePair.linear(HALF, Fraction(2), Fraction(4))
    graph = bigraph_from_matrix(m, pair, 7, 7)
    assert bigraph_multiplicity(graph, Fraction(2)) == 6
    # the family is the 2-(7,3,1) design in disguise: its graph is 3-regular
    # on 14 vertices with 21 edges, the Heawood graph
    assert set(graph.degrees()) == {3}
    assert graph.edge_count() == 21 and graph.is_connected()


def test_family_matrix_small():
    single = family_matrix(SetFamily(4, [(1, 2)]), HALF)
    assert single.rows == 1 and single.entry(0, 0) == 0
    m = family_matrix(sunflower_family(8), HALF)
    assert m.rank() <= 10
    with pytest.raises(ValueError):
        family_matrix(SetFamily(4, [(1, 2), (3, 4)]), HALF)


def test_family_matrix_entries_come_from_the_size_alphabet():
    from symrank.ensemble import LinearTheta

    fam = fano_family()
    f = LinearTheta(HALF)
    sizes = set(fam.sizes())
    admissible = {f(Fraction(s), Fraction(t)) for s in sizes for t in sizes}
    m = family_matrix(fam, HALF)
    for i in range(m.rows):
        for j in range(m.cols):
            if i != j:
                assert m.entry(i, j) in admissible


def test_rank_to_size_bound():
    assert rank_to_size_bound(1, 7) == 8
    assert rank_to_size_bound(Fraction(2, 3), 8) == Fraction(27, 2)
    assert rank_to_size_bound(HALF, 15) == 32
    with pytest.raises(ValueError):
        rank_to_size_bound(0, 7)
    with pytest.raises(ValueError):
        rank_to_size_bound(-1, 7)


def test_search_extends_sunflower_over_8():
    result = search_bisection_closed(8, sunflower_family(8), time_budget=60)
    assert len(result) >= 14
    assert is_theta_intersecting(result, HALF)


def test_search_monotone_and_verified():
    seed = sunflower_family(4)
    result = search_bisection_closed(4, seed, time_budget=0.001)
    assert len(result) >= len(seed)
    assert is_theta_intersecting(result, HALF)


def test_search_rejects_bad_input():
    with pytest.raises(ValueError):
        search_bisection_closed(8, SetFamily(4, [(1, 2), (3, 4)]), time_budget=1)
    with pytest.raises(UnsupportedParameterError):
        search_bisection_closed(21, sunflower_family(4), time_budget=1)


def test_search_beats_bound_from_fano_seed():
    for n in (10, 12):
        result = search_bisection_closed(n, fano_family(), time_budget=30)
        assert len(result) > 3 * n // 2 - 2
        assert is_theta_intersecting(result, HALF)


def test_sunflower_over_10_is_maximal():
    # no even-sized set over [10] is compatible with the whole sunflower family,
    # so the search returns the seed itself
    result = search_bisection_closed(10, sunflower_family(10), time_budget=30)
    assert len(result) == 13


def _cross_class_graph(family):
    """Bipartite graph between the two size classes of a two-size family."""
    ordered = SetFamily(family.ground_n, sorted(family.sets, key=lambda s: (len(s), sorted(s))))
    sizes = ordered.sizes()
    small, large = sizes[0], sizes[-1]
    count_small = sizes.count(small)
    m = family_matrix(ordered, HALF)
    pair = TwoValuePair.linear(HALF, Fraction(small), Fraction(large))
    return bigraph_from_matrix(m, pair, count_small, len(sizes) - count_small)


def _transposed(g):
    from symrank.ensemble import BipartiteGraph

    return BipartiteGraph.from_edges(g.n, g.m, [(j, i) for i, j in g.edges()])


def _bipartite_isomorphic(g1, g2) -> bool:
    """Graph isomorphism respecting the bipartition in either orientation."""
    from itertools import permutations

    def sides_match(a, b):
        if (a.m, a.n) != (b.m, b.n) or a.n > 7:
            return False
        for perm in permutations(range(a.n)):
            remapped = sorted(
                sum(((mask >> j) & 1) << perm[j] for j in range(a.n)) for mask in a.row_masks
            )
            if remapped == sorted(b.row_masks):
                return True
        return False

    return sides_match(g1, g2) or sides_match(g1, _transposed(g2))


def test_hadamard_and_sunflower_graphs_nearly_identical():
    # dropping one quarter-size set from the order-8 family and the set {1,2}
    # from the sunflower leaves families with isomorphic class graphs
    sunflower = sunflower_family(8)
    trimmed_sunflower = SetFamily(
        8, [s for s in sunflower.sets if s != frozenset({1, 2})]
    )
    target = _cross_class_graph(trimmed_sunflower)
    h8 = hadamard_family(sylvester(3))
    witnesses = []
    for candidate in h8.sets:
        if len(candidate) != 2:
            continue
        trimmed = SetFamily(8, [s for s in h8.sets if s != candidate])
        if _bipartite_isomorphic(_cross_class_graph(trimmed), target):
            witnesses.append(sorted(candidate))
    assert witnesses, "no removable set yields the sunflower intersection pattern"


def test_family_json_roundtrip():
    fam = fano_family()
    data = fam.to_dict()
    assert data["n"] == 8 and len(data["sets"]) == 14
    assert SetFamily.from_dict(data) == fam


def test_with_ground():
    fam = fano_family().with_ground(12)
    assert fam.ground_n == 12 and len(fam) == 14
    with pytest.raises(ValueError):
        fano_family().with_ground(6)
