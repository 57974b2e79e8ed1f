import json
import math
import random
from fractions import Fraction
from itertools import combinations
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from symrank import families
from symrank.cli import main
from symrank.errors import ConstructionFailedError, UnsupportedParameterError
from symrank.designs import sylvester
from symrank.ensemble import BipartiteGraph, mask_to_points
from symrank.families import (
    SetFamily,
    colour_class_tops,
    fano_family,
    hadamard_family,
    search_bisection_closed,
    sunflower_family,
    theta_violation,
)
from symrank.spectra import bigraph_multiplicity

from oracle import bigraph_edges, bigraph_from_edges, search_plain_bound

HALF = Fraction(1, 2)


def test_checker_examples():
    assert theta_violation(fano_family(), HALF) is None
    bad = SetFamily(4, [(1, 2), (3, 4)])
    assert theta_violation(bad, HALF) == ([1, 2], [3, 4])
    assert theta_violation(SetFamily(4, [(1, 2, 3)]), HALF) is None
    with pytest.raises(ValueError):
        theta_violation(bad, Fraction(3, 2))


def test_set_family_validation():
    with pytest.raises(ValueError):
        SetFamily(4, [(1, 2), (1, 2)])
    with pytest.raises(ValueError):
        SetFamily(4, [(1, 5)])
    with pytest.raises(ValueError):
        SetFamily(4, [()])


def test_set_family_stores_masks():
    fam = SetFamily(5, [(2, 1), [5], (3, 3, 4)])
    assert fam.masks == (0b11, 0b10000, 0b1100)
    assert fam.to_dict() == {"n": 5, "sets": [[1, 2], [3, 4], [5]]}
    assert SetFamily.from_masks(5, [0b1100, 0b11, 0b10000]) == fam
    assert SetFamily.from_masks(6, fam.masks) != fam


@pytest.mark.parametrize(
    "sets, message",
    [
        ([(1, True)], "set (1, True): point True is not an integer"),
        ([(1, 2.0)], "set (1, 2.0): point 2.0 is not an integer"),
        ([(1, 5)], "set (1, 5): point 5 outside [1..4]"),
        ([(1, 0)], "set (1, 0): point 0 outside [1..4]"),
    ],
)
def test_set_family_rejections_name_the_set(sets, message):
    with pytest.raises(ValueError) as exc:
        SetFamily(4, sets)
    assert str(exc.value) == message


@pytest.mark.parametrize(
    "masks, message",
    [
        ([0], "set [] is empty"),
        ([0b10011], "set [1, 2, 5] has points outside [1..4]"),
        ([0b11, 0b11], "duplicate set [1, 2]"),
    ],
)
def test_from_masks_checks(masks, message):
    with pytest.raises(ValueError) as exc:
        SetFamily.from_masks(4, masks)
    assert str(exc.value) == message
    with pytest.raises(ValueError, match="ground_n"):
        SetFamily.from_masks(0, [1])


def test_sunflower_family():
    f8 = sunflower_family(8)
    expected = {
        (1, 2), (1, 3), (1, 4), (1, 5), (1, 6), (1, 7), (1, 8),
        (1, 2, 3, 4), (1, 2, 5, 6), (1, 2, 7, 8),
    }
    assert {tuple(sorted(s)) for s in f8.to_dict()["sets"]} == expected
    assert len(f8) == 10 == 3 * 8 // 2 - 2
    f4 = sunflower_family(4)
    assert len(f4) == 4 and theta_violation(f4, HALF) is None
    for n in range(4, 66, 2):
        fam = sunflower_family(n)
        assert len(fam) == 3 * n // 2 - 2
        assert theta_violation(fam, HALF) is None
    with pytest.raises(ValueError):
        sunflower_family(7)


def test_fano_family():
    ff = fano_family()
    assert len(ff) == 14
    assert theta_violation(ff, HALF) is None
    assert 14 > 3 * 8 // 2 - 2


def test_hadamard_family_order_8():
    fam = hadamard_family(sylvester(3))
    assert len(fam) == 10
    assert theta_violation(fam, HALF) is None
    sizes = sorted(mask.bit_count() for mask in fam.masks)
    assert sizes.count(4) == 6 and sizes.count(2) == 4


def test_hadamard_family_order_16():
    fam = hadamard_family(sylvester(4))
    assert len(fam) == 22
    assert theta_violation(fam, HALF) is None
    assert {mask.bit_count() for mask in fam.masks} == {8, 4}


def test_hadamard_family_other_sources():
    from symrank.designs import paley
    from symrank.errors import ConstructionFailedError

    # the order-8 quadratic-residue matrix also completes to the 6 + 4 profile
    fam = hadamard_family(paley(7))
    assert len(fam) == 10 and theta_violation(fam, HALF) is None
    # order 32 works through the row-support fallback
    fam32 = hadamard_family(sylvester(5))
    assert len(fam32) == 46 and theta_violation(fam32, HALF) is None
    # order-24 row supports have non-uniform triple intersections: the
    # construction must fail loudly rather than return an unverified family
    with pytest.raises(ConstructionFailedError):
        hadamard_family(paley(23))


def test_at_most_one_quarter_set_is_ever_missing():
    from symrank.designs import paley

    sources = [sylvester(k) for k in range(3, 8)]
    sources += [paley(q) for q in (7, 23, 31, 47, 71, 79, 103, 127)]
    for h in sources:
        supports = h.row_masks[1:]
        quarter = {s & supports[0] for s in supports[1:]}
        assert len(quarter) >= h.order // 2 - 1


def hadamard_family_checking_larges_first(h):
    """hadamard_family with its profile search checking each candidate against
    the large sets before the quarter sets, or None where it raises."""
    n = h.order
    supports = h.row_masks[1:]
    larges = supports[1:]
    quarter = list(dict.fromkeys(s & supports[0] for s in larges))
    missing = n // 2 - len(quarter)
    profiles = []
    if missing == 0:
        profiles.append(larges + quarter)
    elif missing == 1:
        existing = larges + quarter
        for t in dict.fromkeys(a & b for a, b in combinations(supports, 2)):
            if t.bit_count() == n // 4 and all(
                families._mask_compatible(t, e, HALF) for e in existing
            ):
                profiles.append(existing + [t])
                break
        profiles.append(supports + quarter)
    for masks in profiles:
        family = SetFamily.from_masks(n, masks)
        if len(family) == 3 * n // 2 - 2 and theta_violation(family, HALF) is None:
            return family
    return None


def test_hadamard_family_is_the_one_the_large_sets_first_order_finds():
    from symrank.designs import paley

    # Sylvester orders 8 to 256, and the Paley orders divisible by 8
    for h in [sylvester(k) for k in range(3, 9)] + [paley(q) for q in (23, 47, 71)]:
        want = hadamard_family_checking_larges_first(h)
        if want is None:
            with pytest.raises(ConstructionFailedError):
                hadamard_family(h)
        else:
            assert hadamard_family(h).masks == want.masks


def test_hadamard_profile_search_checks_the_quarter_sets_first():
    # with the large sets first, order 256 made 2,833,757 compatibility tests
    with mock.patch.object(
        families, "_mask_compatible", wraps=families._mask_compatible
    ) as tested:
        family = hadamard_family(sylvester(8))
    assert len(family) == 382
    assert tested.call_count < 150_000


def test_hadamard_family_rejects_small_orders():
    with pytest.raises(UnsupportedParameterError):
        hadamard_family(sylvester(2))


def test_fano_family_cross_graph_is_heawood():
    # the family is seven 2-sets and seven 4-sets; its cross-class graph has
    # the eigenvalue sqrt(2) six times
    graph = _cross_class_graph(fano_family())
    assert graph.m == graph.n == 7
    assert bigraph_multiplicity(graph, Fraction(2)) == 6
    # the family is the 2-(7,3,1) design in disguise: its graph is 3-regular
    # on 14 vertices with 21 edges, the Heawood graph
    assert {mask.bit_count() for mask in graph.row_masks + graph.column_masks()} == {3}
    # connected, since a k-regular graph has eigenvalue k once per component
    assert len(bigraph_edges(graph)) == 21 and bigraph_multiplicity(graph, 9) == 1


def test_search_extends_sunflower_over_8():
    result = search_bisection_closed(8, sunflower_family(8), time_budget=60)
    assert len(result) >= 14
    assert theta_violation(result, HALF) is None


def test_search_monotone_and_verified():
    seed = sunflower_family(4)
    result = search_bisection_closed(4, seed, time_budget=0.001)
    assert len(result) >= len(seed)
    assert theta_violation(result, HALF) is None


class _CutClock:
    """A stand-in for the `time` module whose clock reads 0 when the deadline is
    set and past any deadline after, so a search stops at its first check."""

    def __init__(self):
        self.reads = 0

    def monotonic(self):
        self.reads += 1
        return 0.0 if self.reads == 1 else math.inf


@pytest.mark.parametrize(
    "seed", [SetFamily(11, []), SetFamily(11, [(1, 2)])], ids=["seedless", "pair"]
)
def test_the_budget_cuts_the_search_at_its_first_clock_check(monkeypatch, seed):
    complete = search_bisection_closed(11, seed, time_budget=600)
    cuts = []
    for _ in range(2):
        clock = _CutClock()
        monkeypatch.setattr(families, "time", clock)
        cuts.append(search_bisection_closed(11, seed, time_budget=1))
        assert clock.reads == 2  # the deadline, then node 2048
    cut = cuts[0]
    assert cuts[1].masks == cut.masks
    assert theta_violation(cut, HALF) is None
    assert set(seed.masks) <= set(cut.masks)
    assert len(seed) <= len(cut) <= len(complete)


def test_a_cut_search_from_the_cli_reports_a_valid_family(monkeypatch, tmp_path, capsys):
    seed_path = tmp_path / "seed.json"
    seed_path.write_text(json.dumps({"n": 11, "sets": []}))
    clock = _CutClock()
    monkeypatch.setattr(families, "time", clock)
    argv = ["family-search", "--n", "11", "--seed-file", str(seed_path), "--budget", "1"]
    assert main(argv) == 0
    assert clock.reads == 2
    report = json.loads(capsys.readouterr().out)
    result = SetFamily.from_dict(report["family"])
    assert report["seed_size"] == 0 and report["size"] == len(result) > 0
    assert theta_violation(result, HALF) is None


def test_search_rejects_bad_input():
    with pytest.raises(ValueError):
        search_bisection_closed(8, SetFamily(4, [(1, 2), (3, 4)]), time_budget=1)


def test_search_beats_bound_from_fano_seed():
    for n in (10, 12):
        result = search_bisection_closed(n, fano_family(), time_budget=30)
        assert len(result) > 3 * n // 2 - 2
        assert theta_violation(result, HALF) is None


def _bisection_compatible(a, b):
    return 2 * (a & b).bit_count() in (a.bit_count(), b.bit_count())


def _largest_extension(size, pool):
    """Size of the largest pairwise compatible family grown by members of `pool`."""
    top = size
    for i, a in enumerate(pool):
        rest = [b for b in pool[i + 1:] if _bisection_compatible(a, b)]
        top = max(top, _largest_extension(size + 1, rest))
    return top


@pytest.mark.parametrize("n, seed_set", [(6, (1, 2)), (6, (1, 2, 3, 4)), (7, (1, 2))])
def test_completed_search_matches_brute_force(n, seed_set):
    # the oracle tries every family of even-sized sets that contains the seed set
    seed = SetFamily(n, [seed_set])
    (s,) = seed.masks
    result = search_bisection_closed(n, seed, time_budget=60)
    pool = [
        m
        for m in range(1, 1 << n)
        if m.bit_count() % 2 == 0 and m != s and _bisection_compatible(m, s)
    ]
    assert len(result) == _largest_extension(1, pool)
    assert s in result.masks and all(m.bit_count() % 2 == 0 for m in result.masks)
    assert theta_violation(result, HALF) is None


@st.composite
def _graphs_and_masks(draw):
    """(adjacency, vertex mask) of a drawn simple graph on up to 10 vertices."""
    count = draw(st.integers(1, 10))
    adjacency = [0] * count
    for i in range(count):
        for j in range(i + 1, count):
            if draw(st.booleans()):
                adjacency[i] |= 1 << j
                adjacency[j] |= 1 << i
    return adjacency, draw(st.integers(0, (1 << count) - 1))


def _largest_clique(vertices, adjacency):
    cliques = [0]
    for v in vertices:  # every clique of the vertices so far, extended by v where it fits
        cliques += [c | 1 << v for c in cliques if c & adjacency[v] == c]
    return max(c.bit_count() for c in cliques)


@given(_graphs_and_masks())
def test_colour_classes_bound_every_suffix_clique(case):
    adjacency, mask = case
    tops = colour_class_tops(adjacency)(mask)
    assert tops == sorted(set(tops), reverse=True)
    assert all(mask >> t & 1 for t in tops)
    members = [v for v in range(len(adjacency)) if mask >> v & 1]
    for v in members:
        suffix = [u for u in members if u >= v]
        assert _largest_clique(suffix, adjacency) <= sum(t >= v for t in tops)


def _relabeled_sunflower(rng, k, n):
    """The sunflower family over [k] on k random points of [n], drawn as the benchmark draws it."""
    sets = [(1, j) for j in range(2, k + 1)]
    sets += [(1, 2, 2 * j + 1, 2 * j + 2) for j in range(1, k // 2)]
    points = rng.sample(range(1, n + 1), k)
    return SetFamily(n, [sorted(points[x - 1] for x in s) for s in sets])


def _search_seeds():
    for n in range(6, 10):
        yield pytest.param(n, SetFamily(n, [(1, 2)]), id=f"pair-n{n}")
    for n in range(10, 14):
        yield pytest.param(n, fano_family(), id=f"fano-n{n}")
    for rng_seed in (1, 3, 7):
        rng = random.Random(rng_seed)
        for n in range(9, 14):
            seed = _relabeled_sunflower(rng, 4 if n <= 11 else 6, n)
            yield pytest.param(n, seed, id=f"sunflower-rng{rng_seed}-n{n}")


@pytest.mark.parametrize("n, seed", _search_seeds())
def test_colour_bound_returns_the_plain_bound_family(n, seed):
    # the colour-class bound only cuts subtrees that could not improve the best
    # family, so a completed search returns exactly what the plain bound finds
    result = search_bisection_closed(n, seed, time_budget=600)
    expected = SetFamily.from_masks(n, search_plain_bound(n, seed.with_ground(n).masks))
    assert result.to_dict() == expected.to_dict()


def _relabelled(masks, image):
    """The masks with point j + 1 sent to point image[j] + 1."""
    return [sum(1 << image[j] for j in range(len(image)) if m >> j & 1) for m in masks]


@st.composite
def _drawn_seeds(draw, max_n):
    """(n, seed masks): a relabelled sunflower, a nonempty sub-family of Fano,
    one or two compatible even sets, or the empty family at n <= 7."""
    kind = draw(st.sampled_from(["sunflower", "fano", "random", "empty"]))
    if kind == "empty":
        return draw(st.integers(2, 7)), []
    if kind == "fano":
        n = draw(st.integers(8, max_n))
        masks = draw(st.lists(st.sampled_from(fano_family().masks), min_size=1, unique=True))
    elif kind == "sunflower":
        n = draw(st.integers(4, max_n))
        masks = list(sunflower_family(draw(st.sampled_from(range(4, n + 1, 2)))).masks)
    else:
        n = draw(st.integers(2, max_n))
        evens = [m for m in range(1, 1 << n) if m.bit_count() % 2 == 0]
        masks = [draw(st.sampled_from(evens))]
        second = [m for m in evens if m != masks[0] and _bisection_compatible(m, masks[0])]
        if second and draw(st.booleans()):
            masks.append(draw(st.sampled_from(second)))
    return n, _relabelled(masks, draw(st.permutations(range(n))))


@settings(max_examples=40, deadline=None)
@given(_drawn_seeds(9))
def test_pruned_search_returns_the_plain_bound_family_on_drawn_seeds(case):
    n, masks = case
    result = search_bisection_closed(n, SetFamily.from_masks(n, masks), time_budget=600)
    assert result.to_dict() == SetFamily.from_masks(n, search_plain_bound(n, masks)).to_dict()


@pytest.mark.parametrize(
    "n, seed",
    [
        pytest.param(6, sunflower_family(6), id="sunflower6"),
        pytest.param(8, sunflower_family(8), id="sunflower8"),
        pytest.param(8, fano_family(), id="fano8"),
    ],
)
def test_seed_of_single_point_atoms_searches_without_swaps(n, seed):
    # every point lies in its own set of seed members, so no swap fixes the seed
    _, atoms = families._candidates(n, list(seed.masks))
    assert all(len(atom) == 1 for atom in atoms)
    result = search_bisection_closed(n, seed, time_budget=600)
    assert result.to_dict() == SetFamily.from_masks(n, search_plain_bound(n, seed.masks)).to_dict()


def _combinations_candidates(n, seed_masks):
    """The candidate list of the search before it counted points per atom:
    every even subset by size, then lexicographically, kept when compatible."""
    bits = [1 << j for j in range(n)]
    candidates = []
    for size in range(2, n + 1, 2):
        for combo in combinations(bits, size):
            mask = sum(combo)
            if mask not in seed_masks and all(_bisection_compatible(mask, s) for s in seed_masks):
                candidates.append(mask)
    return candidates


@given(_drawn_seeds(10))
def test_candidates_by_atom_counts_keep_the_combinations_order(case):
    n, masks = case
    candidates, atoms = families._candidates(n, masks)
    assert candidates == _combinations_candidates(n, masks)
    assert sorted(b for atom in atoms for b in atom) == [1 << j for j in range(n)]
    for atom in atoms:
        assert atom == sorted(atom)
        assert len({tuple(s & b != 0 for s in masks) for b in atom}) == 1


def test_sunflower_over_10_is_maximal():
    # no even-sized set over [10] is compatible with the whole sunflower family,
    # so the search returns the seed itself
    result = search_bisection_closed(10, sunflower_family(10), time_budget=30)
    assert len(result) == 13


def _cross_class_graph(family):
    """Bipartite graph between the two size classes of a two-size family.

    Each class is listed in ascending point order; a small set A and a large
    set B are adjacent when 2|A & B| = |B|.
    """
    ordered = sorted(family.masks, key=lambda s: (s.bit_count(), mask_to_points(s)))
    small = [s for s in ordered if s.bit_count() == ordered[0].bit_count()]
    large = ordered[len(small):]
    rows = [
        sum(1 << j for j, b in enumerate(large) if 2 * (a & b).bit_count() == b.bit_count())
        for a in small
    ]
    return BipartiteGraph(len(small), len(large), rows)


def _transposed(g):
    return bigraph_from_edges(g.n, g.m, [(j, i) for i, j in bigraph_edges(g)])


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
        8, [s for s in sunflower.to_dict()["sets"] if s != [1, 2]]
    )
    target = _cross_class_graph(trimmed_sunflower)
    h8 = hadamard_family(sylvester(3))
    witnesses = []
    for candidate in h8.to_dict()["sets"]:
        if len(candidate) != 2:
            continue
        trimmed = SetFamily(8, [s for s in h8.to_dict()["sets"] if s != candidate])
        if _bipartite_isomorphic(_cross_class_graph(trimmed), target):
            witnesses.append(sorted(candidate))
    assert witnesses, "no removable set yields the sunflower intersection pattern"


def test_family_json_roundtrip():
    fam = fano_family()
    data = fam.to_dict()
    assert data["n"] == 8 and len(data["sets"]) == 14
    assert SetFamily.from_dict(data) == fam


_BISECTION_CLOSED = [
    sunflower_family(4),
    sunflower_family(10),
    fano_family(),
    hadamard_family(sylvester(3)),
    hadamard_family(sylvester(4)),
]


@st.composite
def _relabelled_subfamilies(draw):
    """A drawn subset of a bisection-closed family, its points sent injectively into [n]."""
    family = draw(st.sampled_from(_BISECTION_CLOSED))
    n = draw(st.integers(family.ground_n, 20))
    image = draw(st.permutations(range(n)))
    masks = draw(st.lists(st.sampled_from(family.masks), unique=True))
    relabelled = [sum(1 << image[j] for j in range(family.ground_n) if m >> j & 1) for m in masks]
    return SetFamily.from_masks(n, relabelled)


@given(_relabelled_subfamilies())
def test_family_dict_roundtrip_property(family):
    back = SetFamily.from_dict(family.to_dict())
    assert back == family and back.ground_n == family.ground_n
    assert theta_violation(back, HALF) is None


def test_with_ground():
    fam = fano_family().with_ground(12)
    assert fam.ground_n == 12 and len(fam) == 14
    with pytest.raises(ValueError, match=r"set \[1, 7\] has points outside \[1\.\.6\]"):
        fano_family().with_ground(6)
