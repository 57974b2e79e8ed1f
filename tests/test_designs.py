import random
import time
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given
from hypothesis import strategies as st

from symrank import designs
from symrank.cli import main
from symrank.errors import (
    DegenerateEnsembleError,
    GoodPairError,
    UnsupportedParameterError,
    VerificationError,
)
from symrank.ensemble import (
    BipartiteGraph,
    TwoValuePair,
    matrix_from_bigraph,
    mu_squared,
    transpose_masks,
)
from symrank.designs import (
    HadamardMatrix,
    SymmetricDesign,
    complement_design,
    design_rank_instance,
    fano,
    hadamard_design,
    incidence_bigraph,
    onebytwo_scan,
    paley,
    sylvester,
)
from symrank.spectra import bigraph_multiplicity, rank_sandwich

from oracle import (
    bigraph_edges,
    coprime_pairs_brute,
    design_from_dict,
    empty_bigraph,
    hadamard_csv,
    hadamard_rows,
    prime_powers_up_to,
    rank_naive,
    replicate_bigraph,
    replicated_design_rank,
)

HALF = Fraction(1, 2)


def _masks(rows):
    """Bitmask rows of a +1/-1 matrix: bit j set for a +1 in column j."""
    return [sum(1 << j for j, v in enumerate(row) if v == 1) for row in rows]


def _dot_products_ok(rows):
    """The +1/-1 oracle: H H^T = n I by plain dot products."""
    n = len(rows)
    return all(
        sum(a * b for a, b in zip(rows[i], rows[j])) == (n if i == j else 0)
        for i in range(n)
        for j in range(n)
    )


def test_sylvester():
    assert hadamard_rows(sylvester(0)) == [[1]]
    assert sylvester(0).row_masks == [1]
    assert sylvester(2).order == 4
    h3 = sylvester(3)
    assert h3.order == 8 and h3.normalized
    with pytest.raises(ValueError):
        sylvester(-1)


def test_hadamard_validation_rejects_order_six():
    # no order other than 1, 2 and 4t has three pairwise orthogonal rows
    with pytest.raises(VerificationError):
        HadamardMatrix([0b111111] * 6)


def test_hadamard_validation_rejects_non_orthogonal():
    with pytest.raises(VerificationError):
        HadamardMatrix(_masks([[1, 1], [1, 1]]))


def test_paley_constructions():
    for q in (3, 7, 11, 19, 23):
        h = paley(q)
        assert h.order == q + 1
        assert h.normalized
    with pytest.raises(UnsupportedParameterError):
        paley(5)  # 5 = 1 mod 4
    with pytest.raises(UnsupportedParameterError):
        paley(9)  # not prime
    with pytest.raises(UnsupportedParameterError):
        paley(15)


def test_kron_hadamard():
    # the Sylvester matrix of order 4 is the Kronecker square of the order-2 one
    h2 = hadamard_rows(sylvester(1))
    assert hadamard_rows(sylvester(2)) == [
        [a * b for a in r1 for b in r2] for r1 in h2 for r2 in h2
    ]


def _bordered_paley_normalized(q):
    """Reference: the bordered matrix with core I + S, then rows and columns negated."""
    chi = [0] + [1 if pow(x, (q - 1) // 2, q) == 1 else -1 for x in range(1, q)]
    n = q + 1
    rows = [[1] * n] + [
        [-1] + [1 if j == i else chi[(i - j) % q] for j in range(1, n)] for i in range(1, n)
    ]
    rows = [[-v for v in row] if row[0] == -1 else row for row in rows]
    flip = [v == -1 for v in rows[0]]
    return [[-v if f else v for v, f in zip(row, flip)] for row in rows]


def test_paley_validates_once_and_matches_the_bordered_construction(monkeypatch):
    init = HadamardMatrix.__init__
    calls = []

    def counting_init(self, row_masks):
        calls.append(1)
        init(self, row_masks)

    monkeypatch.setattr(HadamardMatrix, "__init__", counting_init)
    primes = [q for q in range(3, 200, 4) if all(q % d for d in range(2, q))]
    assert primes[:6] == [3, 7, 11, 19, 23, 31] and primes[-1] == 199
    for q in primes:
        calls.clear()
        h = paley(q)
        assert len(calls) == 1
        assert h.normalized
        assert hadamard_rows(h) == _bordered_paley_normalized(q)


def test_hadamard_csv_roundtrip():
    h = paley(7)
    rows = [[int(cell) for cell in line.split(",")] for line in h.to_csv().splitlines()]
    assert HadamardMatrix(_masks(rows)) == h
    assert h.to_csv() == hadamard_csv(hadamard_rows(h))


def test_hadamard_design_parameters():
    d8 = hadamard_design(sylvester(3))
    assert (d8.v, d8.k, d8.lam) == (7, 3, 1)
    d24 = hadamard_design(paley(23))
    assert (d24.v, d24.k, d24.lam) == (23, 11, 5)
    with pytest.raises(UnsupportedParameterError):
        hadamard_design(sylvester(2))  # order 4 is degenerate
    assert not HadamardMatrix([0xFF ^ m for m in sylvester(3).row_masks]).normalized
    # first row all +1, but row 1 negated: column 0 is not all +1
    masks = sylvester(3).row_masks
    assert not HadamardMatrix([masks[0], 0xFF ^ masks[1]] + masks[2:]).normalized


def test_fano_and_complement():
    f = fano()
    assert (f.v, f.k, f.lam) == (7, 3, 1)
    c = complement_design(f)
    assert (c.v, c.k, c.lam) == (7, 4, 2)
    assert complement_design(c) == f


def test_design_validation_catches_bad_blocks():
    blocks = [list(b) for b in fano().blocks()]
    blocks[0] = [1, 2, 4]  # breaks the pairwise-lambda condition
    with pytest.raises(VerificationError):
        SymmetricDesign.from_blocks(7, 3, 1, blocks)
    with pytest.raises(VerificationError):
        SymmetricDesign.from_blocks(7, 3, 2, fano().blocks())


def test_design_validation_rejects_a_block_of_the_wrong_size():
    blocks = fano().blocks()
    blocks[0] = [1, 2]
    with pytest.raises(VerificationError, match="block 0 has size 2, not 3"):
        SymmetricDesign.from_blocks(7, 3, 1, blocks)
    # blocks 0 and 1 share two points, yet the later block's size is reported first
    blocks = fano().blocks()
    blocks[0], blocks[5] = [1, 2, 4], [3, 4]
    with pytest.raises(VerificationError, match="block 5 has size 2, not 3"):
        SymmetricDesign.from_blocks(7, 3, 1, blocks)


@pytest.mark.parametrize(
    "argv",
    [
        ["--design", "fano", "--alpha", "1", "--beta", "2"],
        ["--design", "paley-hadamard", "--q", "23", "--alpha", "2", "--beta", "3"],
        ["--design", "sylvester-hadamard", "--k", "4", "--theta", "1/4", "--alpha", "4", "--beta", "1"],
    ],
    ids=["fano", "paley-23", "sylvester-16"],
)
def test_design_rank_computes_the_gram_once(monkeypatch, capsys, argv):
    # the design's validation and the rank sandwich read one Gram matrix
    computed, read, built, sandwiched = [], [], [], []
    gram, instance, sandwich = BipartiteGraph.gram, design_rank_instance, designs.rank_sandwich

    def gram_spy(g):
        if g._gram is None:
            computed.append(g)
        read.append(gram(g))
        return read[-1]

    def instance_spy(design, pair):
        built.append(design)
        return instance(design, pair)

    def sandwich_spy(pair, g):
        sandwiched.append(g)
        return sandwich(pair, g)

    monkeypatch.setattr(BipartiteGraph, "gram", gram_spy)
    monkeypatch.setattr(designs, "design_rank_instance", instance_spy)
    monkeypatch.setattr(designs, "rank_sandwich", sandwich_spy)
    assert main(["design-rank", *argv]) == 0
    assert '"exact_rank"' in capsys.readouterr().out
    [design] = built
    assert computed == sandwiched == [design.graph]
    assert len(read) >= 2 and all(r is design.graph._gram for r in read)


def test_designs_with_uneven_point_counts_are_rejected_by_block_intersections():
    blocks = fano().blocks()
    blocks[0] = [1, 2, 4]  # point 3 now lies on 2 blocks, point 4 on 4
    with pytest.raises(VerificationError, match="blocks 0 and 1 share 2 points"):
        SymmetricDesign.from_blocks(7, 3, 1, blocks)
    # every block of size 3, but point 7 on no block and point 1 on four
    blocks = [[1, 2, 3], [1, 4, 5], [1, 2, 6], [2, 4, 6], [1, 5, 6], [3, 4, 5], [3, 5, 6]]
    with pytest.raises(VerificationError, match="blocks 0 and 2 share 2 points"):
        SymmetricDesign.from_blocks(7, 3, 1, blocks)


def test_every_accepted_small_design_has_k_blocks_through_each_point():
    # exhaustive over all 0/1 v x v incidence matrices, v <= 4, and every
    # 0 <= lambda <= k <= v with lambda(v-1) = k(k-1)
    accepted = 0
    for v in range(1, 5):
        params = [
            (k, lam) for k in range(v + 1) for lam in range(k + 1) if lam * (v - 1) == k * (k - 1)
        ]
        for masks in product(range(1 << v), repeat=v):
            for k, lam in params:
                try:
                    SymmetricDesign(v, k, lam, masks)
                except VerificationError:
                    continue
                accepted += 1
                assert [col.bit_count() for col in transpose_masks(masks, v)] == [k] * v
    # permutation matrices and their complements, and the empty and full designs
    assert accepted == 3 + 4 + 14 + 50


def _fano_dict(**changes):
    return {"v": 7, "k": 3, "lambda": 1, "blocks": fano().blocks()} | changes


@pytest.mark.parametrize(
    "data, named",
    [
        pytest.param(
            _fano_dict(blocks=[[True, 2, 3]] + fano().blocks()[1:]), "True", id="bool-point"
        ),
        pytest.param(
            _fano_dict(blocks=[[1.0, 2, 3]] + fano().blocks()[1:]), "1.0", id="float-point"
        ),
        pytest.param(_fano_dict(blocks=[[0, 2, 3]] + fano().blocks()[1:]), "point 0", id="point-0"),
    ],
)
def test_design_from_dict_names_a_bad_value(data, named):
    # the reader hands the blocks to SymmetricDesign.from_blocks, whose checks name the value
    with pytest.raises(ValueError) as exc:
        design_from_dict(data)
    assert named in str(exc.value)


def test_design_dict_roundtrip():
    for design in (fano(), complement_design(fano()), hadamard_design(paley(23))):
        assert design_from_dict(design.to_dict()) == design


_CATALOGUE_DESIGNS = [
    fano(),
    complement_design(fano()),
    hadamard_design(paley(23)),
    hadamard_design(paley(43)),
    hadamard_design(sylvester(4)),
]


@st.composite
def _relabelled_designs(draw):
    """A catalogue design with its points permuted."""
    design = draw(st.sampled_from(_CATALOGUE_DESIGNS))
    perm = draw(st.permutations(range(design.v)))
    masks = [sum(1 << perm[j] for j in range(design.v) if m >> j & 1) for m in design.row_masks]
    return SymmetricDesign(design.v, design.k, design.lam, masks)


@given(_relabelled_designs())
def test_design_dict_roundtrip_property(design):
    assert design_from_dict(design.to_dict()) == design


def test_incidence_graphs():
    heawood = incidence_bigraph(fano())
    assert heawood.m + heawood.n == 14
    assert len(bigraph_edges(heawood)) == 21
    assert {mask.bit_count() for mask in heawood.row_masks + heawood.column_masks()} == {3}
    # a k-regular graph has eigenvalue k once per connected component
    assert bigraph_multiplicity(heawood, 9) == 1

    co_heawood = incidence_bigraph(complement_design(fano()))
    assert len(bigraph_edges(co_heawood)) == 7 * 4
    # bipartite complement of the Heawood graph
    assert set(bigraph_edges(heawood)).isdisjoint(bigraph_edges(co_heawood))

    g23 = incidence_bigraph(hadamard_design(paley(23)))
    assert g23.m + g23.n == 46
    assert {mask.bit_count() for mask in g23.row_masks + g23.column_masks()} == {11}


def test_design_rank_instances():
    pair = TwoValuePair.linear(HALF, 1, 2)
    report = design_rank_instance(fano(), pair)
    assert report.nu == 6 and report.exact_rank == 8
    assert report.rank_upper == 10

    report = design_rank_instance(complement_design(fano()), pair)
    assert mu_squared(pair) == 2 == complement_design(fano()).k - complement_design(fano()).lam
    assert report.nu == 6 and report.exact_rank == 8

    report = design_rank_instance(hadamard_design(paley(23)), TwoValuePair.linear(HALF, 2, 3))
    assert report.mu_squared == 6
    assert report.nu == 22
    assert report.exact_rank == 24 <= 26

    # mu^2 != k - lambda forces the high-rank branch
    report = design_rank_instance(fano(), TwoValuePair.linear(HALF, 1, 3))
    assert report.mu_squared == Fraction(3, 4)
    assert report.nu == 0
    assert report.exact_rank >= 12


def test_low_rank_branch_iff_mu2_matches():
    designs = [fano(), complement_design(fano()), hadamard_design(sylvester(3))]
    pairs = [
        TwoValuePair.linear(HALF, a, b)
        for a, b in ((1, 2), (2, 1), (1, 3), (2, 3), (3, 4), (2, 4), (1, 4), (3, 6))
    ]
    for design in designs:
        for pair in pairs:
            report = design_rank_instance(design, pair)
            low = report.exact_rank <= design.v + 3
            assert low == (mu_squared(pair) == design.k - design.lam)


def test_replicate_bigraph():
    heawood = incidence_bigraph(fano())
    assert replicate_bigraph(heawood, 1) == heawood
    tripled = replicate_bigraph(heawood, 3)
    assert (tripled.m, tripled.n) == (21, 21)
    assert len(bigraph_edges(tripled)) == 63
    for c in (1, 2, 3, 4):
        g = replicate_bigraph(heawood, c)
        assert bigraph_multiplicity(g, Fraction(2)) == 6 * c
    pair = TwoValuePair.linear(HALF, 1, 2)
    report = rank_sandwich(pair, replicate_bigraph(heawood, 2))
    assert report.exact_rank <= 8 * 2 + 2
    assert replicate_bigraph(empty_bigraph(2, 2), 3) == empty_bigraph(6, 6)


def _replication_pairs():
    """theta = 1/2 ladder pairs (beta - 1, beta), then random linear and table pairs."""
    rng = random.Random(71)
    pairs = [TwoValuePair.linear(HALF, beta - 1, beta) for beta in (2, 3, 4, 5)]
    while len(pairs) < 10:
        theta = Fraction(rng.randint(1, 9), 10)
        pairs.append(TwoValuePair.linear(theta, rng.randint(-6, 6), rng.randint(-6, 6)))
        values = [Fraction(rng.randint(-6, 6), rng.randint(1, 3)) for _ in range(4)]
        pairs.append(TwoValuePair.table(0, 1, *values))
    good = []
    for pair in pairs:
        try:
            pair.require_good()
            mu_squared(pair)
        except (GoodPairError, DegenerateEnsembleError):
            continue
        good.append(pair)
    return good


def test_replicated_designs_match_the_closed_form():
    designs = [
        fano(),
        complement_design(fano()),
        hadamard_design(paley(23)),
        hadamard_design(paley(43)),
        hadamard_design(sylvester(4)),
    ]
    pairs = _replication_pairs()
    assert len(pairs) >= 8
    low_rank = 0
    for design in designs:
        for copies in (1, 2, 3):
            g = replicate_bigraph(incidence_bigraph(design), copies)
            for pair in pairs:
                want = replicated_design_rank(design.v, design.k, design.lam, copies, pair.values)
                if copies == 1:
                    report = design_rank_instance(design, pair)
                else:
                    report = rank_sandwich(pair, g)
                assert (report.exact_rank, report.nu) == want, (design, copies, pair.values)
                low_rank += report.nu > 0
    assert low_rank >= 6  # the ladder meets k - lambda on Fano, its complement and Paley(23)


def test_replicated_design_closed_form_matches_textbook_elimination():
    for design in (fano(), complement_design(fano())):
        for copies in (1, 2):
            g = replicate_bigraph(incidence_bigraph(design), copies)
            for pair in _replication_pairs()[:6]:
                want, _ = replicated_design_rank(design.v, design.k, design.lam, copies, pair.values)
                assert rank_naive(matrix_from_bigraph(pair, g)) == want


def test_onebytwo_scan_examples():
    assert onebytwo_scan(2, 100) == [(1, 2)]
    assert onebytwo_scan(6, 100) == [(2, 3)]
    assert onebytwo_scan(4, 10000) == []
    with pytest.raises(ValueError):
        onebytwo_scan(0, 100)
    with pytest.raises(ValueError):
        onebytwo_scan(2, 1)


def test_onebytwo_scan_matches_brute_force():
    for target in (1, 2, 3, 4, 6, 12, 20, 30, 49):
        assert onebytwo_scan(target, 300) == coprime_pairs_brute(target, 300)


def _onebytwo_loop(k_minus_lambda, bound):
    """The scan as a loop over beta = 2..bound, stopping once beta(beta-1) passes k - lambda."""
    out = []
    for beta in range(2, bound + 1):
        product = beta * (beta - 1)
        if product > k_minus_lambda:
            break
        if product == k_minus_lambda:
            out.append((beta - 1, beta))
    return out


def test_onebytwo_scan_matches_the_loop():
    for bound in (2, 3, 10, 50, 71, 10**4):
        for target in range(1, 5001):
            assert onebytwo_scan(target, bound) == _onebytwo_loop(target, bound)


def test_onebytwo_scan_of_a_huge_target_returns_at_once():
    beta = 10**20
    target = beta * (beta - 1)
    start = time.perf_counter()
    assert onebytwo_scan(target, beta) == [(beta - 1, beta)]
    assert onebytwo_scan(target, beta - 1) == []
    assert onebytwo_scan(10**30, 10**20) == []
    assert time.perf_counter() - start < 1


def test_prime_powers():
    assert prime_powers_up_to(20) == [2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 17, 19]


def test_random_hadamard_invariant():
    rng = random.Random(3)
    for _ in range(10):
        k = rng.randint(0, 4)
        h = sylvester(k)
        n = h.order
        rows = hadamard_rows(h)
        for i in range(n):
            for j in range(n):
                dot = sum(a * b for a, b in zip(rows[i], rows[j]))
                assert dot == (n if i == j else 0)


@pytest.mark.parametrize(
    "h",
    [sylvester(k) for k in range(5)] + [paley(q) for q in (3, 7, 11, 19)],
    ids=[f"sylvester-{k}" for k in range(5)] + [f"paley-{q}" for q in (3, 7, 11, 19)],
)
def test_every_single_entry_flip_agrees_with_the_dot_product_oracle(h):
    rows = hadamard_rows(h)
    assert _dot_products_ok(rows)
    assert HadamardMatrix(_masks(rows)) == h
    n = h.order
    for i in range(n):
        for j in range(n):
            flipped = [list(row) for row in rows]
            flipped[i][j] = -flipped[i][j]
            if _dot_products_ok(flipped):
                assert n == 1  # [[-1]] is the only Hadamard matrix one flip away
                assert hadamard_rows(HadamardMatrix(_masks(flipped))) == flipped
            else:
                with pytest.raises(VerificationError):
                    HadamardMatrix(_masks(flipped))
