"""Hadamard matrices, symmetric 2-designs, and their ensemble instances.

Hadamard matrices come from a small construction catalog (Sylvester powers
and the quadratic-residue construction for primes q = 3 mod 4).  Like the
designs, they store each row as a bitmask (bit j set for a +1 in column j);
reports and CSV output write the +1/-1 entries as text straight from the
masks, so no +1/-1 list is ever built.  Every constructed
matrix is validated once against H H^T = order * I: two rows are orthogonal
exactly when they differ in half of the columns, popcount(r_i ^ r_j) = n/2.
A normalized matrix of order 4t yields a symmetric 2-(4t-1, 2t-1, t-1)
design by deleting the first row and column and reading +1 entries as
incidences.  Designs feed the rank machinery through their point-block
incidence graphs.
"""

from __future__ import annotations

from math import isqrt

from .errors import UnsupportedParameterError, VerificationError
from .exactfield import is_prime
from .ensemble import (
    BipartiteGraph,
    TwoValuePair,
    mask_to_points,
    points_to_mask,
)
from .spectra import SpectralReport, rank_sandwich


class HadamardMatrix:
    """A +1/-1 matrix H of order n with H H^T = n I, validated on construction.

    Row i is stored as a bitmask: bit j is set when H[i][j] = +1.
    """

    __slots__ = ("order", "row_masks")

    def __init__(self, row_masks):
        row_masks = list(row_masks)
        n = len(row_masks)
        # two +1/-1 rows have dot product n - 2 * (number of columns where they differ)
        for i in range(n):
            ri = row_masks[i]
            for j in range(i + 1, n):
                if 2 * (ri ^ row_masks[j]).bit_count() != n:
                    raise VerificationError(f"rows {i} and {j} are not orthogonal")
        self.order = n
        self.row_masks = row_masks

    @property
    def normalized(self) -> bool:
        full = (1 << self.order) - 1
        return self.row_masks[0] == full and all(m & 1 for m in self.row_masks)

    def entry_text(self, sep: str) -> list[str]:
        """Each row's +1/-1 entries as text, joined by `sep` (which holds no '0').

        The mask's binary digits, reversed, list columns 0..n-1 in order;
        each digit becomes `sep` and its entry, and the first `sep` is cut off.
        """
        width = f"0{self.order}b"
        one, minus_one, cut = sep + "1", sep + "-1", len(sep)
        return [
            format(mask, width)[::-1].replace("1", one).replace("0", minus_one)[cut:]
            for mask in self.row_masks
        ]

    def to_csv(self) -> str:
        return "\n".join(self.entry_text(",")) + "\n"

    def __eq__(self, other):
        if not isinstance(other, HadamardMatrix):
            return NotImplemented
        return self.row_masks == other.row_masks

    def __repr__(self):
        return f"HadamardMatrix(order={self.order})"


def sylvester(k: int) -> HadamardMatrix:
    """The order 2^k matrix built by repeated Kronecker products of [[1,1],[1,-1]]."""
    if k < 0:
        raise ValueError(f"k must be >= 0, got {k}")
    masks = [1]
    for _ in range(k):
        w = len(masks)
        full = (1 << w) - 1
        masks = [m | m << w for m in masks] + [m | (full ^ m) << w for m in masks]
    return HadamardMatrix(masks)


def paley(q: int) -> HadamardMatrix:
    """Order q+1 Hadamard matrix from quadratic residues, q prime, q = 3 mod 4.

    The skew core S has S[i][j] = +1 when i - j is a nonzero square mod q and
    -1 otherwise off the diagonal.  The bordered matrix with first row all +1,
    first column -1 below it and core I + S is Hadamard.  Negating its rows
    below the first normalizes it, so those rows are built negated:
    [1] followed by -S[i] with -1 on the diagonal.  In mask form, entry (i, j)
    with i, j >= 1 is +1 exactly when i - j is a non-square mod q.
    """
    if not is_prime(q):
        raise UnsupportedParameterError(f"q = {q} is not prime")
    if q % 4 != 3:
        raise UnsupportedParameterError(f"q = {q} is not congruent to 3 mod 4")
    residues = {(x * x) % q for x in range(1, q)}
    # core row i has bit c = j - 1 set when i - j is a non-square, i.e. c - (i - 1)
    # lies in -(non-squares): row i is the mask of that set rotated by i - 1 in q bits
    base = sum(1 << (-x % q) for x in range(1, q) if x not in residues)
    full = (1 << q) - 1
    masks = [(1 << (q + 1)) - 1] + [
        1 | ((base << r | base >> (q - r)) & full) << 1 for r in range(q)
    ]
    return HadamardMatrix(masks)


class SymmetricDesign:
    """A symmetric 2-(v, k, lambda) design stored as block-by-point bitmask rows.

    Its point-block incidence graph, blocks on the left, is built once and kept
    as `graph`.  That graph's Gram matrix holds every pairwise block
    intersection, each counted once: the design is validated by reading it,
    and the rank sandwich of the design's ensemble matrix reads the same one.
    """

    __slots__ = ("v", "k", "lam", "row_masks", "graph")

    def __init__(self, v: int, k: int, lam: int, row_masks):
        if lam * (v - 1) != k * (k - 1):
            raise VerificationError(
                f"parameters 2-({v},{k},{lam}) violate lambda(v-1) = k(k-1)"
            )
        graph = BipartiteGraph(v, v, row_masks)
        for i, row in enumerate(graph.gram()):
            if row[i] != k:
                raise VerificationError(f"block {i} has size {row[i]}, not {k}")
        # The block checks imply that every point lies on exactly k blocks.  With
        # N the v x v incidence matrix, N N^T = (k - lam) I + lam J, so
        # N N^T 1 = (k - lam + lam v) 1 = k^2 1 = N (k 1) by lam(v-1) = k(k-1).
        # N is invertible unless k is 0 or lam (det N N^T = (k - lam)^(v-1) k^2),
        # so N^T 1 = k 1; for k in {0, lam} every block is empty or all of [v].
        # Off its diagonal k, Gram row i must hold lam v - 1 times (v times in all
        # when k = lam).  Its entries left of the diagonal were checked in earlier
        # rows, so the first bad pair of a failing row lies right of the diagonal.
        for i, row in enumerate(graph.gram()):
            if row.count(lam) != v - (k != lam):
                j = next(j for j in range(i + 1, v) if row[j] != lam)
                raise VerificationError(f"blocks {i} and {j} share {row[j]} points, expected {lam}")
        self.v = v
        self.k = k
        self.lam = lam
        self.row_masks = graph.row_masks
        self.graph = graph

    @classmethod
    def from_blocks(cls, v: int, k: int, lam: int, blocks) -> "SymmetricDesign":
        """Blocks as 1-based point lists; points_to_mask names a point outside [1..v]."""
        return cls(v, k, lam, [points_to_mask(block, v) for block in blocks])

    def blocks(self) -> list[list[int]]:
        return [mask_to_points(mask) for mask in self.row_masks]

    def to_dict(self) -> dict:
        return {"v": self.v, "k": self.k, "lambda": self.lam, "blocks": self.blocks()}

    def __eq__(self, other):
        if not isinstance(other, SymmetricDesign):
            return NotImplemented
        return (self.v, self.k, self.lam, self.row_masks) == (
            other.v,
            other.k,
            other.lam,
            other.row_masks,
        )

    def __repr__(self):
        return f"SymmetricDesign(2-({self.v},{self.k},{self.lam}))"


def hadamard_design(h: HadamardMatrix) -> SymmetricDesign:
    """The 2-(4t-1, 2t-1, t-1) design cut from a normalized order-4t matrix.

    Deletes the first row and column; a +1 entry of the core is an incidence.
    """
    if h.order % 4 != 0 or h.order < 8:
        raise UnsupportedParameterError(
            f"order {h.order} does not give a nondegenerate design (need 4t, t >= 2)"
        )
    t = h.order // 4
    return SymmetricDesign(4 * t - 1, 2 * t - 1, t - 1, [m >> 1 for m in h.row_masks[1:]])


_FANO_BLOCKS = [
    (1, 2, 3),
    (1, 4, 5),
    (1, 6, 7),
    (2, 4, 6),
    (2, 5, 7),
    (3, 4, 7),
    (3, 5, 6),
]


def fano() -> SymmetricDesign:
    """The unique 2-(7,3,1) design."""
    return SymmetricDesign.from_blocks(7, 3, 1, _FANO_BLOCKS)


def complement_design(design: SymmetricDesign) -> SymmetricDesign:
    """Blockwise complement, a 2-(v, v-k, v-2k+lambda) design."""
    v = design.v
    lam = v - 2 * design.k + design.lam
    full = (1 << v) - 1
    return SymmetricDesign(v, v - design.k, lam, [full ^ m for m in design.row_masks])


def incidence_bigraph(design: SymmetricDesign) -> BipartiteGraph:
    """The point-block incidence graph, blocks on the left, points on the right.

    It is the design's own graph, so its Gram matrix is the one the design
    was validated with.
    """
    return design.graph


def design_rank_instance(design: SymmetricDesign, pair: TwoValuePair) -> SpectralReport:
    """Rank sandwich for the ensemble matrix of the design's incidence graph.

    The low-rank branch (rank <= v + 3) occurs exactly when mu^2 == k - lambda.
    """
    return rank_sandwich(pair, incidence_bigraph(design))


def onebytwo_scan(k_minus_lambda: int, bound: int) -> list[tuple[int, int]]:
    """Coprime pairs 0 < alpha < beta <= bound with alpha*beta/(alpha-beta)^2 = k - lambda.

    Any prime dividing both (alpha-beta)^2 and alpha*beta would divide both
    alpha and beta, so coprime solutions force |alpha - beta| = 1, leaving
    beta(beta-1) = k - lambda over adjacent pairs.  beta(beta-1) increases
    with beta, so at most one beta solves it: 4(k - lambda) + 1 = (2 beta - 1)^2.
    """
    if k_minus_lambda < 1:
        raise ValueError(f"k - lambda must be >= 1, got {k_minus_lambda}")
    if bound < 2:
        raise ValueError(f"bound must be >= 2, got {bound}")
    beta = (1 + isqrt(4 * k_minus_lambda + 1)) // 2
    if beta * (beta - 1) == k_minus_lambda and beta <= bound:
        return [(beta - 1, beta)]
    return []
