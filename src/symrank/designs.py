"""Hadamard matrices, symmetric 2-designs, and their ensemble instances.

Hadamard matrices come from a small construction catalog (Sylvester powers
and the quadratic-residue construction for primes q = 3 mod 4).  Like the
designs, they store each row as a bitmask (bit j set for a +1 in column j);
the +1/-1 lists exist only in reports and CSV output.  Every constructed
matrix is validated once against H H^T = order * I: two rows are orthogonal
exactly when they differ in half of the columns, popcount(r_i ^ r_j) = n/2.
A normalized matrix of order 4t yields a symmetric 2-(4t-1, 2t-1, t-1)
design by deleting the first row and column and reading +1 entries as
incidences.  Designs feed the rank machinery through their point-block
incidence graphs.
"""

from __future__ import annotations

from .errors import UnsupportedParameterError, VerificationError
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
        if n not in (1, 2) and n % 4 != 0:
            raise UnsupportedParameterError(f"no Hadamard matrix of order {n} exists")
        for i, mask in enumerate(row_masks):
            if mask < 0 or mask >> n:
                raise ValueError(f"row {i} mask {mask!r} has bits outside columns 0..{n - 1}")
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

    def rows(self) -> list[list[int]]:
        """The matrix as lists of +1/-1 entries."""
        n = self.order
        return [[1 if (m >> j) & 1 else -1 for j in range(n)] for m in self.row_masks]

    def to_csv(self) -> str:
        return "\n".join(",".join(str(v) for v in row) for row in self.rows()) + "\n"

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


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


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
    chi = [0] * q
    for x in range(1, q):
        chi[x] = 1 if x in residues else -1
    n = q + 1
    masks = [(1 << n) - 1] + [
        1 | sum(1 << j for j in range(1, n) if chi[(i - j) % q] < 0) for i in range(1, n)
    ]
    return HadamardMatrix(masks)


class SymmetricDesign:
    """A symmetric 2-(v, k, lambda) design stored as block-by-point bitmask rows."""

    __slots__ = ("v", "k", "lam", "row_masks")

    def __init__(self, v: int, k: int, lam: int, row_masks):
        for name, value in (("v", v), ("k", k), ("lambda", lam)):
            if type(value) is not int:
                raise ValueError(f"{name} must be an integer, got {value!r}")
        row_masks = list(row_masks)
        if len(row_masks) != v:
            raise ValueError(f"expected {v} blocks, got {len(row_masks)}")
        if lam * (v - 1) != k * (k - 1):
            raise VerificationError(
                f"parameters 2-({v},{k},{lam}) violate lambda(v-1) = k(k-1)"
            )
        for i, mask in enumerate(row_masks):
            if mask < 0 or mask >> v:
                raise ValueError(f"block {i} uses points outside [1..{v}]")
            if mask.bit_count() != k:
                raise VerificationError(f"block {i} has size {mask.bit_count()}, not {k}")
        # The block checks imply that every point lies on exactly k blocks.  With
        # N the v x v incidence matrix, N N^T = (k - lam) I + lam J, so
        # N N^T 1 = (k - lam + lam v) 1 = k^2 1 = N (k 1) by lam(v-1) = k(k-1).
        # N is invertible unless k is 0 or lam (det N N^T = (k - lam)^(v-1) k^2),
        # so N^T 1 = k 1; for k in {0, lam} every block is empty or all of [v].
        for i, row in enumerate(row_masks):
            for j in range(i + 1, v):
                shared = (row & row_masks[j]).bit_count()
                if shared != lam:
                    raise VerificationError(
                        f"blocks {i} and {j} share {shared} points, expected {lam}"
                    )
        self.v = v
        self.k = k
        self.lam = lam
        self.row_masks = row_masks

    @classmethod
    def from_blocks(cls, v: int, k: int, lam: int, blocks) -> "SymmetricDesign":
        """Blocks as 1-based point lists, made masks only after the constructor checks v."""
        return cls(v, k, lam, (points_to_mask(block, v) for block in blocks))

    def blocks(self) -> list[list[int]]:
        return [mask_to_points(mask) for mask in self.row_masks]

    def to_dict(self) -> dict:
        return {"v": self.v, "k": self.k, "lambda": self.lam, "blocks": self.blocks()}

    @classmethod
    def from_dict(cls, data: dict) -> "SymmetricDesign":
        blocks = data["blocks"]
        if not isinstance(blocks, list):
            raise ValueError(f"blocks must be a list, got {blocks!r}")
        for block in blocks:
            if not isinstance(block, list):
                raise ValueError(f"block {block!r} is not a list of points")
        return cls.from_blocks(data["v"], data["k"], data["lambda"], blocks)

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
    if not h.normalized:
        raise UnsupportedParameterError("matrix must be normalized first")
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
    if lam < 0:
        raise UnsupportedParameterError(
            f"complement of 2-({v},{design.k},{design.lam}) has negative lambda"
        )
    full = (1 << v) - 1
    return SymmetricDesign(v, v - design.k, lam, [full ^ m for m in design.row_masks])


def incidence_bigraph(design: SymmetricDesign) -> BipartiteGraph:
    """The point-block incidence graph, blocks on the left, points on the right."""
    return BipartiteGraph(design.v, design.v, list(design.row_masks))


def design_rank_instance(design: SymmetricDesign, pair: TwoValuePair) -> SpectralReport:
    """Rank sandwich for the ensemble matrix of the design's incidence graph.

    The low-rank branch (rank <= v + 3) occurs exactly when mu^2 == k - lambda.
    """
    return rank_sandwich(pair, incidence_bigraph(design))


def replicate_bigraph(g: BipartiteGraph, copies: int) -> BipartiteGraph:
    """Disjoint union of `copies` copies; eigenvalue multiplicities add."""
    if copies < 1:
        raise ValueError(f"copies must be >= 1, got {copies}")
    masks = []
    for c in range(copies):
        shift = c * g.n
        masks.extend(mask << shift for mask in g.row_masks)
    return BipartiteGraph(g.m * copies, g.n * copies, masks)


def onebytwo_scan(k_minus_lambda: int, bound: int) -> list[tuple[int, int]]:
    """Coprime pairs 0 < alpha < beta <= bound with alpha*beta/(alpha-beta)^2 = k - lambda.

    Any prime dividing both (alpha-beta)^2 and alpha*beta would divide both
    alpha and beta, so coprime solutions force |alpha - beta| = 1 and the scan
    reduces to beta(beta-1) = k - lambda over adjacent pairs.
    """
    if k_minus_lambda < 1:
        raise ValueError(f"k - lambda must be >= 1, got {k_minus_lambda}")
    if bound < 2:
        raise ValueError(f"bound must be >= 2, got {bound}")
    out = []
    for beta in range(2, bound + 1):
        product = beta * (beta - 1)
        if product > k_minus_lambda:
            break
        if product == k_minus_lambda:
            out.append((beta - 1, beta))
    return out


def prime_powers_up_to(limit: int) -> list[int]:
    """All prime powers p^m <= limit with m >= 1, ascending."""
    out = set()
    for p in range(2, limit + 1):
        if is_prime(p):
            value = p
            while value <= limit:
                out.add(value)
                value *= p
    return sorted(out)
