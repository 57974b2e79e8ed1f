"""Two-valued symmetric matrix ensembles and their combinatorial encodings.

A pair function f and a value sequence a define the family of symmetric
zero-diagonal matrices whose (i, j) entry, for i < j, is f(a_i, a_j) or
f(a_j, a_i).  Tournaments over [n] encode members for arbitrary sequences;
for a two-valued sequence (alpha repeated m times, beta repeated n times)
members correspond to bipartite graphs between the alpha block and the beta
block.  The scalar mu^2 = f(a,a) f(b,b) / (f(a,b) - f(b,a))^2 is the quantity
whose presence in a graph spectrum governs rank deficiency.

Pair functions form a closed catalog: the linear form x + (1-2*theta)*y and
an explicit 2x2 value table on {alpha, beta}.

Values that are integers stay Python ints: the linear form keeps its
coefficient 1 - 2*theta as an int when it is integral (theta = 1/2 gives 0),
so int values give int entries and a rank that needs no denominators
cleared.  Tournaments, like bipartite graphs, are stored as bitmasks: bit j
of out[i] is set when i beats j.

The mask helpers below are the package's one conversion between bitmasks
and position lists or 1-based point lists (bit j is point j + 1).
"""

from __future__ import annotations

import random
from fractions import Fraction
from functools import cached_property
from itertools import permutations
from math import factorial, prod

from .errors import DegenerateEnsembleError, GoodPairError
from .exactfield import format_scalar
from .linalg import SIZE_CAP, Matrix, ring_rows


class LinearTheta:
    """The linear form f(x, y) = x + c*y, c = 1 - 2*theta, for theta in (0, 1).

    c is computed once, and is an int when it is integral, so int arguments
    give an int value whenever c is an int (theta = 1/2 among them).
    """

    __slots__ = ("theta", "c")

    def __init__(self, theta):
        theta = Fraction(theta)
        if not 0 < theta < 1:
            raise ValueError(f"theta must lie in (0, 1), got {theta}")
        c = 1 - 2 * theta
        self.theta = theta
        self.c = c.numerator if c.denominator == 1 else c

    def __call__(self, x, y):
        return x + self.c * y


class TwoValuePair:
    """A pair function together with the two values (alpha, beta) it is fed.

    The four values, their integral scaling and mu^2 are computed on first
    use and kept in the instance dict.
    """

    def __init__(self, f, alpha, beta):
        self.f = f
        self.alpha = alpha
        self.beta = beta

    @classmethod
    def linear(cls, theta, alpha, beta) -> "TwoValuePair":
        return cls(LinearTheta(Fraction(theta)), alpha, beta)

    @classmethod
    def table(cls, alpha, beta, f_aa, f_ab, f_ba, f_bb) -> "TwoValuePair":
        """The pair whose function is given by its four values on {alpha, beta}.

        The alphabet needs two distinct values; ValueError names the value otherwise.
        """
        if alpha == beta:
            raise ValueError(
                f"table pair needs alpha != beta, got {format_scalar(alpha)} for both"
            )
        table = {
            (alpha, alpha): f_aa, (alpha, beta): f_ab, (beta, alpha): f_ba, (beta, beta): f_bb
        }
        return cls(lambda x, y: table[x, y], alpha, beta)

    def value_aa(self):
        return self.f(self.alpha, self.alpha)

    def value_ab(self):
        return self.f(self.alpha, self.beta)

    def value_ba(self):
        return self.f(self.beta, self.alpha)

    def value_bb(self):
        return self.f(self.beta, self.beta)

    @cached_property
    def values(self) -> tuple:
        """(f(a,a), f(a,b), f(b,a), f(b,b)), evaluated once per pair."""
        return (self.value_aa(), self.value_ab(), self.value_ba(), self.value_bb())

    @cached_property
    def integral_values(self) -> tuple:
        """(d, values) with the four values scaled by one common nonzero factor.

        The values are linalg.ring_rows of the one row (f(a,a), f(a,b),
        f(b,a), f(b,b)), so one factor scales all four: ints with d None when
        all four are rational, otherwise Z[sqrt(d)] pairs (a, b).  A common
        factor changes neither the rank of an ensemble matrix nor mu^2.
        """
        (row,), d = ring_rows([self.values])
        return d, tuple(row)

    @cached_property
    def mu_squared(self):
        """f(a,a) f(b,b) / (f(a,b) - f(b,a))^2; see the module function mu_squared."""
        vaa, vab, vba, vbb = self.values
        diff = vab - vba
        if diff == 0:
            raise DegenerateEnsembleError(
                f"f(alpha, beta) == f(beta, alpha) == {format_scalar(vab)} at "
                f"alpha = {format_scalar(self.alpha)}, beta = {format_scalar(self.beta)}; "
                "the ensemble has a single member"
            )
        den = diff * diff
        # int / int is a float; an int denominator divides as a Fraction instead
        return vaa * vbb / (Fraction(den) if type(den) is int else den)

    def require_good(self):
        vaa, _, _, vbb = self.values
        for name, value, diagonal in (("alpha", self.alpha, vaa), ("beta", self.beta, vbb)):
            if diagonal == 0:
                raise GoodPairError(
                    f"f({name}, {name}) == 0 at {name} = {format_scalar(value)}; "
                    "a good pair needs both diagonal values nonzero"
                )


def mu_squared(pair: TwoValuePair):
    """f(a,a) f(b,b) / (f(a,b) - f(b,a))^2: a Fraction when rational, else a QuadExt.

    Computed once per pair.  Raises DegenerateEnsembleError when
    f(a,b) == f(b,a), in which case the ensemble contains a single matrix and
    the scalar is undefined.
    """
    return pair.mu_squared


def set_bits(mask: int) -> list[int]:
    """The positions of the set bits of a nonnegative mask, ascending."""
    bits = []
    while mask:
        low = mask & -mask
        bits.append(low.bit_length() - 1)
        mask ^= low
    return bits


def transpose_masks(masks, width: int) -> list[int]:
    """Column masks of row masks over `width` columns: bit i of column j is row i's bit j."""
    cols = [0] * width
    for i, mask in enumerate(masks):
        bit = 1 << i
        while mask:
            low = mask & -mask
            cols[low.bit_length() - 1] |= bit
            mask ^= low
    return cols


def points_to_mask(points, n: int) -> int:
    """The mask of 1-based points; ValueError naming a point that is not an
    int (a bool is not) or lies outside [1..n]."""
    mask = 0
    for point in points:
        if type(point) is not int:
            raise ValueError(f"point {point!r} is not an integer")
        if not 1 <= point <= n:
            raise ValueError(f"point {point} outside [1..{n}]")
        mask |= 1 << (point - 1)
    return mask


def mask_to_points(mask: int) -> list[int]:
    """The 1-based points of a nonnegative mask, ascending."""
    return [j + 1 for j in set_bits(mask)]


def bigraph_classes(m: int, n: int):
    """Yield (row_masks, orbit_size) once per S_m x S_n class of m x n biadjacency masks.

    Orderly generation (Read 1978): the representative is the least sorted
    row tuple over all column permutations, and a row prefix is extended
    only while it is least itself, which is exact because the prefix of a
    least tuple is least.  The permutations act on the smaller part (the
    result is transposed back), so the cost grows with min(m, n)!.  The
    orbit holds m!/prod(mult!) row orders of each of n!/#{column
    permutations fixing the sorted tuple} sorted tuples.
    """
    if n > m:
        for rows, orbit in bigraph_classes(n, m):
            yield transpose_masks(rows, m), orbit
        return
    tables = [
        [sum((mask >> j & 1) << p for j, p in enumerate(perm)) for mask in range(1 << n)]
        for perm in permutations(range(n))
    ]
    rows = []

    def extend(low):
        for row in range(low, 1 << n):
            rows.append(row)
            fixing = 0
            for table in tables:
                image = sorted([table[r] for r in rows])
                if image < rows:
                    break
                fixing += image == rows
            else:
                if len(rows) < m:
                    yield from extend(row)
                else:
                    orders = factorial(m) // prod(factorial(rows.count(r)) for r in set(rows))
                    yield rows.copy(), orders * (factorial(n) // fixing)
            rows.pop()

    yield from extend(0)


class Tournament:
    """A complete orientation of the pairs of [n], stored as out-neighbour bitmasks.

    Bit j of out[i] is set when i beats j.  The constructor takes the masks
    as they are; random_tournament orients each pair once.
    """

    __slots__ = ("n", "out")

    def __init__(self, n: int, out: list[int]):
        self.n = n
        self.out = out

    def oriented_pairs(self) -> list[tuple[int, int]]:
        return [(i, j) for i, mask in enumerate(self.out) for j in set_bits(mask)]

    def __eq__(self, other):
        if not isinstance(other, Tournament):
            return NotImplemented
        return self.n == other.n and self.out == other.out

    def __hash__(self):
        return hash((self.n, tuple(self.out)))

    def to_dict(self) -> dict:
        return {"n": self.n, "edges": [[i + 1, j + 1] for i, j in self.oriented_pairs()]}


def random_tournament(n: int, seed: int) -> Tournament:
    """Each pair oriented by an independent fair coin; the seed fixes the outcome.

    One getrandbits(1) per pair i < j, in row order; 1 means i beats j.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    getrandbits = random.Random(seed).getrandbits
    out = [0] * n
    for i in range(n):
        bit_i = 1 << i
        wins = 0
        for j in range(i + 1, n):
            if getrandbits(1):
                wins |= 1 << j
            else:
                out[j] |= bit_i
        out[i] |= wins
    return Tournament(n, out)


def _int_pair(edge) -> tuple[int, int]:
    """An edge as a pair of ints; ValueError naming the edge otherwise."""
    if isinstance(edge, (list, tuple)) and len(edge) == 2 and all(type(x) is int for x in edge):
        return edge[0], edge[1]
    raise ValueError(f"edge {edge!r} is not a pair of integers")


class BipartiteGraph:
    """Bipartite graph on parts of sizes m and n, stored as row bitmasks."""

    __slots__ = ("m", "n", "row_masks", "_gram")

    def __init__(self, m: int, n: int, row_masks):
        self.m = m
        self.n = n
        self.row_masks = list(row_masks)
        self._gram = None

    def column_masks(self) -> list[int]:
        return transpose_masks(self.row_masks, self.n)

    def gram(self) -> list[list[int]]:
        """The smaller side's Gram matrix (B B^T when m <= n, else B^T B), built once.

        Entry (i, j) = |N_i & N_j| is counted once per unordered pair: row i
        takes its upper part from bitmask popcounts and its lower part from
        column i of the rows above.  Callers only read it.
        """
        if self._gram is None:
            masks = self.row_masks if self.m <= self.n else self.column_masks()
            rows = []
            for i, a in enumerate(masks):
                rows.append([row[i] for row in rows] + [(a & b).bit_count() for b in masks[i:]])
            self._gram = rows
        return self._gram

    def __eq__(self, other):
        if not isinstance(other, BipartiteGraph):
            return NotImplemented
        return self.m == other.m and self.n == other.n and self.row_masks == other.row_masks

    def __hash__(self):
        return hash((self.m, self.n, tuple(self.row_masks)))

    @classmethod
    def from_dict(cls, data: dict) -> "BipartiteGraph":
        """The graph of the JSON form; errors name edges 1-based, as the form writes them."""
        m, n, edges = data["m"], data["n"], data["edges"]
        if not isinstance(edges, list):
            raise ValueError(f"edges must be a list, got {edges!r}")
        edges = list(map(_int_pair, edges))
        if type(m) is not int or type(n) is not int or m < 0 or n < 0:
            raise ValueError(f"part sizes must be nonnegative integers, got m={m!r}, n={n!r}")
        if max(m, n) > SIZE_CAP:
            raise ValueError(f"part sizes must be at most {SIZE_CAP}, got m={m}, n={n}")
        masks = [0] * m
        for i, j in edges:
            if not (1 <= i <= m and 1 <= j <= n):
                raise ValueError(f"edge [{i}, {j}] out of range: the parts are 1..{m} and 1..{n}")
            masks[i - 1] |= 1 << (j - 1)
        return cls(m, n, masks)

    def __repr__(self):
        edges = sum(mask.bit_count() for mask in self.row_masks)
        return f"BipartiteGraph(m={self.m}, n={self.n}, edges={edges})"


def matrix_from_tournament(f, values, tournament: Tournament) -> Matrix:
    """The symmetric zero-diagonal matrix encoding a tournament.

    Entry (i, j) for i < j is f(a_i, a_j) when i beats j and f(a_j, a_i)
    otherwise.
    """
    values = list(values)
    n = tournament.n
    if len(values) != n:
        raise ValueError(f"sequence length {len(values)} != tournament size {n}")
    entries = [0] * (n * n)
    for i, wins in enumerate(tournament.out):
        vi = values[i]
        base = i * n
        for j in range(i + 1, n):
            v = f(vi, values[j]) if wins >> j & 1 else f(values[j], vi)
            entries[base + j] = v
            entries[j * n + i] = v
    return Matrix(n, n, entries)


def matrix_from_bigraph(pair: TwoValuePair, g: BipartiteGraph) -> Matrix:
    """The ensemble matrix of a bipartite graph over the two-valued sequence.

    Blocks: f(a,a)(J - I) on the alpha block, f(b,b)(J - I) on the beta
    block, and cross entries f(a,b) on edges, f(b,a) on non-edges.
    """
    pair.require_good()
    vaa, vab, vba, vbb = pair.values
    m, n = g.m, g.n
    size = m + n
    entries = [0] * (size * size)
    for i in range(m):
        base = i * size
        for j in range(m):
            if i != j:
                entries[base + j] = vaa
        mask = g.row_masks[i]
        for j in range(n):
            v = vab if (mask >> j) & 1 else vba
            entries[base + m + j] = v
            entries[(m + j) * size + i] = v
    for i in range(n):
        base = (m + i) * size
        for j in range(n):
            if i != j:
                entries[base + m + j] = vbb
    return Matrix(size, size, entries)
