"""Two-valued symmetric matrix ensembles and their combinatorial encodings.

A pair function f and a value sequence a define the family of symmetric
zero-diagonal matrices whose (i, j) entry, for i < j, is f(a_i, a_j) or
f(a_j, a_i).  Tournaments over [n] encode members for arbitrary sequences;
for a two-valued sequence (alpha repeated m times, beta repeated n times)
members correspond to bipartite graphs between the alpha block and the beta
block.  The scalar mu^2 = f(a,a) f(b,b) / (f(a,b) - f(b,a))^2 is the quantity
whose presence in a graph spectrum governs rank deficiency.

Pair functions form a closed catalog: the linear form x + (1-2*theta)*y, the
squared difference (x-y)^2, and an explicit 2x2 value table on {alpha, beta}.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .errors import (
    DegenerateEnsembleError,
    GoodPairError,
    NotInEnsembleError,
)
from .exactfield import QuadExt, format_scalar, parse_scalar
from .linalg import Matrix, integer_scaled, quad_discriminant, quad_scaled


@dataclass(frozen=True)
class LinearTheta:
    """The linear form f(x, y) = x + (1 - 2*theta)*y for theta in (0, 1)."""

    theta: Fraction

    def __post_init__(self):
        object.__setattr__(self, "theta", Fraction(self.theta))
        if not 0 < self.theta < 1:
            raise ValueError(f"theta must lie in (0, 1), got {self.theta}")

    def __call__(self, x, y):
        return x + (1 - 2 * self.theta) * y

    def to_dict(self) -> dict:
        return {"variant": "linear_theta", "theta": format_scalar(self.theta)}


@dataclass(frozen=True)
class SquaredDiff:
    """f(x, y) = (x - y)^2; vanishes on the diagonal, so never a good pair."""

    def __call__(self, x, y):
        return (x - y) ** 2

    def to_dict(self) -> dict:
        return {"variant": "squared_diff"}


@dataclass(frozen=True)
class TableFunction:
    """A pair function given by its four values on the alphabet {alpha, beta}."""

    alpha: object
    beta: object
    f_aa: object
    f_ab: object
    f_ba: object
    f_bb: object

    def __call__(self, x, y):
        if x == self.alpha:
            vx = 0
        elif x == self.beta:
            vx = 1
        else:
            raise ValueError(f"table function is defined only on its alphabet, got {x}")
        if y == self.alpha:
            vy = 0
        elif y == self.beta:
            vy = 1
        else:
            raise ValueError(f"table function is defined only on its alphabet, got {y}")
        return (self.f_aa, self.f_ab, self.f_ba, self.f_bb)[vx * 2 + vy]

    def to_dict(self) -> dict:
        return {
            "variant": "table",
            "alpha": format_scalar(self.alpha),
            "beta": format_scalar(self.beta),
            "f_aa": format_scalar(self.f_aa),
            "f_ab": format_scalar(self.f_ab),
            "f_ba": format_scalar(self.f_ba),
            "f_bb": format_scalar(self.f_bb),
        }


def pair_function_from_dict(data: dict):
    variant = data["variant"]
    if variant == "linear_theta":
        return LinearTheta(parse_scalar(data["theta"]))
    if variant == "squared_diff":
        return SquaredDiff()
    if variant == "table":
        return TableFunction(
            parse_scalar(data["alpha"]),
            parse_scalar(data["beta"]),
            parse_scalar(data["f_aa"]),
            parse_scalar(data["f_ab"]),
            parse_scalar(data["f_ba"]),
            parse_scalar(data["f_bb"]),
        )
    raise ValueError(f"unknown pair-function variant {variant!r}")


@dataclass(frozen=True)
class TwoValuePair:
    """A pair function together with the two values (alpha, beta) it is fed."""

    f: object
    alpha: object
    beta: object

    @classmethod
    def linear(cls, theta, alpha, beta) -> "TwoValuePair":
        return cls(LinearTheta(Fraction(theta)), alpha, beta)

    @classmethod
    def table(cls, alpha, beta, f_aa, f_ab, f_ba, f_bb) -> "TwoValuePair":
        return cls(TableFunction(alpha, beta, f_aa, f_ab, f_ba, f_bb), alpha, beta)

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

        d is None and the values are ints when all four are rational;
        otherwise they are Z[sqrt(d)] pairs (a, b).  A common factor changes
        neither the rank of an ensemble matrix nor mu^2.
        """
        d = quad_discriminant(self.values)
        if d is None:
            return None, tuple(integer_scaled(self.values))
        return d, tuple(quad_scaled(self.values))

    @cached_property
    def mu_squared(self):
        """f(a,a) f(b,b) / (f(a,b) - f(b,a))^2; see the module function mu_squared."""
        vaa, vab, vba, vbb = self.values
        diff = vab - vba
        if diff == 0:
            raise DegenerateEnsembleError(
                "f(alpha, beta) == f(beta, alpha); the ensemble has a single member"
            )
        value = vaa * vbb / (diff * diff)
        if isinstance(value, QuadExt) and value.b == 0:
            return value.a
        return value

    def is_good(self) -> bool:
        vaa, _, _, vbb = self.values
        return vaa != 0 and vbb != 0

    def require_good(self):
        if not self.is_good():
            raise GoodPairError(
                f"f({format_scalar(self.alpha)}, .) or f({format_scalar(self.beta)}, .) "
                "vanishes on the diagonal"
            )

    def to_dict(self) -> dict:
        return {
            "f": self.f.to_dict(),
            "alpha": format_scalar(self.alpha),
            "beta": format_scalar(self.beta),
        }


def mu_squared(pair: TwoValuePair):
    """f(a,a) f(b,b) / (f(a,b) - f(b,a))^2, demoted to a Fraction when rational.

    Computed once per pair.  Raises DegenerateEnsembleError when
    f(a,b) == f(b,a), in which case the ensemble contains a single matrix and
    the scalar is undefined.
    """
    return pair.mu_squared


def good_pair_check(f, values) -> bool:
    """True iff f(a_i, a_i) != 0 for every value in the sequence."""
    return all(f(x, x) != 0 for x in values)


def two_valued(alpha, m: int, beta, n: int) -> tuple:
    """The sequence (alpha, ..., alpha, beta, ..., beta) with m and n copies."""
    return (alpha,) * m + (beta,) * n


class Tournament:
    """A complete orientation of the pairs of [n]; pair (i, j) means i beats j."""

    __slots__ = ("n", "_wins")

    def __init__(self, n: int, oriented_pairs):
        self.n = n
        wins = set()
        for i, j in oriented_pairs:
            if not (0 <= i < n and 0 <= j < n) or i == j:
                raise ValueError(f"invalid oriented pair ({i}, {j}) for n={n}")
            if (j, i) in wins or (i, j) in wins:
                raise ValueError(f"pair {{{i}, {j}}} oriented twice")
            wins.add((i, j))
        if len(wins) != n * (n - 1) // 2:
            raise ValueError("orientation is not complete")
        self._wins = frozenset(wins)

    def beats(self, i: int, j: int) -> bool:
        return (i, j) in self._wins

    def oriented_pairs(self) -> list[tuple[int, int]]:
        return sorted(self._wins)

    def __eq__(self, other):
        if not isinstance(other, Tournament):
            return NotImplemented
        return self.n == other.n and self._wins == other._wins

    def __hash__(self):
        return hash((self.n, self._wins))

    def to_dict(self) -> dict:
        return {"n": self.n, "edges": [[i + 1, j + 1] for i, j in self.oriented_pairs()]}

    @classmethod
    def from_dict(cls, data: dict) -> "Tournament":
        return cls(data["n"], [(i - 1, j - 1) for i, j in data["edges"]])


def random_tournament(n: int, seed: int) -> Tournament:
    """Each pair oriented by an independent fair coin; the seed fixes the outcome."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    rng = random.Random(seed)
    pairs = []
    for i in range(n):
        for j in range(i + 1, n):
            pairs.append((i, j) if rng.getrandbits(1) else (j, i))
    return Tournament(n, pairs)


class BipartiteGraph:
    """Bipartite graph on parts of sizes m and n, stored as row bitmasks."""

    __slots__ = ("m", "n", "row_masks")

    def __init__(self, m: int, n: int, row_masks):
        if m < 0 or n < 0:
            raise ValueError("part sizes must be nonnegative")
        row_masks = list(row_masks)
        if len(row_masks) != m:
            raise ValueError(f"expected {m} row masks, got {len(row_masks)}")
        full = (1 << n) - 1
        for mask in row_masks:
            if mask & ~full:
                raise ValueError("row mask has bits outside the right part")
        self.m = m
        self.n = n
        self.row_masks = row_masks

    @classmethod
    def from_edges(cls, m: int, n: int, edges) -> "BipartiteGraph":
        masks = [0] * m
        for i, j in edges:
            if not (0 <= i < m and 0 <= j < n):
                raise ValueError(f"edge ({i}, {j}) out of range")
            masks[i] |= 1 << j
        return cls(m, n, masks)

    @classmethod
    def empty(cls, m: int, n: int) -> "BipartiteGraph":
        return cls(m, n, [0] * m)

    @classmethod
    def complete(cls, m: int, n: int) -> "BipartiteGraph":
        return cls(m, n, [(1 << n) - 1] * m)

    def has_edge(self, i: int, j: int) -> bool:
        return bool(self.row_masks[i] >> j & 1)

    def edges(self) -> list[tuple[int, int]]:
        out = []
        for i, mask in enumerate(self.row_masks):
            while mask:
                low = mask & -mask
                out.append((i, low.bit_length() - 1))
                mask ^= low
        return out

    def edge_count(self) -> int:
        return sum(mask.bit_count() for mask in self.row_masks)

    def column_masks(self) -> list[int]:
        cols = [0] * self.n
        for i, mask in enumerate(self.row_masks):
            bit = 1 << i
            while mask:
                low = mask & -mask
                cols[low.bit_length() - 1] |= bit
                mask ^= low
        return cols

    def degrees(self) -> list[int]:
        """Degrees of all m + n vertices, left part first."""
        left = [mask.bit_count() for mask in self.row_masks]
        right = [mask.bit_count() for mask in self.column_masks()]
        return left + right

    def biadjacency(self) -> Matrix:
        entries = []
        for mask in self.row_masks:
            entries.extend((mask >> j) & 1 for j in range(self.n))
        return Matrix(self.m, self.n, entries)

    def is_connected(self) -> bool:
        """Connectivity of the bipartite graph (isolated vertices disconnect it)."""
        total = self.m + self.n
        if total <= 1:
            return True
        cols = self.column_masks()
        seen_left = 1
        seen_right = 0
        frontier_left = 1
        frontier_right = 0
        while frontier_left or frontier_right:
            new_right = 0
            mask = frontier_left
            while mask:
                low = mask & -mask
                new_right |= self.row_masks[low.bit_length() - 1]
                mask ^= low
            new_right &= ~seen_right
            seen_right |= new_right
            new_left = 0
            mask = frontier_right | new_right
            while mask:
                low = mask & -mask
                new_left |= cols[low.bit_length() - 1]
                mask ^= low
            new_left &= ~seen_left
            seen_left |= new_left
            frontier_left, frontier_right = new_left, new_right
        return seen_left.bit_count() == self.m and seen_right.bit_count() == self.n

    def __eq__(self, other):
        if not isinstance(other, BipartiteGraph):
            return NotImplemented
        return self.m == other.m and self.n == other.n and self.row_masks == other.row_masks

    def __hash__(self):
        return hash((self.m, self.n, tuple(self.row_masks)))

    def to_dict(self) -> dict:
        return {"m": self.m, "n": self.n, "edges": [[i + 1, j + 1] for i, j in self.edges()]}

    @classmethod
    def from_dict(cls, data: dict) -> "BipartiteGraph":
        return cls.from_edges(
            data["m"], data["n"], [(i - 1, j - 1) for i, j in data["edges"]]
        )

    def __repr__(self):
        return f"BipartiteGraph(m={self.m}, n={self.n}, edges={self.edge_count()})"


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
    for i in range(n):
        for j in range(i + 1, n):
            v = f(values[i], values[j]) if tournament.beats(i, j) else f(values[j], values[i])
            entries[i * n + j] = v
            entries[j * n + i] = v
    return Matrix(n, n, entries)


def tournament_from_matrix(m: Matrix, f, values) -> Tournament:
    """Recover a tournament consistent with a matrix of the ensemble.

    When f(a_i, a_j) == f(a_j, a_i) the orientation is ambiguous and the
    canonical choice i -> j (for i < j) is made.  Entries matching neither
    value raise NotInEnsembleError.
    """
    values = list(values)
    n = len(values)
    if m.rows != n or m.cols != n:
        raise ValueError(f"matrix is {m.rows}x{m.cols}, sequence has length {n}")
    pairs = []
    for i in range(n):
        for j in range(i + 1, n):
            entry = m.entry(i, j)
            forward = f(values[i], values[j])
            backward = f(values[j], values[i])
            if entry == forward:
                pairs.append((i, j))
            elif entry == backward:
                pairs.append((j, i))
            else:
                raise NotInEnsembleError(
                    f"entry ({i}, {j}) = {format_scalar(entry)} matches neither "
                    f"{format_scalar(forward)} nor {format_scalar(backward)}"
                )
    return Tournament(n, pairs)


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


def bigraph_from_matrix(m: Matrix, pair: TwoValuePair, left: int, right: int) -> BipartiteGraph:
    """Inverse of matrix_from_bigraph; validates full ensemble membership."""
    vaa, vab, vba, vbb = pair.values
    if vab == vba:
        raise DegenerateEnsembleError("f(alpha, beta) == f(beta, alpha)")
    size = left + right
    if m.rows != size or m.cols != size:
        raise ValueError(f"matrix is {m.rows}x{m.cols}, expected {size}x{size}")
    for i in range(size):
        if m.entry(i, i) != 0:
            raise NotInEnsembleError(f"nonzero diagonal entry at ({i}, {i})")
    for i in range(left):
        for j in range(left):
            if i != j and m.entry(i, j) != vaa:
                raise NotInEnsembleError(f"alpha-block entry ({i}, {j}) != f(alpha, alpha)")
    for i in range(right):
        for j in range(right):
            if i != j and m.entry(left + i, left + j) != vbb:
                raise NotInEnsembleError(f"beta-block entry ({i}, {j}) != f(beta, beta)")
    masks = [0] * left
    for i in range(left):
        for j in range(right):
            entry = m.entry(i, left + j)
            if entry != m.entry(left + j, i):
                raise NotInEnsembleError(f"matrix is not symmetric at ({i}, {left + j})")
            if entry == vab:
                masks[i] |= 1 << j
            elif entry != vba:
                raise NotInEnsembleError(
                    f"cross entry ({i}, {j}) = {format_scalar(entry)} matches neither "
                    f"f(alpha, beta) nor f(beta, alpha)"
                )
    return BipartiteGraph(left, right, masks)
