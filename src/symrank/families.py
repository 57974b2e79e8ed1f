"""Fractionally intersecting set families and the bisection-closed search.

A family F over [n] is theta-intersecting when every two distinct members
A, B satisfy |A & B| = theta*|A| or theta*|B| exactly; bisection-closed means
theta = 1/2.  The module builds the named extremal families (the two-sunflower
union, the one derived from a normalized Hadamard matrix, and the 14-set
family over [8] that extends the sunflower by four 4-sets), and searches for
extensions beating the 3n/2 - 2 size by branch-and-bound over compatible
even-sized candidate sets.  The search is a maximum-clique search on the
candidates' compatibility graph, bounded by a greedy colouring of the
candidates at each node (Tomita and Seki's MCQ, on bitsets as in San Segundo
et al.'s BBMC): a clique meets each colour class, an independent set, at most
once.

A family stores each set as a bitmask (bit j is point j + 1), as every 0/1
structure of the package does; the JSON form lists each set as an ascending
point list.
"""

from __future__ import annotations

import time
from fractions import Fraction
from itertools import combinations

from .errors import ConstructionFailedError, UnsupportedParameterError
from .designs import HadamardMatrix
from .ensemble import mask_to_points, points_to_mask

# most candidate sets `search_bisection_closed` will branch over
CANDIDATE_CAP = 5000


class SetFamily:
    """A collection of distinct nonempty subsets of [ground_n], stored as bitmasks.

    Bit j of a mask is point j + 1.  The constructor takes 1-based point
    lists and `from_masks` takes masks; both check that the sets are
    nonempty, inside [1..ground_n] and distinct.  Point lists, ascending,
    are made from the masks only for reports and error messages.
    """

    __slots__ = ("ground_n", "masks")

    def __init__(self, ground_n: int, sets):
        if type(ground_n) is not int or ground_n < 1:
            raise ValueError(f"ground_n must be an integer >= 1, got {ground_n!r}")
        masks = []
        for s in sets:
            try:
                masks.append(points_to_mask(s, ground_n))
            except ValueError as exc:
                raise ValueError(f"set {s!r}: {exc}") from None
        self._store(ground_n, masks)

    @classmethod
    def from_masks(cls, ground_n: int, masks) -> "SetFamily":
        """The family of the given masks, with the constructor's checks."""
        family = cls(ground_n, ())  # checks ground_n
        family._store(ground_n, masks)
        return family

    def _store(self, ground_n: int, masks) -> None:
        masks = tuple(masks)
        seen = set()
        for mask in masks:
            if mask < 0:
                raise ValueError(f"set mask {mask} is negative")
            if not mask:
                raise ValueError("families contain nonempty sets only")
            if mask >> ground_n:
                raise ValueError(f"set {mask_to_points(mask)} has points outside [1..{ground_n}]")
            if mask in seen:
                raise ValueError(f"duplicate set {mask_to_points(mask)}")
            seen.add(mask)
        self.ground_n = ground_n
        self.masks = masks

    def __len__(self) -> int:
        return len(self.masks)

    def __eq__(self, other):
        if not isinstance(other, SetFamily):
            return NotImplemented
        return self.ground_n == other.ground_n and set(self.masks) == set(other.masks)

    def sizes(self) -> list[int]:
        return [mask.bit_count() for mask in self.masks]

    def with_ground(self, ground_n: int) -> "SetFamily":
        """The same sets viewed over another ground set they fit in."""
        return SetFamily.from_masks(ground_n, self.masks)

    def to_dict(self) -> dict:
        return {"n": self.ground_n, "sets": sorted(map(mask_to_points, self.masks))}

    @classmethod
    def from_dict(cls, data: dict) -> "SetFamily":
        sets = data["sets"]
        if not isinstance(sets, list):
            raise ValueError(f"sets must be a list, got {sets!r}")
        for s in sets:
            if not isinstance(s, list):
                raise ValueError(f"set {s!r} is not a list of points")
        return cls(data["n"], sets)

    def __repr__(self):
        return f"SetFamily(n={self.ground_n}, size={len(self.masks)})"


def _mask_compatible(a: int, b: int, theta: Fraction) -> bool:
    c = (a & b).bit_count()
    den, num = theta.denominator, theta.numerator
    return c * den == num * a.bit_count() or c * den == num * b.bit_count()


def theta_violation(family: SetFamily, theta) -> tuple[list[int], list[int]] | None:
    """First pair violating the theta-intersection rule, or None when valid."""
    theta = Fraction(theta)
    if not 0 < theta < 1:
        raise ValueError(f"theta must lie in (0, 1), got {theta}")
    masks = family.masks
    for i in range(len(masks)):
        for j in range(i + 1, len(masks)):
            if not _mask_compatible(masks[i], masks[j], theta):
                return mask_to_points(masks[i]), mask_to_points(masks[j])
    return None


def sunflower_family(n: int) -> SetFamily:
    """The union of two sunflowers: n-1 pairs through 1 and n/2 - 1 sets
    {1, 2, 2j+1, 2j+2}, a bisection-closed family of size 3n/2 - 2."""
    if n < 4 or n % 2:
        raise ValueError(f"n must be even and >= 4, got {n}")
    sets = [(1, k) for k in range(2, n + 1)]
    sets += [(1, 2, 2 * j + 1, 2 * j + 2) for j in range(1, n // 2)]
    return SetFamily(n, sets)


_FANO_FAMILY_SETS = (
    (1, 2),
    (1, 3),
    (1, 4),
    (1, 5),
    (1, 6),
    (1, 7),
    (1, 8),
    (1, 2, 3, 4),
    (1, 2, 5, 6),
    (1, 2, 7, 8),
    (1, 3, 5, 7),
    (1, 3, 6, 8),
    (1, 4, 5, 8),
    (1, 4, 6, 7),
)


def fano_family() -> SetFamily:
    """The explicit 14-set bisection-closed family over [8]."""
    return SetFamily(8, _FANO_FAMILY_SETS)


def hadamard_family(h: HadamardMatrix) -> SetFamily:
    """A bisection-closed family of size 3n/2 - 2 built from a normalized
    Hadamard matrix of order n (n divisible by 8).

    Large sets are the +1 supports of rows below the first; quarter sets are
    the intersections s & row2 of the supports s below row 2.  At most one of
    the n/2 quarter sets the preferred profile needs is ever missing.  Every
    support has n/2 points and two of them meet in n/4, so a support s below
    row 2 meets row2 in n/4 points and has n/4 of the n/2 points outside it.
    If s and s' meet row2 in the same quarter set Q, then s & s' = Q, so
    their halves outside row2 are disjoint and hence complementary; a third
    support with Q would need n/4 >= 2 outside points disjoint from both.  So
    each quarter set comes from at most two of the n - 2 rows, and at least
    n/2 - 1 of them are distinct.

    With exactly one missing, the preferred profile is the n - 2 large sets
    below row 2, the n/2 - 1 quarter sets, and the first intersection of two
    supports, in row order, that has n/4 points and is compatible with all of
    them; when there is none (already the case at n = 16, where eight 4-sets
    pairwise meeting in two points do not fit in [16]) the family keeps all
    n - 1 supports plus the n/2 - 1 quarter sets instead.  With none missing,
    the large sets below row 2 and the quarter sets are the family.  The
    returned family is always checker-verified.
    """
    n = h.order
    if n < 8 or n % 8:
        raise UnsupportedParameterError(
            f"order {n} is unsupported: need a multiple of 8 so the quarter sets "
            "have even halves"
        )
    if not h.normalized:
        raise UnsupportedParameterError("Hadamard matrix must be normalized")
    supports = h.row_masks[1:]
    larges = supports[1:]
    quarter = list(dict.fromkeys(s & supports[0] for s in larges))
    missing = n // 2 - len(quarter)
    half = Fraction(1, 2)
    profiles = []
    if missing == 0:
        profiles.append(larges + quarter)
    elif missing == 1:
        existing = larges + quarter
        # a set already in the family is not compatible with itself
        for t in dict.fromkeys(a & b for a, b in combinations(supports, 2)):
            if t.bit_count() == n // 4 and all(_mask_compatible(t, e, half) for e in existing):
                profiles.append(existing + [t])
                break
        profiles.append(supports + quarter)
    target_total = 3 * n // 2 - 2
    for masks in profiles:
        family = SetFamily.from_masks(n, masks)
        if len(family) == target_total and theta_violation(family, half) is None:
            return family
    raise ConstructionFailedError(
        f"no verified bisection-closed family of size {target_total} found for order {n}"
    )


def colour_class_tops(adjacency: list[int]):
    """The function giving the tops of a greedy colouring of a vertex mask.

    Bit j of adjacency[i] marks an edge i-j.  Each colour class is an
    independent set that starts at the highest uncoloured vertex and takes,
    downward, every uncoloured vertex adjacent to none of the class so far;
    its top is that first vertex, so the tops come out decreasing.  A clique
    among the vertices >= v has at most one vertex in each class, and only in
    a class whose top is >= v.
    """
    # the vertices below v that a class holding v can still take
    below_non_adjacent = [~adj & ((1 << v) - 1) for v, adj in enumerate(adjacency)]

    def tops(mask: int) -> list[int]:
        found = []
        while mask:
            found.append(mask.bit_length() - 1)
            q = mask
            while q:
                v = q.bit_length() - 1
                mask ^= 1 << v
                q &= below_non_adjacent[v]
        return found

    return tops


def search_bisection_closed(
    n: int,
    seed: SetFamily,
    time_budget: float = 60.0,
) -> SetFamily:
    """Best bisection-closed extension of `seed` over [n] found by backtracking.

    Candidates are the even-sized subsets of [n] compatible with every seed
    member, enumerated by size then lexicographically, so a completed search
    is deterministic.  Each node branches on its candidates lowest first,
    after colouring them (`colour_class_tops` on the compatibility graph): a
    family among the candidates >= v takes at most one set per class whose
    top is >= v, and the node stops at the first v where that count cannot
    beat the best family.  The bound only cuts branches that could not
    improve on the best family, so a completed search returns the same
    family as one pruning on the plain candidate count.  The search also
    stops at the trivial 2n family bound; the time budget cuts long searches,
    returning the best family found so far.  The result always passes the
    checker.
    """
    half = Fraction(1, 2)
    if n > 20:
        raise UnsupportedParameterError(f"ground sets beyond 20 are not supported, got {n}")
    seed = seed.with_ground(n)
    violation = theta_violation(seed, half)
    if violation is not None:
        raise ValueError(f"seed is not bisection-closed: {violation[0]} vs {violation[1]}")
    seed_masks = list(seed.masks)
    seed_lookup = set(seed_masks)

    # sums of distinct single bits, in the lexicographic order of the point subsets;
    # at theta = 1/2, A and B are compatible when 2|A & B| is |A| or |B|
    bits = [1 << j for j in range(n)]
    seed_sized = [(s, s.bit_count()) for s in seed_masks]
    candidates = []
    sizes = []
    for size in range(2, n + 1, 2):
        for combo in combinations(bits, size):
            mask = sum(combo)
            if mask in seed_lookup:
                continue
            if all(2 * (mask & s).bit_count() in (size, ps) for s, ps in seed_sized):
                candidates.append(mask)
                sizes.append(size)
    if len(candidates) > CANDIDATE_CAP:
        raise UnsupportedParameterError(
            f"{len(candidates)} candidate sets exceed the cap {CANDIDATE_CAP}; "
            "seed the search with a larger family"
        )

    count = len(candidates)
    adjacency = [0] * count
    for i, (a, pa) in enumerate(zip(candidates, sizes)):
        for j in range(i + 1, count):
            if 2 * (a & candidates[j]).bit_count() in (pa, sizes[j]):
                adjacency[i] |= 1 << j
                adjacency[j] |= 1 << i

    deadline = time.monotonic() + time_budget if time_budget > 0 else None
    best: list[int] = []
    chosen: list[int] = []
    nodes = 0
    hard_cap = 2 * n - len(seed_masks)  # families never exceed 2n sets
    class_tops = colour_class_tops(adjacency)

    def expand(cand_mask: int) -> bool:
        """Returns True when the search should unwind (budget hit or cap met)."""
        nonlocal nodes, best
        tops = class_tops(cand_mask)
        classes = len(tops)  # classes whose top is >= v
        while cand_mask:
            low = cand_mask & -cand_mask
            v = low.bit_length() - 1
            while tops[classes - 1] < v:
                classes -= 1
            # a clique among the candidates >= v takes at most one vertex per class
            if len(chosen) + classes <= len(best):
                return False
            nodes += 1
            if deadline is not None and nodes % 2048 == 0 and time.monotonic() > deadline:
                return True
            cand_mask ^= low
            chosen.append(v)
            if len(chosen) > len(best):
                best = chosen.copy()
                if len(best) >= hard_cap:
                    chosen.pop()
                    return True
            if expand(cand_mask & adjacency[v]):
                chosen.pop()
                return True
            chosen.pop()
        return False

    if count:
        expand((1 << count) - 1)
    extension = [candidates[i] for i in best]
    return SetFamily.from_masks(n, seed_masks + extension)
