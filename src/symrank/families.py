"""Fractionally intersecting set families and the bisection-closed search.

A family F over [n] is theta-intersecting when every two distinct members
A, B satisfy |A & B| = theta*|A| or theta*|B| exactly; bisection-closed means
theta = 1/2.  The module builds the named extremal families (the two-sunflower
union, the one derived from a normalized Hadamard matrix, and the 14-set
family over [8] that extends the sunflower by four 4-sets), maps families to
ensemble matrices, and searches for extensions beating the 3n/2 - 2 size by
branch-and-bound over compatible even-sized candidate sets.

Sets are handled as bitmasks internally; the JSON form lists each set as an
ascending point list.
"""

from __future__ import annotations

import time
from fractions import Fraction
from itertools import combinations

from .errors import ConstructionFailedError, UnsupportedParameterError
from .designs import HadamardMatrix
from .ensemble import LinearTheta
from .linalg import Matrix


class SetFamily:
    """A collection of distinct nonempty subsets of [ground_n] (points 1-based)."""

    __slots__ = ("ground_n", "sets")

    def __init__(self, ground_n: int, sets):
        if type(ground_n) is not int or ground_n < 1:
            raise ValueError(f"ground_n must be an integer >= 1, got {ground_n!r}")
        canonical = []
        seen = set()
        for s in sets:
            if any(type(x) is not int for x in s):
                raise ValueError(f"set {s!r} has a point that is not an integer")
            fs = frozenset(s)
            if not fs:
                raise ValueError("families contain nonempty sets only")
            if any(not 1 <= x <= ground_n for x in fs):
                raise ValueError(f"set {sorted(fs)} has points outside [1..{ground_n}]")
            if fs in seen:
                raise ValueError(f"duplicate set {sorted(fs)}")
            seen.add(fs)
            canonical.append(fs)
        self.ground_n = ground_n
        self.sets = tuple(canonical)

    def __len__(self) -> int:
        return len(self.sets)

    def __eq__(self, other):
        if not isinstance(other, SetFamily):
            return NotImplemented
        return self.ground_n == other.ground_n and set(self.sets) == set(other.sets)

    def masks(self) -> list[int]:
        out = []
        for s in self.sets:
            mask = 0
            for x in s:
                mask |= 1 << (x - 1)
            out.append(mask)
        return out

    def sizes(self) -> list[int]:
        return [len(s) for s in self.sets]

    def with_ground(self, ground_n: int) -> "SetFamily":
        """The same sets viewed over a larger ground set."""
        if ground_n < self.ground_n:
            for s in self.sets:
                if max(s) > ground_n:
                    raise ValueError(f"set {sorted(s)} does not fit in [1..{ground_n}]")
        return SetFamily(ground_n, self.sets)

    def to_dict(self) -> dict:
        return {"n": self.ground_n, "sets": sorted(sorted(s) for s in self.sets)}

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
        return f"SetFamily(n={self.ground_n}, size={len(self.sets)})"


def _mask_compatible(a: int, b: int, theta: Fraction) -> bool:
    c = (a & b).bit_count()
    den, num = theta.denominator, theta.numerator
    return c * den == num * a.bit_count() or c * den == num * b.bit_count()


def theta_violation(family: SetFamily, theta) -> tuple[list[int], list[int]] | None:
    """First pair violating the theta-intersection rule, or None when valid."""
    theta = Fraction(theta)
    if not 0 < theta < 1:
        raise ValueError(f"theta must lie in (0, 1), got {theta}")
    masks = family.masks()
    for i in range(len(masks)):
        for j in range(i + 1, len(masks)):
            if not _mask_compatible(masks[i], masks[j], theta):
                return sorted(family.sets[i]), sorted(family.sets[j])
    return None


def is_theta_intersecting(family: SetFamily, theta) -> bool:
    return theta_violation(family, theta) is None


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


def _masks_to_family(n: int, masks) -> SetFamily:
    sets = []
    for mask in masks:
        s = []
        j = 0
        while mask:
            if mask & 1:
                s.append(j + 1)
            mask >>= 1
            j += 1
        sets.append(tuple(s))
    return SetFamily(n, sets)


def _complete_quarter_sets(existing, pool, needed, node_cap=200_000):
    """Pick `needed` pool masks pairwise compatible and compatible with existing.

    Deterministic first solution via depth-first search over the pool in
    order; returns None when no completion exists within the node cap.
    """
    half = Fraction(1, 2)
    pool = [p for p in pool if all(_mask_compatible(p, e, half) for e in existing)]
    chosen: list[int] = []
    nodes = 0

    def dfs(start: int) -> bool:
        nonlocal nodes
        if len(chosen) == needed:
            return True
        for idx in range(start, len(pool)):
            nodes += 1
            if nodes > node_cap:
                return False
            cand = pool[idx]
            if len(pool) - idx < needed - len(chosen):
                return False
            if all(_mask_compatible(cand, c, half) for c in chosen):
                chosen.append(cand)
                if dfs(idx + 1):
                    return True
                chosen.pop()
        return False

    if needed < 0:
        return None
    if needed == 0:
        return []
    return chosen if dfs(0) else None


def hadamard_family(h: HadamardMatrix) -> SetFamily:
    """A bisection-closed family of size 3n/2 - 2 built from a normalized
    Hadamard matrix of order n (n divisible by 8).

    Large sets are the +1 supports of rows below the first; quarter-size sets
    come from intersecting row supports with the second row's support.  The
    profile with n-2 large and n/2 small sets is attempted first through a
    bounded completion search; when no completion exists (already the case at
    n = 16, where eight 4-sets pairwise meeting in two points do not fit in
    [16]) the family keeps all n-1 row supports plus the n/2 - 1 distinct
    intersections instead.  The returned family is always checker-verified.
    """
    n = h.order
    if n < 8 or n % 8:
        raise UnsupportedParameterError(
            f"order {n} is unsupported: need a multiple of 8 so the quarter sets "
            "have even halves"
        )
    if not h.normalized:
        raise UnsupportedParameterError("Hadamard matrix must be normalized")
    supports = []
    for i in range(1, n):
        mask = 0
        row = h.entries[i]
        for j in range(n):
            if row[j] == 1:
                mask |= 1 << j
        supports.append(mask)
    row2 = supports[0]
    quarter_base = []
    seen = set()
    for s in supports[1:]:
        t = s & row2
        if t not in seen:
            seen.add(t)
            quarter_base.append(t)
    target_total = 3 * n // 2 - 2
    half = Fraction(1, 2)

    # preferred profile: n-2 half-size sets plus n/2 quarter-size sets
    larges = supports[1:]
    pool = []
    pool_seen = set(seen)
    for a in range(len(supports)):
        for b in range(a + 1, len(supports)):
            t = supports[a] & supports[b]
            if t.bit_count() == n // 4 and t not in pool_seen:
                pool_seen.add(t)
                pool.append(t)
    extra = _complete_quarter_sets(larges + quarter_base, pool, n // 2 - len(quarter_base))
    if extra is not None:
        family = _masks_to_family(n, larges + quarter_base + extra)
        if len(family) == target_total and is_theta_intersecting(family, half):
            return family

    # fallback profile: all n-1 row supports plus the distinct intersections
    family = _masks_to_family(n, supports + quarter_base)
    if len(family) == target_total and is_theta_intersecting(family, half):
        return family
    raise ConstructionFailedError(
        f"no verified bisection-closed family of size {target_total} found for order {n}"
    )


def family_matrix(family: SetFamily, theta) -> Matrix:
    """The symmetric zero-diagonal matrix of a theta-intersecting family.

    Entry (i, j) is f_theta(|A_i|, |A_j|) when |A_i & A_j| = theta*|A_j| and
    f_theta(|A_j|, |A_i|) otherwise; for equal sizes both conditions agree
    and the first branch applies.
    """
    theta = Fraction(theta)
    violation = theta_violation(family, theta)
    if violation is not None:
        raise ValueError(f"family is not theta-intersecting: {violation[0]} vs {violation[1]}")
    f = LinearTheta(theta)
    masks = family.masks()
    sizes = [Fraction(m.bit_count()) for m in masks]
    count = len(masks)
    entries = [Fraction(0)] * (count * count)
    for i in range(count):
        for j in range(i + 1, count):
            c = (masks[i] & masks[j]).bit_count()
            if c == theta * sizes[j]:
                v = f(sizes[i], sizes[j])
            else:
                v = f(sizes[j], sizes[i])
            entries[i * count + j] = v
            entries[j * count + i] = v
    return Matrix(count, count, entries)


def rank_to_size_bound(c, n: int) -> Fraction:
    """The size bound (n + 1) / c implied by a rank >= c * m guarantee."""
    c = Fraction(c)
    if not 0 < c <= 1:
        raise ValueError(f"c must lie in (0, 1], got {c}")
    return (n + 1) / c


def search_bisection_closed(
    n: int,
    seed: SetFamily,
    time_budget: float = 60.0,
    max_set_size: int | None = None,
    candidate_cap: int = 5000,
) -> SetFamily:
    """Best bisection-closed extension of `seed` over [n] found by backtracking.

    Candidates are the even-sized subsets of [n] compatible with every seed
    member, enumerated by size then lexicographically, so a completed search
    is deterministic.  Branch-and-bound prunes on the candidate count and the
    trivial 2n family bound; the time budget cuts long searches, returning
    the best family found so far.  The result always passes the checker.
    """
    half = Fraction(1, 2)
    if n > 20:
        raise UnsupportedParameterError(f"ground sets beyond 20 are not supported, got {n}")
    seed = seed.with_ground(n)
    violation = theta_violation(seed, half)
    if violation is not None:
        raise ValueError(f"seed is not bisection-closed: {violation[0]} vs {violation[1]}")
    limit = max_set_size if max_set_size is not None else n
    limit = min(limit, n)
    seed_masks = seed.masks()
    seed_lookup = set(seed_masks)

    candidates = []
    for size in range(2, limit + 1, 2):
        for combo in combinations(range(1, n + 1), size):
            mask = 0
            for x in combo:
                mask |= 1 << (x - 1)
            if mask in seed_lookup:
                continue
            if all(_mask_compatible(mask, s, half) for s in seed_masks):
                candidates.append(mask)
    if len(candidates) > candidate_cap:
        raise UnsupportedParameterError(
            f"{len(candidates)} candidate sets exceed the cap {candidate_cap}; "
            "seed the search with a larger family"
        )

    count = len(candidates)
    adjacency = [0] * count
    for i in range(count):
        for j in range(i + 1, count):
            if _mask_compatible(candidates[i], candidates[j], half):
                adjacency[i] |= 1 << j
                adjacency[j] |= 1 << i

    deadline = time.monotonic() + time_budget if time_budget > 0 else None
    best: list[int] = []
    chosen: list[int] = []
    nodes = 0
    hard_cap = 2 * n - len(seed_masks)  # families never exceed 2n sets

    def expand(cand_mask: int) -> bool:
        """Returns True when the search should unwind (budget hit or cap met)."""
        nonlocal nodes, best
        while cand_mask:
            if len(chosen) + cand_mask.bit_count() <= len(best):
                return False
            nodes += 1
            if deadline is not None and nodes % 2048 == 0 and time.monotonic() > deadline:
                return True
            low = cand_mask & -cand_mask
            v = low.bit_length() - 1
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
    return _masks_to_family(n, seed_masks + extension)
