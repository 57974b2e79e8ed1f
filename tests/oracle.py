"""Independent oracles used only by the test suite.

These deliberately avoid the production code paths: rank is computed by
plain exact-division Gaussian elimination on Fraction/QuadExt entries, the
coprime-pair scan is a brute-force enumeration, prime powers are found by
trial division, Hadamard entries are read one bit at a time, and the
bisection-closed search prunes on the plain candidate count.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from math import gcd


def rank_naive(matrix) -> int:
    """Rank by textbook exact-division elimination (no fraction-free tricks)."""
    rows = [[_lift(matrix.entry(i, j)) for j in range(matrix.cols)] for i in range(matrix.rows)]
    nrows = len(rows)
    ncols = matrix.cols
    r = 0
    for c in range(ncols):
        piv = None
        for i in range(r, nrows):
            if rows[i][c] != 0:
                piv = i
                break
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        pivot = rows[r][c]
        for i in range(r + 1, nrows):
            factor = rows[i][c] / pivot
            if factor != 0:
                rows[i] = [rows[i][j] - factor * rows[r][j] for j in range(ncols)]
        r += 1
        if r == nrows:
            break
    return r


def _lift(x):
    if isinstance(x, int):
        return Fraction(x)
    return x


def coprime_pairs_brute(target: int, bound: int) -> list[tuple[int, int]]:
    """All coprime 0 < alpha < beta <= bound with alpha*beta/(alpha-beta)^2 == target."""
    out = []
    for beta in range(2, bound + 1):
        for alpha in range(1, beta):
            if gcd(alpha, beta) != 1:
                continue
            if Fraction(alpha * beta, (alpha - beta) ** 2) == target:
                out.append((alpha, beta))
    return out


def hadamard_rows(h) -> list[list[int]]:
    """The +1/-1 entries of a HadamardMatrix, one bit test per entry."""
    n = h.order
    return [[1 if (mask >> j) & 1 else -1 for j in range(n)] for mask in h.row_masks]


def hadamard_csv(rows) -> str:
    """+1/-1 rows as CSV text, one str() per entry."""
    return "\n".join(",".join(str(v) for v in row) for row in rows) + "\n"


def prime_powers_up_to(limit: int) -> list[int]:
    """All prime powers p^m <= limit with m >= 1, ascending (criterion 7's input)."""
    out = []
    for value in range(2, limit + 1):
        p = next(d for d in range(2, value + 1) if value % d == 0)  # least prime factor
        rest = value
        while rest % p == 0:
            rest //= p
        if rest == 1:
            out.append(value)
    return out


def _bisection_compatible(a: int, b: int) -> bool:
    return 2 * (a & b).bit_count() in (a.bit_count(), b.bit_count())


def search_plain_bound(n: int, seed_masks) -> list[int]:
    """Masks of the bisection-closed family `search_bisection_closed` returns
    for a completed search, by the same branching with a weaker bound.

    Candidates are the even-sized masks over [n] compatible with every seed
    mask, by size then lexicographically; branches take the lowest candidate
    first, `best` changes only on strict improvement, and a node is cut when
    the chosen sets plus every remaining candidate cannot beat `best`.
    """
    seed_masks = list(seed_masks)
    bits = [1 << j for j in range(n)]
    candidates = []
    for size in range(2, n + 1, 2):
        for combo in combinations(bits, size):
            mask = sum(combo)
            if mask not in seed_masks and all(_bisection_compatible(mask, s) for s in seed_masks):
                candidates.append(mask)
    count = len(candidates)
    adjacency = [
        sum(1 << j for j, b in enumerate(candidates) if b != a and _bisection_compatible(a, b))
        for a in candidates
    ]
    best: list[int] = []
    chosen: list[int] = []
    hard_cap = 2 * n - len(seed_masks)

    def expand(cand_mask: int) -> bool:
        nonlocal best
        while cand_mask:
            if len(chosen) + cand_mask.bit_count() <= len(best):
                return False
            low = cand_mask & -cand_mask
            v = low.bit_length() - 1
            cand_mask ^= low
            chosen.append(v)
            if len(chosen) > len(best):
                best = chosen.copy()
                if len(best) >= hard_cap:
                    return True
            if expand(cand_mask & adjacency[v]):
                return True
            chosen.pop()
        return False

    expand((1 << count) - 1)
    return seed_masks + [candidates[i] for i in best]
