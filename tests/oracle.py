"""Independent oracles used only by the test suite.

These deliberately avoid the production code paths: rank is computed by
plain exact-division Gaussian elimination on Fraction/QuadExt entries, a
Schur complement by Gauss-Jordan elimination on the same entries, the
coprime-pair scan is a brute-force enumeration, prime powers are found by
trial division, Hadamard entries and graph edges are read one bit at a
time, the bisection-closed search prunes on the plain candidate count, and
the rank of a replicated symmetric design is a closed form.

The graph and tournament builders, the JSON readers of tournaments and
designs and the JSON writer of bipartite graphs serve the tests alone: no
CLI command reads a tournament or a design, and none writes a graph.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from math import gcd

from symrank.designs import SymmetricDesign
from symrank.ensemble import BipartiteGraph, Tournament
from symrank.linalg import Matrix


def from_rows(row_lists) -> Matrix:
    """The Matrix of rows of one length."""
    row_lists = [list(r) for r in row_lists]
    cols = len(row_lists[0]) if row_lists else 0
    return Matrix(len(row_lists), cols, [x for r in row_lists for x in r])


def rank_naive(matrix) -> int:
    """Rank by textbook exact-division elimination (no fraction-free tricks)."""
    rows = [[_lift(x) for x in matrix.row_list(i)] for i in range(matrix.rows)]
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


def schur_complement(matrix, block) -> list[list]:
    """D - C A^-1 B for the invertible principal block A on the indices `block`.

    [A | B] is reduced to [I | A^-1 B] by Gauss-Jordan elimination with
    exact division; the rows and columns of the result follow the indices
    outside `block` in increasing order.
    """
    block = list(block)
    rest = [i for i in range(matrix.rows) if i not in block]
    k = len(block)
    entries = [matrix.row_list(i) for i in range(matrix.rows)]
    aug = [[_lift(entries[i][j]) for j in block + rest] for i in block]
    for c in range(k):
        piv = next(i for i in range(c, k) if aug[i][c] != 0)
        aug[c], aug[piv] = aug[piv], aug[c]
        pivot = aug[c][c]
        aug[c] = [v / pivot for v in aug[c]]
        for i in range(k):
            factor = aug[i][c]
            if i != c and factor != 0:
                aug[i] = [v - factor * w for v, w in zip(aug[i], aug[c])]
    out = []
    for i in rest:
        row = []
        for j, col in enumerate(rest):
            value = _lift(entries[i][col])
            for t, b in enumerate(block):
                value -= entries[i][b] * aug[t][k + j]
            row.append(value)
        out.append(row)
    return out


def _lift(x):
    if isinstance(x, int):
        return Fraction(x)
    return x


def replicated_design_rank(v: int, k: int, lam: int, copies: int, values) -> tuple[int, int]:
    """(rank, nu) of the ensemble matrix of `copies` disjoint incidence graphs
    of a symmetric 2-(v, k, lam) design, in closed form.

    values = (f(a,a), f(a,b), f(b,a), f(b,b)) = (x, f_ab, g, y), delta = f_ab - g.
    The incidence matrix N has N N^T = N^T N = (k - lam) I + lam J and N 1 = k 1,
    so with n = copies * v the matrix splits into invariant subspaces:
    copies * (v - 1) pairs of vectors orthogonal to every copy's all-ones,
    copies - 1 pairs of differences of the copies' all-ones, and the global
    all-ones pair.  Each pair block is singular exactly when
    xy = delta^2 * (eigenvalue of N N^T), and the global block is the 2 x 2
    [[x(n-1), gn + delta k], [gn + delta k, y(n-1)]].  nu counts the same
    coincidences: mu^2 = xy / delta^2 equals k - lam, or k^2.
    """
    x, f_ab, g, y = values
    delta = f_ab - g
    n = copies * v
    on_design = x * y == delta * delta * (k - lam)
    on_copies = x * y == delta * delta * k * k
    a, b, c = x * (n - 1), g * n + delta * k, y * (n - 1)
    global_rank = 2 if a * c != b * b else int(any((a, b, c)))
    rank = copies * (v - 1) * (2 - on_design) + (copies - 1) * (2 - on_copies) + global_rank
    return rank, copies * (v - 1) * on_design + copies * on_copies


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


def empty_bigraph(m: int, n: int) -> BipartiteGraph:
    return BipartiteGraph(m, n, [0] * m)


def complete_bigraph(m: int, n: int) -> BipartiteGraph:
    return BipartiteGraph(m, n, [(1 << n) - 1] * m)


def bigraph_from_edges(m: int, n: int, edges) -> BipartiteGraph:
    """The m x n bipartite graph with the given 0-based edges (i, j)."""
    masks = [0] * m
    for i, j in edges:
        masks[i] |= 1 << j
    return BipartiteGraph(m, n, masks)


def bigraph_edges(g) -> list[tuple[int, int]]:
    """The 0-based edges (i, j) of a bipartite graph, in row order."""
    return [(i, j) for i, mask in enumerate(g.row_masks) for j in range(g.n) if mask >> j & 1]


def bigraph_to_dict(g) -> dict:
    """The JSON form `bigraph --in` reads: 1-based edges."""
    return {"m": g.m, "n": g.n, "edges": [[i + 1, j + 1] for i, j in bigraph_edges(g)]}


def replicate_bigraph(g, copies: int) -> BipartiteGraph:
    """Disjoint union of `copies` copies; eigenvalue multiplicities add."""
    masks = [mask << (c * g.n) for c in range(copies) for mask in g.row_masks]
    return BipartiteGraph(g.m * copies, g.n * copies, masks)


def tournament_from_pairs(n: int, oriented_pairs) -> Tournament:
    """The tournament in which i beats j for each given (i, j), 0-based."""
    out = [0] * n
    for i, j in oriented_pairs:
        out[i] |= 1 << j
    return Tournament(n, out)


def tournament_from_dict(data: dict) -> Tournament:
    """The tournament of the JSON form `tournament` writes: 1-based edges [i, j], i beats j."""
    return tournament_from_pairs(data["n"], [(i - 1, j - 1) for i, j in data["edges"]])


def beats(t, i: int, j: int) -> bool:
    return bool(t.out[i] >> j & 1)


def design_from_dict(data: dict) -> SymmetricDesign:
    """The design of the JSON form `design` writes: 1-based point lists."""
    return SymmetricDesign.from_blocks(data["v"], data["k"], data["lambda"], data["blocks"])
