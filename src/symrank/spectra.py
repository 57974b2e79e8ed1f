"""Eigenvalue multiplicities of bipartite graphs and the rank sandwich.

The multiplicity of an eigenvalue mu (given through mu^2) in a bipartite
adjacency spectrum is obtained as the exact nullity of the Gram matrix minus
mu^2 times the identity, computed on the smaller side.  For a matrix of the
two-valued ensemble this multiplicity nu pins the exact rank inside
[m+n-2-nu, m+n+2-nu].  The lower bound is floored at the rank of the larger
diagonal block f(a,a)(J - I) or f(b,b)(J - I): k for a part of size k >= 2,
and 0 for a part of size 1.

The exact rank itself comes from the Schur complement of the larger part's
diagonal block, as in the proof of the rank theorem; see ensemble_rank.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import DegenerateEnsembleError, GoodPairError, VerificationError
from .exactfield import as_fraction, format_scalar, scalar_sign, solve_monic_quadratic
from .ensemble import BipartiteGraph, TwoValuePair, matrix_from_bigraph, mu_squared
from .linalg import Matrix, rank_int_rows, rank_quad_rows


@dataclass
class SpectralReport:
    """Exact rank of an ensemble matrix together with its multiplicity bounds."""

    m: int
    n: int
    mu_squared: object
    nu: int
    rank_lower: int
    rank_upper: int
    exact_rank: int

    def to_dict(self) -> dict:
        return {
            "m": self.m,
            "n": self.n,
            "mu_squared": format_scalar(self.mu_squared),
            "nu": self.nu,
            "rank_lower": self.rank_lower,
            "rank_upper": self.rank_upper,
            "exact_rank": self.exact_rank,
        }


def _gram_smaller_side(g: BipartiteGraph) -> list[list[int]]:
    """Gram matrix (B B^T or B^T B, whichever is smaller) via bitmask dots."""
    masks = g.row_masks if g.m <= g.n else g.column_masks()
    size = len(masks)
    return [[(masks[i] & masks[j]).bit_count() for j in range(size)] for i in range(size)]


def bigraph_multiplicity(g: BipartiteGraph, mu2, gram: list[list[int]] | None = None) -> int:
    """Multiplicity of +sqrt(mu2) in the adjacency spectrum of the bipartite graph.

    Negative mu2 means the eigenvalue is imaginary and the multiplicity is 0.
    mu2 == 0 is rejected; positive mu2 must be rational and the count is the
    exact nullity of (Gram - mu2 * I) on the smaller side.  A caller that
    already holds that Gram matrix may pass it as gram.
    """
    sign = scalar_sign(mu2)
    if sign == 0:
        raise ValueError("mu^2 == 0 is outside the supported multiplicity computation")
    if sign < 0:
        return 0
    mu2 = as_fraction(mu2)
    p, q = mu2.numerator, mu2.denominator
    s = _gram_smaller_side(g) if gram is None else gram
    rows = []
    for i, gram_row in enumerate(s):
        row = [q * v for v in gram_row]
        row[i] -= p
        rows.append(row)
    return len(s) - rank_int_rows(rows)


def _schur_rows_int(xy, c, d, p: int, gram) -> list[list[int]]:
    """Rows of (p-1) x S over Z: q(xy[i != j] - c^2 + d^2 G_ij) - v_i v_j, q = p-1."""
    q = p - 1
    off = q * (xy - c * c)
    diag_shift = -q * xy
    qd2 = q * d * d
    v = [c + d * row[i] for i, row in enumerate(gram)]
    rows = []
    for i, gram_row in enumerate(gram):
        vi = v[i]
        row = [off + qd2 * g_ij - vi * vj for g_ij, vj in zip(gram_row, v)]
        row[i] += diag_shift
        rows.append(row)
    return rows


def _qmul(x: tuple[int, int], y: tuple[int, int], r: int) -> tuple[int, int]:
    """Product of two Z[sqrt(r)] pairs (a, b) = a + b*sqrt(r)."""
    return (x[0] * y[0] + r * x[1] * y[1], x[0] * y[1] + x[1] * y[0])


def _schur_rows_quad(xy, c, d, p: int, gram, r: int) -> list[list[tuple[int, int]]]:
    """_schur_rows_int over Z[sqrt(r)], with every scalar a pair (a, b) = a + b*sqrt(r)."""
    q = p - 1
    c2, d2 = _qmul(c, c, r), _qmul(d, d, r)
    off = (q * (xy[0] - c2[0]), q * (xy[1] - c2[1]))
    qd2 = (q * d2[0], q * d2[1])
    v = [(c[0] + d[0] * row[i], c[1] + d[1] * row[i]) for i, row in enumerate(gram)]
    rows = []
    for i, gram_row in enumerate(gram):
        row = []
        for g_ij, vj in zip(gram_row, v):
            vv = _qmul(v[i], vj, r)
            row.append((off[0] + qd2[0] * g_ij - vv[0], off[1] + qd2[1] * g_ij - vv[1]))
        row[i] = (row[i][0] - q * xy[0], row[i][1] - q * xy[1])
        rows.append(row)
    return rows


def ensemble_rank(
    pair: TwoValuePair, g: BipartiteGraph, gram: list[list[int]] | None = None
) -> int:
    """Exact rank of matrix_from_bigraph(pair, g), computed on the smaller side.

    Let the larger part have p >= 2 vertices and diagonal value x, the
    smaller part diagonal value y, and write c = f(b,a), d = f(a,b) - f(b,a).
    The cross block is C = cJ + dB, so with N_i the neighbourhood of
    small-side vertex i, deg_i = |N_i| and G_ij = |N_i & N_j| (the
    smaller-side Gram matrix), x(J - I) has the inverse (J/(p-1) - I)/x and
    its Schur complement S satisfies

        (p-1) x S = (p-1)(xy(J - I) - c^2 J + d^2 G) - v v^T,  v_i = c + d deg_i,

    which is (p-1)xy(J - I) - u u^T + (p-1) C^T C with u = C^T 1,
    u_i = cp + d deg_i, expanded.  The rank is p + rank(S); x and y enter
    only as xy.  S is built from the pair's values scaled to integers, or to
    Z[sqrt d] pairs, and ranked by fraction-free elimination.  m = n = 1 has
    rank 2, or 0 when its one cross value is 0.
    """
    pair.require_good()
    if gram is None:
        gram = _gram_smaller_side(g)
    p = max(g.m, g.n)
    if p < 2:
        if not gram:
            return 0
        cross = pair.values[1 if gram[0][0] else 2]  # f(a,b) on the edge, f(b,a) without
        return 2 if cross != 0 else 0
    r, (vaa, vab, vba, vbb) = pair.integral_values
    if r is None:
        return p + rank_int_rows(_schur_rows_int(vaa * vbb, vba, vab - vba, p, gram))
    d = (vab[0] - vba[0], vab[1] - vba[1])
    return p + rank_quad_rows(_schur_rows_quad(_qmul(vaa, vbb, r), vba, d, p, gram, r), r)


def rank_sandwich(pair: TwoValuePair, g: BipartiteGraph) -> SpectralReport:
    """Exact rank of the ensemble matrix of g, verified against its nu bounds.

    Requires f(a,a), f(b,b) and f(a,b) - f(b,a) all nonzero.  Raises
    VerificationError if the computed rank ever escapes the sandwich, which
    would indicate a genuine bug.
    """
    if not pair.is_good():
        raise GoodPairError("rank sandwich requires f(a,a) != 0 and f(b,b) != 0")
    _, vab, vba, _ = pair.values
    if vab == vba:
        raise DegenerateEnsembleError("rank sandwich requires f(a,b) != f(b,a)")
    mu2 = mu_squared(pair)
    gram = _gram_smaller_side(g)
    nu = bigraph_multiplicity(g, mu2, gram)
    m, n = g.m, g.n
    exact = ensemble_rank(pair, g, gram)
    # each diagonal block f(.,.)(J - I) is a principal submatrix: rank k for k >= 2, 0 for k = 1
    block_rank = max((k for k in (m, n) if k >= 2), default=0)
    lower = max(block_rank, m + n - 2 - nu)
    upper = m + n + 2 - nu
    if not lower <= exact <= upper:
        raise VerificationError(
            f"rank {exact} escapes [{lower}, {upper}] for m={m}, n={n}, nu={nu}, "
            f"mu^2={format_scalar(mu2)}"
        )
    return SpectralReport(
        m=m, n=n, mu_squared=mu2, nu=nu, rank_lower=lower, rank_upper=upper, exact_rank=exact
    )


def complete_minus_matching(n: int) -> BipartiteGraph:
    """K_{n,n} minus a perfect matching (biadjacency J - I)."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    full = (1 << n) - 1
    return BipartiteGraph(n, n, [full ^ (1 << i) for i in range(n)])


def low_rank_matching_instance(
    theta, n: int, sign: str = "+"
) -> tuple[object, Matrix, SpectralReport]:
    """A rank <= n+3 member of the ensemble over (1^(n), beta^(n)).

    beta is the chosen root of x^2 - (2 + (1/theta - 1)^2) x + 1 = 0, which
    makes mu^2 == 1 an eigenvalue of K_{n,n} minus a perfect matching with
    multiplicity n - 1.  Returns (beta, matrix, report).
    """
    theta = Fraction(theta)
    if not 0 < theta < 1:
        raise ValueError(f"theta must lie in (0, 1), got {theta}")
    if sign not in ("+", "-"):
        raise ValueError(f"sign must be '+' or '-', got {sign!r}")
    coeff = 2 + (1 / theta - 1) ** 2
    plus, minus = solve_monic_quadratic(-coeff, 1)
    beta = plus if sign == "+" else minus
    pair = TwoValuePair.linear(theta, Fraction(1), beta)
    g = complete_minus_matching(n)
    report = rank_sandwich(pair, g)
    matrix = matrix_from_bigraph(pair, g)
    return beta, matrix, report


@dataclass
class RowlinsonReport:
    """Result of the multiplicity-versus-degree bound checks."""

    applicable: bool
    reason: str | None
    order: int
    nu: int | None = None
    max_degree: int | None = None
    bound_a_holds: bool | None = None
    bound_b_applicable: bool | None = None
    bound_b_holds: bool | None = None

    def to_dict(self) -> dict:
        return {
            "applicable": self.applicable,
            "reason": self.reason,
            "order": self.order,
            "nu": self.nu,
            "max_degree": self.max_degree,
            "bound_a_holds": self.bound_a_holds,
            "bound_b_applicable": self.bound_b_applicable,
            "bound_b_holds": self.bound_b_holds,
        }


def rowlinson_check(
    g: BipartiteGraph, mu2, assume_positive_root: bool = False
) -> RowlinsonReport:
    """Check nu <= order - 1 - d and, on equality, nu <= d - 1.

    Applies only to connected graphs of order > 5 with an eigenvalue mu not
    in {-1, 0} of multiplicity nu > 1.  Since only mu^2 is supplied, mu2 == 1
    is ambiguous between mu = 1 and mu = -1; it is treated as applicable only
    when the caller asserts the positive root is intended.  Unmet
    preconditions yield an inapplicable report, not a failure.
    """
    order = g.m + g.n
    if not g.is_connected():
        return RowlinsonReport(False, "graph is not connected", order)
    if order <= 5:
        return RowlinsonReport(False, "order must exceed 5", order)
    sign = scalar_sign(mu2)
    if sign == 0:
        return RowlinsonReport(False, "mu == 0 is excluded", order)
    if sign < 0:
        return RowlinsonReport(False, "mu^2 < 0 has no real eigenvalue", order)
    if mu2 == 1 and not assume_positive_root:
        return RowlinsonReport(
            False, "mu^2 == 1 is ambiguous between mu = 1 and mu = -1", order
        )
    nu = bigraph_multiplicity(g, mu2)
    if nu <= 1:
        return RowlinsonReport(False, f"multiplicity {nu} is not > 1", order, nu=nu)
    d = max(g.degrees())
    a_holds = nu <= order - 1 - d
    b_applicable = nu == order - 1 - d
    b_holds = nu <= d - 1 if b_applicable else None
    return RowlinsonReport(
        True,
        None,
        order,
        nu=nu,
        max_degree=d,
        bound_a_holds=a_holds,
        bound_b_applicable=b_applicable,
        bound_b_holds=b_holds,
    )
