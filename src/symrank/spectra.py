"""Eigenvalue multiplicities of bipartite graphs and the rank sandwich.

The multiplicity of an eigenvalue mu (given through mu^2) in a bipartite
adjacency spectrum is the nullity of the Gram matrix minus mu^2 times the
identity, on the smaller side.  Every function here reads it as g.gram(),
which the graph builds once; a design's graph arrives with it built, as the
design's validation reads it too.  It is a nonnegative integer matrix, so a
rational mu^2 can be one of its eigenvalues only as an integer no larger than
its largest row sum; any other mu^2 has multiplicity 0 with no elimination,
and one inside that bound is counted exactly.  For a matrix of the
two-valued ensemble this multiplicity nu pins the exact rank inside
[m+n-2-nu, m+n+2-nu].  The lower bound is floored at the rank of the larger
diagonal block f(a,a)(J - I) or f(b,b)(J - I): k for a part of size k >= 2,
and 0 for a part of size 1.

The exact rank comes from the Schur complement of the larger part's diagonal
block, as in the rank theorem's proof, built by _schur_rows; see ensemble_rank.

The paper's low-rank constructions (symmetric designs, disjoint copies of one,
K_{n,n} minus a perfect matching) have a Gram matrix aI + bB with
B = I_c (x) J_v.  It lies in the Bose-Mesner algebra of a trivial or
group-divisible scheme, and so does that Schur complement, so both spectra,
and with them nu and the exact rank, follow from a, b, c and v.  When the
smaller side has more than linalg.SMALL_RANK vertices, rank_sandwich checks
every entry of the Gram matrix for that form (_gram_algebra) and, if it
passes, reads both numbers off the eigenvalues (_closed_form) with no
elimination.  Every other Gram matrix takes the general route,
bigraph_multiplicity and ensemble_rank, which is also the closed form's oracle.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction

from .errors import VerificationError
from .exactfield import as_fraction, format_scalar, scalar_sign, solve_monic_quadratic
from .ensemble import BipartiteGraph, LinearTheta, TwoValuePair, mu_squared
from .linalg import Matrix  # noqa: F401  kept bound: bench/test_bench.py reads spectra.Matrix
from .linalg import SMALL_RANK, rank_rows


class SpectralReport:
    """Exact rank of an ensemble matrix together with its multiplicity bounds."""

    __slots__ = ("m", "n", "mu_squared", "nu", "rank_lower", "rank_upper", "exact_rank")

    def __init__(self, m, n, mu_squared, nu, rank_lower, rank_upper, exact_rank):
        self.m = m
        self.n = n
        self.mu_squared = mu_squared
        self.nu = nu
        self.rank_lower = rank_lower
        self.rank_upper = rank_upper
        self.exact_rank = exact_rank

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


def bigraph_multiplicity(g: BipartiteGraph, mu2) -> int:
    """Multiplicity of +sqrt(mu2) in the adjacency spectrum of the bipartite graph.

    mu2 must be nonzero, as a good pair's mu^2 is.  Negative mu2 means the
    eigenvalue is imaginary and the multiplicity is 0; positive mu2 must be
    rational (ValueError otherwise) and the count is the nullity of
    (g.gram() - mu2 * I) on the smaller side.  The Gram matrix has nonnegative
    integer entries, so its characteristic polynomial is monic over Z and its
    eigenvalues are at most its largest row sum: a mu2 that is not an integer,
    or is above that row sum, gives 0 without an elimination.
    """
    if scalar_sign(mu2) < 0:
        return 0
    mu2 = as_fraction(mu2)
    p, q = mu2.numerator, mu2.denominator
    s = g.gram()
    # rational root theorem and the Perron-Frobenius row-sum bound
    if q != 1 or p > max(map(sum, s), default=0):
        return 0
    rows = []
    for i, gram_row in enumerate(s):
        row = list(gram_row)
        row[i] -= p
        rows.append(row)
    return len(s) - rank_rows(rows)


def _schur_rows(xy, c2, cd, d2, p: int, gram) -> list[list[int]]:
    """Rows of ensemble_rank's (p-1) x S, an integer combination of xy, c^2, cd and d^2.

    The coefficients depend on the graph alone, so over Z[sqrt r] the rows
    built from the constants' a-parts and b-parts are the parts of (p-1) x S.
    """
    q = p - 1
    qxy, qd2 = q * xy, q * d2
    off = qxy - p * c2
    g = [row[i] for i, row in enumerate(gram)]
    rows = []
    for i, gram_row in enumerate(gram):
        gi = g[i]
        # entry (i, j) = a - t g_j + (p-1) d^2 G_ij, off the diagonal
        a, t = off - cd * gi, cd + d2 * gi
        row = [a - t * gj + qd2 * g_ij for gj, g_ij in zip(g, gram_row)]
        row[i] -= qxy
        rows.append(row)
    return rows


def _qmul(x: tuple[int, int], y: tuple[int, int], r: int) -> tuple[int, int]:
    """Product of two Z[sqrt(r)] pairs (a, b) = a + b*sqrt(r)."""
    return (x[0] * y[0] + r * x[1] * y[1], x[0] * y[1] + x[1] * y[0])


def _schur_constants(pair: TwoValuePair) -> tuple[int | None, tuple]:
    """(r, parts): ensemble_rank's (xy, c^2, cd, d^2) once over Z (r None), or
    their a-parts and b-parts over Z[sqrt r]."""
    r, (vaa, vab, vba, vbb) = pair.integral_values
    if r is None:
        c, d = vba, vab - vba
        return r, ((vaa * vbb, c * c, c * d, d * d),)
    c, d = vba, (vab[0] - vba[0], vab[1] - vba[1])
    return r, tuple(zip(_qmul(vaa, vbb, r), _qmul(c, c, r), _qmul(c, d, r), _qmul(d, d, r)))


def ensemble_rank(pair: TwoValuePair, g: BipartiteGraph) -> int:
    """Exact rank of matrix_from_bigraph(pair, g), computed on the smaller side.

    Let the larger part have p >= 2 vertices and diagonal value x, the
    smaller part diagonal value y, and write c = f(b,a), d = f(a,b) - f(b,a).
    The cross block is C = cJ + dB, so with N_i the neighbourhood of
    small-side vertex i, g_i = deg_i = |N_i| and G_ij = |N_i & N_j| (the
    smaller-side Gram matrix), x(J - I) has the inverse (J/(p-1) - I)/x and
    its Schur complement S satisfies

        (p-1) x S = xy (p-1)(J - I) - c^2 p J - cd (g 1^T + 1 g^T) + d^2 ((p-1) G - g g^T),

    by C^T 1 = cp 1 + d g and C^T C = c^2 p J + cd (g 1^T + 1 g^T) + d^2 G.
    That is (p-1)(d^2 G - xy I) plus a matrix with columns in span{1, g},
    so rank(S) is within 2 of rank(G - mu^2 I).  The rank is p + rank(S).
    S is built from the pair's values scaled to integers or to Z[sqrt r] pairs
    (then the constants' a-parts and b-parts give two integer matrices, zipped
    into pairs) and ranked by linalg.rank_rows, over a ring as linalg._Integers
    describes.  m = n = 1 has rank 2, or 0 when its one cross value is 0.
    """
    pair.require_good()
    gram = g.gram()
    p = max(g.m, g.n)
    if p < 2:
        if not gram:
            return 0
        cross = pair.values[1 if gram[0][0] else 2]  # f(a,b) on the edge, f(b,a) without
        return 2 if cross != 0 else 0
    r, parts = _schur_constants(pair)
    if r is None:
        return p + rank_rows(_schur_rows(*parts[0], p, gram))
    a_rows, b_rows = (_schur_rows(*consts, p, gram) for consts in parts)
    return p + rank_rows([list(zip(ra, rb)) for ra, rb in zip(a_rows, b_rows)], r)


def _gram_algebra(gram: list[list[int]]) -> tuple[int, int, int] | None:
    """(a, b, v) when gram = aI + bB, B = I_c (x) J_v up to a relabelling; else None.

    Every entry is checked: the diagonal is one nonzero g0 = a + b, each row
    has v - 1 off-diagonal nonzero entries, all equal to b (b = 0 when v = 1),
    and the rows of the same nonzero pattern number v.  A row's pattern holds
    the row itself, so v rows sharing one pattern of v positions are exactly
    those positions: the patterns are the classes of an equivalence relation.
    At v = 1 each pattern is its own row, and at v = k every pattern is all
    of [k], so only 1 < v < k counts them.
    """
    k, first = len(gram), gram[0]
    g0, v = first[0], k - first.count(0)
    if not g0 or any(row[i] != g0 for i, row in enumerate(gram)):
        return None
    b = next((x for x in first[1:] if x), 0)
    classes = Counter()
    for row in gram:
        if row.count(0) != k - v or (b and row.count(b) != v - (b != g0)):
            return None
        if 1 < v < k:
            classes[bytes(map(bool, row))] += 1
    return (g0 - b, b, v) if set(classes.values()) <= {v} else None


def _closed_form(pair: TwoValuePair, gram, mu2, p: int) -> tuple[int, int] | None:
    """(nu, exact rank) read off a Gram matrix aI + bB, or None for any other Gram.

    With w = k/v classes, G has the eigenvalues a (multiplicity w(v-1)) and
    a + vb (multiplicity w).  With g0 = a + b, the (p-1) x S of _schur_rows is
    alpha I + beta B + gamma J, where

        alpha = (p-1)(d^2 a - xy),  beta = (p-1) d^2 b,
        gamma = (p-1) xy - c^2 p - 2 cd g0 - d^2 g0^2,

    whose eigenvalues are alpha (multiplicity w(v-1)), alpha + v beta (w - 1)
    and alpha + v beta + k gamma (once).  Over Z[sqrt r] each is an (a-part,
    b-part) pair, nonzero when either part is.  A positive irrational mu^2
    raises ValueError, as bigraph_multiplicity does on the general route.
    """
    algebra = _gram_algebra(gram)
    if algebra is None:
        return None
    if scalar_sign(mu2) > 0:
        as_fraction(mu2)
    a, b, v = algebra
    k = len(gram)
    w, g0, q = k // v, a + b, p - 1
    nu = w * (v - 1) * (a == mu2) + w * (a + v * b == mu2)
    eigenvalues = []
    for xy, c2, cd, d2 in _schur_constants(pair)[1]:
        alpha, beta = q * (d2 * a - xy), q * d2 * b
        gamma = q * xy - c2 * p - 2 * cd * g0 - d2 * g0 * g0
        eigenvalues.append((alpha, alpha + v * beta, alpha + v * beta + k * gamma))
    e0, e1, e2 = (any(parts) for parts in zip(*eigenvalues))
    return nu, p + w * (v - 1) * e0 + (w - 1) * e1 + e2


def rank_sandwich(pair: TwoValuePair, g: BipartiteGraph) -> SpectralReport:
    """Exact rank of the ensemble matrix of g, verified against its nu bounds.

    Requires f(a,a), f(b,b) and f(a,b) - f(b,a) all nonzero (GoodPairError
    and DegenerateEnsembleError from the pair's own checks), and rejects a
    positive irrational mu^2 (ValueError) on either route below.  When
    the smaller side has k > linalg.SMALL_RANK vertices and its Gram matrix
    passes _gram_algebra's check, nu and the rank come from _closed_form;
    otherwise from bigraph_multiplicity and ensemble_rank.  Raises
    VerificationError if the computed rank ever escapes the sandwich, which
    would indicate a genuine bug.
    """
    pair.require_good()
    mu2 = mu_squared(pair)
    m, n = g.m, g.n
    if min(m, n) > SMALL_RANK and (found := _closed_form(pair, g.gram(), mu2, max(m, n))):
        nu, exact = found
    else:
        nu, exact = bigraph_multiplicity(g, mu2), ensemble_rank(pair, g)
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


def low_rank_matching_instance(theta, n: int, sign: str = "+") -> tuple[object, SpectralReport]:
    """A rank <= n+3 member of the ensemble over (1^(n), beta^(n)).

    beta is the chosen root of x^2 - (2 + (1/theta - 1)^2) x + 1 = 0, which
    makes mu^2 == 1.  The Gram matrix of K_{n,n} minus a perfect matching is
    (J - I)^2 = I + (n - 2)J, with the eigenvalue 1 of multiplicity n - 1 and
    (n - 1)^2 once, so nu = n - 1, except nu = 2 at n = 2, where both are 1.
    Returns (beta, report).
    """
    f = LinearTheta(theta)  # checks theta before 1 / theta
    coeff = 2 + (1 / f.theta - 1) ** 2
    plus, minus = solve_monic_quadratic(-coeff, 1)
    beta = plus if sign == "+" else minus
    pair = TwoValuePair(f, Fraction(1), beta)
    return beta, rank_sandwich(pair, complete_minus_matching(n))
