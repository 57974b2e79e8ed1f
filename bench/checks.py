"""Checks of symrank reports that follow from the mathematics alone.

Nothing here imports symrank.  Every expected value is derived from a
command's arguments with plain integers and fractions: design spectra give
multiplicities, the rank sandwich brackets ranks, ranks of generated matrices
are fixed by their construction, and random-tournament ranks are compared
with an independent rank modulo a large prime.  No value is a captured
golden output, so a correct change to the program cannot fail a check.
"""

from __future__ import annotations

import random
import re
from fractions import Fraction
from functools import lru_cache
from itertools import combinations

#: Mersenne prime used for modular ranks; rank mod P never exceeds the rank over Q.
P = (1 << 61) - 1


class CheckFailed(Exception):
    """A report contradicts what the mathematics fixes for its command."""


def require(condition, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


# -- exact scalars ------------------------------------------------------------


class Quad:
    """a + b*sqrt(d) with rational a, b; only what the checks need."""

    __slots__ = ("a", "b", "d")

    def __init__(self, a, b, d: int):
        self.a, self.b, self.d = Fraction(a), Fraction(b), d

    def _lift(self, other) -> "Quad":
        return other if isinstance(other, Quad) else Quad(other, 0, self.d)

    def __add__(self, other):
        o = self._lift(other)
        return Quad(self.a + o.a, self.b + o.b, self.d)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._lift(other)
        return Quad(self.a - o.a, self.b - o.b, self.d)

    def __rsub__(self, other):
        return self._lift(other) - self

    def __mul__(self, other):
        o = self._lift(other)
        return Quad(self.a * o.a + self.d * self.b * o.b, self.a * o.b + self.b * o.a, self.d)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._lift(other)
        norm = o.a * o.a - o.d * o.b * o.b
        return self * Quad(o.a / norm, -o.b / norm, o.d)

    def __rtruediv__(self, other):
        return self._lift(other) / self

    def __eq__(self, other):
        if isinstance(other, Quad):
            if self.b == 0 and other.b == 0:
                return self.a == other.a
            return (self.a, self.b, self.d) == (other.a, other.b, other.d)
        return self.b == 0 and self.a == other


def as_number(x):
    """Demote a rational Quad to a Fraction."""
    return x.a if isinstance(x, Quad) and x.b == 0 else x


_RATIONAL = r"[+-]?\d+(?:/\d+)?"
_QUAD_RE = re.compile(rf"^({_RATIONAL})([+-]\d+(?:/\d+)?)\*sqrt\((\d+)\)$")
_PURE_QUAD_RE = re.compile(rf"^({_RATIONAL})\*sqrt\((\d+)\)$")


def parse(text: str):
    """The scalar text form `p/q` or `a+b*sqrt(d)` as a Fraction or Quad."""
    m = _QUAD_RE.match(text)
    if m:
        return as_number(Quad(Fraction(m.group(1)), Fraction(m.group(2)), int(m.group(3))))
    m = _PURE_QUAD_RE.match(text)
    if m:
        return as_number(Quad(0, Fraction(m.group(1)), int(m.group(2))))
    return Fraction(text)


def fmt(x) -> str:
    """The scalar text form, as the symrank file formats define it."""
    x = as_number(x)
    if isinstance(x, Quad):
        b = f"{x.b.numerator}" if x.b.denominator == 1 else f"{x.b}"
        a = f"{x.a.numerator}" if x.a.denominator == 1 else f"{x.a}"
        return f"{a}{'' if b.startswith('-') else '+'}{b}*sqrt({x.d})"
    x = Fraction(x)
    return str(x.numerator) if x.denominator == 1 else str(x)


# -- pairs and multiplicities ---------------------------------------------------


def linear_values(theta: Fraction, alpha, beta) -> tuple:
    """(f(a,a), f(a,b), f(b,a), f(b,b)) for f(x, y) = x + (1 - 2*theta)*y."""
    c = 1 - 2 * theta
    return alpha + c * alpha, alpha + c * beta, beta + c * alpha, beta + c * beta


def mu_squared(values: tuple):
    f_aa, f_ab, f_ba, f_bb = values
    diff = f_ab - f_ba
    return as_number(f_aa * f_bb / (diff * diff))


def design_multiplicity(v: int, k: int, lam: int, mu2) -> int:
    """Multiplicity of mu2 as an eigenvalue of B B^T = (k - lambda) I + lambda J."""
    mu2 = as_number(mu2)
    return (v - 1) * (mu2 == k - lam) + (mu2 == k * k)


def check_sandwich(report: dict, nu: int) -> None:
    """The paper's bracket m+n-2-nu <= rank <= m+n+2-nu, and the report's own."""
    m, n, rank = report["m"], report["n"], report["exact_rank"]
    require(report["nu"] == nu, f"nu = {report['nu']}, the spectrum fixes {nu}")
    require(
        report["rank_lower"] <= rank <= report["rank_upper"],
        f"rank {rank} outside the reported [{report['rank_lower']}, {report['rank_upper']}]",
    )
    require(
        max(0, m + n - 2 - nu) <= rank <= min(m + n, m + n + 2 - nu),
        f"rank {rank} outside [m+n-2-nu, m+n+2-nu] for m={m}, n={n}, nu={nu}",
    )


def exhaustive_instances(max_m: int, max_n: int) -> int:
    """Bipartite graphs on m x n parts, summed over 1 <= m <= max_m, 1 <= n <= max_n."""
    return sum(1 << (m * n) for m in range(1, max_m + 1) for n in range(1, max_n + 1))


def matched_root(theta: Fraction, sign_: str):
    """The root of x^2 - (2 + (1/theta - 1)^2) x + 1 chosen by sign (+ is the larger).

    sqrt(disc) = s*sqrt(d)/den with d square-free, found by trial division.
    """
    c = 2 + (1 / theta - 1) ** 2
    disc = c * c - 4
    d, s = disc.numerator * disc.denominator, 1
    f = 2
    while f * f <= d:
        while d % (f * f) == 0:
            d //= f * f
            s *= f
        f += 1
    root = Fraction(s, disc.denominator)
    if d == 1:
        return (c + root) / 2 if sign_ == "+" else (c - root) / 2
    half = root / 2
    return Quad(c / 2, half if sign_ == "+" else -half, d)


# -- ranks ------------------------------------------------------------------------


def rank_mod_p(rows: list[list[int]], p: int = P) -> int:
    """Rank over GF(p) by Gaussian elimination; a lower bound on the rank over Q."""
    pending = [[x % p for x in row] for row in rows]
    rank = 0
    width = len(pending[0]) if pending else 0
    for col in range(width):
        piv = next((r for r in pending if r[col]), None)
        if piv is None:
            continue
        pending.remove(piv)
        inv = pow(piv[col], -1, p)
        piv = [x * inv % p for x in piv]
        rank += 1
        nxt = []
        for r in pending:
            h = r[col]
            if h:
                r = [(x - h * y) % p for x, y in zip(r, piv)]
            if any(r):
                nxt.append(r)
        pending = nxt
        if not pending:
            break
    return rank


def tournament_beats(n: int, seed: int) -> set:
    """Pairs (i, j) with i beating j: one fair coin per pair i < j, in row order."""
    rng = random.Random(seed)
    wins = set()
    for i in range(n):
        for j in range(i + 1, n):
            wins.add((i, j) if rng.getrandbits(1) else (j, i))
    return wins


@lru_cache(maxsize=None)
def tournament_rank_floor(n: int, seed: int, theta: Fraction) -> int:
    """Rank mod P of the tournament matrix with values 1..n, a floor for its rank."""
    wins = tournament_beats(n, seed)
    c = 1 - 2 * theta
    # entries x + c*y, scaled by c's denominator so that they are integers
    num, den = c.numerator, c.denominator
    rows = []
    for i in range(n):
        row = []
        for j in range(n):
            if i == j:
                row.append(0)
            else:
                x, y = (i + 1, j + 1) if (i, j) in wins else (j + 1, i + 1)
                row.append(x * den + num * y)
        rows.append(row)
    return rank_mod_p(rows)


# -- Hadamard matrices, designs and families -------------------------------------------


def check_hadamard(rows: list[list[int]], order: int) -> None:
    """Square +1/-1 matrix with pairwise orthogonal rows: n - 2*popcount(r_i ^ r_j) = 0."""
    require(len(rows) == order, f"{len(rows)} rows, expected {order}")
    masks = []
    for row in rows:
        require(len(row) == order, "matrix is not square")
        require(all(v in (1, -1) for v in row), "entry outside {+1, -1}")
        masks.append(sum(1 << j for j, v in enumerate(row) if v == -1))
    for i in range(order):
        mi = masks[i]
        for j in range(i + 1, order):
            require(
                order == 2 * (mi ^ masks[j]).bit_count(), f"rows {i} and {j} are not orthogonal"
            )


def check_design(design: dict, v: int, k: int, lam: int) -> None:
    """Blocks form a symmetric 2-(v, k, lambda) design."""
    require(
        (design["v"], design["k"], design["lambda"]) == (v, k, lam),
        f"parameters ({design['v']}, {design['k']}, {design['lambda']}), expected ({v}, {k}, {lam})",
    )
    blocks = design["blocks"]
    require(len(blocks) == v, f"{len(blocks)} blocks, expected {v}")
    masks = []
    for block in blocks:
        require(all(1 <= x <= v for x in block), "block point outside [1..v]")
        mask = sum(1 << (x - 1) for x in block)
        require(mask.bit_count() == k == len(block), "block size is not k")
        masks.append(mask)
    for i in range(v):
        for j in range(i + 1, v):
            require((masks[i] & masks[j]).bit_count() == lam, f"blocks {i}, {j} meet in != lambda")


def _compatible(a: int, b: int) -> bool:
    c = (a & b).bit_count()
    return 2 * c == a.bit_count() or 2 * c == b.bit_count()


def family_masks(family: dict) -> list[int]:
    n = family["n"]
    masks = []
    for s in family["sets"]:
        require(s and all(1 <= x <= n for x in s), f"set {s} is empty or leaves [1..{n}]")
        masks.append(sum(1 << (x - 1) for x in s))
    require(len(set(masks)) == len(masks), "family repeats a set")
    return masks


def check_bisection_closed(family: dict) -> list[int]:
    """Every two members A, B meet in |A|/2 or |B|/2 points; returns the masks."""
    masks = family_masks(family)
    for i, j in combinations(range(len(masks)), 2):
        require(_compatible(masks[i], masks[j]), f"sets {i} and {j} violate bisection closure")
    return masks


@lru_cache(maxsize=None)
def addable_even_set(n: int, masks: frozenset) -> int | None:
    """An even-sized subset of [n] outside the family compatible with all of it, if any.

    A search that ran to completion returns a maximum, hence maximal,
    extension among even-sized sets, so it must leave none.
    """
    members = list(masks)
    for size in range(2, n + 1, 2):
        for combo in combinations(range(n), size):
            cand = sum(1 << x for x in combo)
            if cand not in masks and all(_compatible(cand, m) for m in members):
                return cand
    return None
