"""Exact scalars: arbitrary-precision rationals and quadratic extensions Q(sqrt(d)).

Every exact number has one representation.  Rationals are ints or plain
``fractions.Fraction`` values, which are always stored reduced with a
positive denominator, so everything in this package interoperates with the
standard library.  :class:`QuadExt` holds the irrational numbers
``a + b*sqrt(d)``, with rational ``a``, nonzero rational ``b`` and a fixed
square-free ``d >= 2``; an operation whose result is rational returns a
Fraction.  A single computation never mixes two different discriminants; a
rational operand combines with any of them.

Text forms: ``"p/q"`` (or ``"p"``) for rationals, ``"a+b*sqrt(d)"`` for
quadratic elements, with the same rational syntax for ``a`` and ``b``.
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import lru_cache
from math import isqrt

from .errors import FieldMismatchError, NoRealRootError

#: Largest trial divisor used when computing square-free decompositions.
SQUARE_FREE_TRIAL_BOUND = 10**6


@lru_cache(maxsize=1024)
def square_free_part(n: int, bound: int = SQUARE_FREE_TRIAL_BOUND) -> tuple[int, int]:
    """Decompose ``n = s**2 * d`` with ``d`` square-free; returns ``(d, s)``.

    Factoring is by trial division up to ``bound``, once per argument: the
    result is cached, since every element of Q(sqrt(d)) checks its d.  A
    leftover cofactor is accepted when it is certifiably prime (no divisor
    below its square root was missed) or a perfect square; otherwise the
    input is rejected since square-freeness of the cofactor cannot be
    certified at desk scale.
    """
    if n <= 0:
        raise ValueError(f"square_free_part requires a positive integer, got {n}")
    d = 1
    s = 1
    r = n
    p = 2
    while p <= bound and p * p <= r:
        if r % p == 0:
            e = 0
            while r % p == 0:
                r //= p
                e += 1
            if e & 1:
                d *= p
            s *= p ** (e >> 1)
        p = 3 if p == 2 else p + 2
    if r > 1:
        if p * p > r:
            # cofactor is prime
            d *= r
        else:
            t = isqrt(r)
            if t * t == r:
                s *= t
            else:
                raise ValueError(
                    f"cannot certify square-free part of {n}: cofactor {r} "
                    f"exceeds the trial-division bound {bound}"
                )
    return d, s


class QuadExt:
    """An irrational element ``a + b*sqrt(d)`` of the real quadratic field Q(sqrt(d)).

    ``d`` must be a square-free integer >= 2 (perfect squares are rejected;
    such values are plain rationals).  ``b`` is never 0: ``QuadExt(a, 0, d)``
    returns ``Fraction(a)``, and so does every operation whose result is
    rational, so a rational has one representation.  Instances are
    immutable.  Arithmetic accepts ``int`` and ``Fraction`` operands;
    combining elements with different ``d`` raises
    :class:`FieldMismatchError`.  A ``QuadExt`` never equals a rational.
    """

    __slots__ = ("a", "b", "d")

    def __new__(cls, a, b, d: int):
        # d is checked first, so a zero b still names a bad d; __init__ then
        # fills in an irrational element (bench/tracing.py counts those calls)
        if d < 2:
            raise ValueError(f"discriminant must be >= 2, got {d}")
        sf, sq = square_free_part(d)
        if sq != 1:
            raise ValueError(f"discriminant must be square-free, got {d} = {sq}**2 * {sf}")
        if not b:
            return Fraction(a)
        return object.__new__(cls)

    def __init__(self, a, b, d: int):
        object.__setattr__(self, "a", Fraction(a))
        object.__setattr__(self, "b", Fraction(b))
        object.__setattr__(self, "d", d)

    def __setattr__(self, name, value):
        raise AttributeError("QuadExt is immutable")

    def _parts(self, other) -> "tuple[Fraction | int, Fraction | int] | None":
        """other's (a, b) over this discriminant; None when other is no exact scalar."""
        if isinstance(other, QuadExt):
            if other.d != self.d:
                raise FieldMismatchError(
                    f"cannot mix sqrt({self.d}) and sqrt({other.d}) elements"
                )
            return other.a, other.b
        if isinstance(other, (int, Fraction)):
            return other, 0
        return None

    # -- arithmetic -------------------------------------------------------

    def __add__(self, other):
        parts = self._parts(other)
        if parts is None:
            return NotImplemented
        return QuadExt(self.a + parts[0], self.b + parts[1], self.d)

    __radd__ = __add__

    def __sub__(self, other):
        parts = self._parts(other)
        if parts is None:
            return NotImplemented
        return QuadExt(self.a - parts[0], self.b - parts[1], self.d)

    def __rsub__(self, other):
        parts = self._parts(other)
        if parts is None:
            return NotImplemented
        return QuadExt(parts[0] - self.a, parts[1] - self.b, self.d)

    def __neg__(self):
        return QuadExt(-self.a, -self.b, self.d)

    def __mul__(self, other):
        parts = self._parts(other)
        if parts is None:
            return NotImplemented
        a, b = parts
        return QuadExt(self.a * a + self.d * self.b * b, self.a * b + self.b * a, self.d)

    __rmul__ = __mul__

    def _quotient(self, num, den) -> "QuadExt | Fraction":
        """num / den for (a, b) parts, one of them this element's: num * conj(den) / norm(den)."""
        (xa, xb), (ya, yb) = num, den
        d = self.d
        # this element's parts are Fractions, so neither quotient is a float
        n = ya * ya - d * yb * yb
        if n == 0:
            raise ZeroDivisionError("division by zero in Q(sqrt(d))")
        return QuadExt((xa * ya - d * xb * yb) / n, (xb * ya - xa * yb) / n, d)

    def __truediv__(self, other):
        parts = self._parts(other)
        if parts is None:
            return NotImplemented
        return self._quotient((self.a, self.b), parts)

    def __rtruediv__(self, other):
        parts = self._parts(other)
        if parts is None:
            return NotImplemented
        return self._quotient(parts, (self.a, self.b))

    # -- comparisons ------------------------------------------------------

    def _sign(self) -> int:
        """Exact sign of a + b*sqrt(d)."""
        a, b = self.a, self.b
        if a == 0:
            return -1 if b < 0 else 1
        if a > 0 and b > 0:
            return 1
        if a < 0 and b < 0:
            return -1
        # opposite signs: |a| vs |b|*sqrt(d), i.e. a**2 vs d*b**2 (never equal
        # since d is not a square)
        bigger_rational = a * a > self.d * b * b
        if a > 0:
            return 1 if bigger_rational else -1
        return -1 if bigger_rational else 1

    def __eq__(self, other):
        if isinstance(other, QuadExt):
            return self.a == other.a and self.b == other.b and self.d == other.d
        if isinstance(other, (int, Fraction)):
            return False
        return NotImplemented

    def _diff_sign(self, other) -> int:
        diff = self.__sub__(other)
        if diff is NotImplemented:
            raise TypeError(f"cannot compare QuadExt with {type(other).__name__}")
        return scalar_sign(diff)

    def __lt__(self, other):
        return self._diff_sign(other) < 0

    def __le__(self, other):
        return self._diff_sign(other) <= 0

    def __gt__(self, other):
        return self._diff_sign(other) > 0

    def __ge__(self, other):
        return self._diff_sign(other) >= 0

    def __hash__(self):
        return hash((self.a, self.b, self.d))

    def __repr__(self):
        return f"QuadExt({self.a!r}, {self.b!r}, {self.d})"

    def __str__(self):
        return format_scalar(self)


def as_fraction(x) -> Fraction:
    """Convert a rational scalar to a Fraction; ValueError for a QuadExt, which is irrational."""
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, Fraction):
        return x
    if isinstance(x, QuadExt):
        raise ValueError(f"{x} is irrational")
    raise TypeError(f"not an exact scalar: {type(x).__name__}")


def scalar_sign(x) -> int:
    """Exact sign (-1, 0, 1) of an exact scalar."""
    if isinstance(x, QuadExt):
        return x._sign()
    return -1 if x < 0 else (1 if x > 0 else 0)


def solve_monic_quadratic(p, q):
    """Exact real roots of x**2 + p*x + q, returned as (larger, smaller).

    Roots are Fractions when the discriminant is a perfect square and
    QuadExt elements (over the square-free part of the discriminant)
    otherwise.  Raises NoRealRootError when the discriminant is negative.
    """
    p = Fraction(p)
    q = Fraction(q)
    disc = p * p - 4 * q
    if disc < 0:
        raise NoRealRootError(f"discriminant {disc} is negative")
    half = Fraction(1, 2)
    if disc == 0:
        r = -p * half
        return r, r
    # sqrt(num/den) = sqrt(num*den)/den
    d, s = square_free_part(disc.numerator * disc.denominator)
    if d == 1:
        root = Fraction(s, disc.denominator)
        return (-p + root) * half, (-p - root) * half
    coef = Fraction(s, disc.denominator) * half
    centre = -p * half
    return QuadExt(centre, coef, d), QuadExt(centre, -coef, d)


# -- text form ------------------------------------------------------------

_INT_RE = re.compile(r"[+-]?\d+")
_RATIONAL_RE = re.compile(r"^([+-]?\d+)(?:/(\d+))?$")
_QUAD_RE = re.compile(
    r"^([+-]?\d+(?:/\d+)?)"  # a
    r"([+-]\d+(?:/\d+)?)"  # signed b
    r"\*sqrt\((\d+)\)$"
)
_PURE_QUAD_RE = re.compile(r"^([+-]?\d+(?:/\d+)?)\*sqrt\((\d+)\)$")


def format_rational(x) -> str:
    x = Fraction(x)
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"


def format_scalar(x) -> str:
    """Canonical text form of an exact scalar."""
    if isinstance(x, (int, Fraction)):
        return format_rational(x)
    if isinstance(x, QuadExt):
        b = format_rational(x.b)
        if not b.startswith("-"):
            b = "+" + b
        return f"{format_rational(x.a)}{b}*sqrt({x.d})"
    raise TypeError(f"not an exact scalar: {type(x).__name__}")


def parse_rational(text: str) -> Fraction:
    m = _RATIONAL_RE.match(text.strip())
    if not m:
        raise ValueError(f"invalid rational literal: {text!r}")
    num = int(m.group(1))
    den = int(m.group(2)) if m.group(2) else 1
    if den == 0:
        raise ValueError(f"zero denominator in rational literal: {text!r}")
    return Fraction(num, den)


def parse_scalar(text: str):
    """Parse the text form back into an int, a Fraction or a QuadExt.

    Stripped text that is a signed run of digits is an int; inner spaces are
    dropped only after that test, so "3 4" is Fraction(34).
    """
    s = text.strip()
    if _INT_RE.fullmatch(s):
        return int(s)
    s = s.replace(" ", "")
    m = _QUAD_RE.match(s)
    if m:
        return QuadExt(parse_rational(m.group(1)), parse_rational(m.group(2)), int(m.group(3)))
    m = _PURE_QUAD_RE.match(s)
    if m:
        return QuadExt(0, parse_rational(m.group(1)), int(m.group(2)))
    return parse_rational(s)
