"""Q(sqrt d) arithmetic, rank and quadratic roots against sympy's algebraic fields.

sympy's QQ.algebraic_field(sqrt(d)) is an independent implementation of the
same fields, so these properties check QuadExt arithmetic itself, which the
elimination in oracle.rank_naive relies on.
"""

import operator
from fractions import Fraction
from functools import cache

import pytest
import sympy
from hypothesis import given
from hypothesis import strategies as st
from sympy import QQ
from sympy.polys.matrices import DomainMatrix

from symrank.errors import NoRealRootError
from symrank.exactfield import QuadExt, scalar_sign, solve_monic_quadratic
from symrank.linalg import rank_rows, ring_rows

from oracle import from_rows

DISCRIMINANTS = (2, 3, 5, 6, 7, 10, 13)

small_fractions = st.fractions(min_value=-20, max_value=20, max_denominator=12)


@cache
def _field(d):
    """sympy's Q(sqrt d) and its element sqrt(d)."""
    field = QQ.algebraic_field(sympy.sqrt(d))
    return field, field.from_sympy(sympy.sqrt(d))


def _rational(field, x):
    x = Fraction(x)
    return field.convert(QQ(x.numerator, x.denominator))


def to_sympy(x, d):
    """An exact scalar as an element of sympy's Q(sqrt d)."""
    field, root = _field(d)
    if isinstance(x, QuadExt):
        assert x.d == d
        return _rational(field, x.a) + _rational(field, x.b) * root
    return _rational(field, x)


def is_rational(element, d):
    return _field(d)[0].to_sympy(element).is_Rational


def assert_same(got, want, d):
    """got is want, rational exactly when want is, and a QuadExt only with b nonzero."""
    assert to_sympy(got, d) == want
    assert isinstance(got, QuadExt) != is_rational(want, d)
    if isinstance(got, QuadExt):
        assert got.b != 0
    else:
        assert type(got) in (int, Fraction)


def quads(d):
    """QuadExt(a, b, d) with b sometimes 0, which makes it a Fraction."""
    return st.builds(QuadExt, small_fractions, st.one_of(st.just(0), small_fractions), st.just(d))


@st.composite
def operand_pairs(draw):
    """(d, x, y): y an int, an independent element, or one sharing x's sqrt(d) part."""
    d = draw(st.sampled_from(DISCRIMINANTS))
    x = draw(quads(d))
    x_b = x.b if isinstance(x, QuadExt) else 0
    partner = st.builds(lambda a, k: QuadExt(a, k * x_b, d), small_fractions, small_fractions)
    y = draw(st.one_of(st.integers(-9, 9), quads(d), partner))
    return d, x, y


@given(operand_pairs())
def test_arithmetic_matches_sympy(case):
    d, x, y = case
    sx, sy = to_sympy(x, d), to_sympy(y, d)
    for op in (operator.add, operator.sub, operator.mul):
        assert_same(op(x, y), op(sx, sy), d)
        assert_same(op(y, x), op(sy, sx), d)
    if y == 0:
        with pytest.raises(ZeroDivisionError):
            x / y
    else:
        assert_same(x / y, sx / sy, d)
    if x != 0:
        assert_same(y / x, sy / sx, d)
    assert_same(0 - x, -sx, d)
    assert (x == y) == (sx == sy)
    for value, element in ((x, sx), (y, sy), (x - y, sx - sy)):
        assert scalar_sign(value) == sympy.sign(_field(d)[0].to_sympy(element))


@st.composite
def quad_matrices(draw):
    """(d, rows): some rows are Q(sqrt d)-combinations of others, so ranks drop."""
    d = draw(st.sampled_from(DISCRIMINANTS))
    r, c = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    entries = st.one_of(st.integers(-5, 5), quads(d))
    coefficients = st.one_of(st.just(0), quads(d))
    base = draw(st.lists(st.lists(entries, min_size=c, max_size=c), min_size=1, max_size=r))
    rows = []
    for _ in range(r):
        if draw(st.booleans()):
            rows.append(draw(st.sampled_from(base)))
        else:
            coefs = draw(st.lists(coefficients, min_size=len(base), max_size=len(base)))
            rows.append([sum((k * row[j] for k, row in zip(coefs, base)), 0) for j in range(c)])
    return d, rows


@given(quad_matrices())
def test_rank_matches_sympy(case):
    d, rows = case
    shape = (len(rows), len(rows[0]))
    want = DomainMatrix([[to_sympy(x, d) for x in row] for row in rows], shape, _field(d)[0]).rank()
    assert from_rows(rows).rank() == want
    assert rank_rows(*ring_rows(rows)) == want


def _sympy_rational(x):
    return sympy.Rational(x.numerator, x.denominator)


@given(small_fractions, small_fractions)
def test_quadratic_roots_match_sympy(p, q):
    x = sympy.Symbol("x")
    exact = sympy.roots(x**2 + _sympy_rational(p) * x + _sympy_rational(q), x)
    if any(not root.is_real for root in exact):
        with pytest.raises(NoRealRootError):
            solve_monic_quadratic(p, q)
        return
    larger, smaller = solve_monic_quadratic(p, q)
    want = sorted((root for root, mult in exact.items() for _ in range(mult)), reverse=True)
    for got, root in zip((larger, smaller), want):
        if root.is_Rational:
            assert type(got) is Fraction and got == Fraction(int(root.p), int(root.q))
        else:
            assert isinstance(got, QuadExt) and got.b != 0
            expr = _sympy_rational(got.a) + _sympy_rational(got.b) * sympy.sqrt(got.d)
            assert sympy.expand(expr - root) == 0
