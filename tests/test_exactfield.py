import random
from fractions import Fraction

import pytest
import sympy

from symrank.errors import FieldMismatchError, NoRealRootError
from symrank.exactfield import (
    QuadExt,
    as_fraction,
    format_scalar,
    is_prime,
    parse_rational,
    parse_scalar,
    scalar_sign,
    solve_monic_quadratic,
    square_free_part,
)


def test_rational_reduction():
    assert parse_rational("2/4") == Fraction(1, 2)
    assert parse_rational("0/7").denominator == 1
    assert parse_rational("-3/6") == Fraction(-1, 2)
    assert parse_rational("-3/6").denominator == 2


def test_rational_zero_denominator():
    with pytest.raises(ValueError, match="1/0"):
        parse_rational("1/0")
    with pytest.raises(ValueError, match="1/0"):
        parse_scalar("1+1/0*sqrt(2)")


def test_square_free_part():
    assert square_free_part(720) == (5, 12)
    assert square_free_part(1) == (1, 1)
    assert square_free_part(5) == (5, 1)
    assert square_free_part(49) == (1, 7)


def test_is_prime_agrees_with_sympy():
    assert [n for n in range(-3, 2000) if is_prime(n)] == list(sympy.primerange(2000))
    for n in (2**26 - 5, 2**26 - 9, 1000003 * 1000033, 1000003**2, 2**31 - 1):
        assert is_prime(n) == sympy.isprime(n)


def test_square_free_part_bound_rejects_uncertifiable():
    # two primes beyond the trial bound 10^6: cannot certify, must reject
    with pytest.raises(ValueError, match="cofactor 1000036000099 exceeds the trial-division"):
        square_free_part(1000003 * 1000033)
    # a perfect square of a prime beyond the bound is still fine
    assert square_free_part(1000003**2) == (1, 1000003)


def test_quadext_norm_identity():
    assert QuadExt(1, 1, 5) * QuadExt(1, -1, 5) == -4


def test_quadext_conjugate_sum():
    plus = QuadExt(Fraction(3, 2), Fraction(1, 2), 5)
    minus = QuadExt(Fraction(3, 2), Fraction(-1, 2), 5)
    assert plus + minus == 3


def test_quadext_inverse_of_sqrt():
    inv = 1 / QuadExt(0, 1, 5)
    assert inv == QuadExt(0, Fraction(1, 5), 5)


def test_quadext_rejects_square_discriminant():
    with pytest.raises(ValueError):
        QuadExt(1, 1, 9)
    with pytest.raises(ValueError):
        QuadExt(1, 1, 12)  # not square-free
    with pytest.raises(ValueError):
        QuadExt(1, 1, 1)


def test_quadext_mixed_discriminants_error():
    with pytest.raises(FieldMismatchError):
        QuadExt(1, 1, 5) + QuadExt(1, 1, 2)
    # a b = 0 value is a Fraction, so it crosses discriminants freely
    assert QuadExt(3, 0, 5) + QuadExt(1, 1, 2) == QuadExt(4, 1, 2)
    # irrational elements of different fields are never equal
    assert QuadExt(1, 1, 5) != QuadExt(1, 1, 2)


def test_a_rational_is_never_a_quadext():
    assert type(QuadExt(Fraction(7, 3), 0, 5)) is Fraction
    assert type(QuadExt(2, 0, 5)) is Fraction and QuadExt(2, 0, 5) == 2
    root5 = QuadExt(0, 1, 5)
    for value in (root5 * root5, root5 - root5, root5 / root5, (1 + root5) * (1 - root5)):
        assert type(value) is Fraction
    assert QuadExt(2, 1, 5) != 2 and QuadExt(2, 1, 5) != Fraction(2)
    # the discriminant is checked before b, so a b = 0 value still names a square d
    with pytest.raises(ValueError, match="got 4"):
        QuadExt(1, 0, 4)
    with pytest.raises(ValueError, match="got 4"):
        parse_scalar("1+0*sqrt(4)")
    assert type(parse_scalar("1+0*sqrt(3)")) is Fraction


def test_each_discriminant_is_factored_once():
    d = 999_999_999_989  # a prime: trial division runs to the bound of 10**6
    misses = square_free_part.cache_info().misses
    cells = [f"{i}+{j}*sqrt({d})" for i in range(1, 9) for j in range(1, 9)]
    parsed = [parse_scalar(cell) for cell in cells]
    assert all(x.d == d for x in parsed)
    assert square_free_part.cache_info().misses == misses + 1


def test_quadext_division_by_zero():
    with pytest.raises(ZeroDivisionError):
        QuadExt(1, 1, 5) / QuadExt(0, 0, 5)


def test_quadext_comparisons_exact():
    # x < y exactly when scalar_sign(x - y) < 0, the one order test the package uses
    sqrt2 = QuadExt(0, 1, 2)
    assert scalar_sign(sqrt2 - Fraction(3, 2)) < 0
    assert scalar_sign(sqrt2 - Fraction(7, 5)) > 0
    assert scalar_sign(Fraction(7, 5) - sqrt2) < 0
    assert scalar_sign(QuadExt(3, -1, 5)) > 0
    assert scalar_sign(QuadExt(2, -1, 5)) < 0
    assert scalar_sign(QuadExt(-3, 1, 5)) < 0
    assert scalar_sign(QuadExt(-2, 1, 5)) > 0
    assert scalar_sign(QuadExt(1, 1, 5) - QuadExt(1, -1, 5)) > 0
    assert scalar_sign(QuadExt(1, 1, 5) - QuadExt(1, 1, 5)) == 0
    with pytest.raises(TypeError):
        sqrt2 < 2  # noqa: B015  no order operators: an accidental comparison fails loudly


def test_field_axioms_random():
    rng = random.Random(13)

    def rand_elt():
        return QuadExt(
            Fraction(rng.randint(-9, 9), rng.randint(1, 5)),
            Fraction(rng.randint(-9, 9), rng.randint(1, 5)),
            5,
        )

    for _ in range(1000):
        a, b, c = rand_elt(), rand_elt(), rand_elt()
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        if a != 0:
            assert a * (1 / a) == 1
        assert a + (0 - a) == 0


def test_vieta_random():
    rng = random.Random(29)
    checked = 0
    while checked < 1000:
        p = Fraction(rng.randint(-20, 20), rng.randint(1, 6))
        q = Fraction(rng.randint(-20, 20), rng.randint(1, 6))
        if p * p - 4 * q < 0:
            continue
        r1, r2 = solve_monic_quadratic(p, q)
        assert r1 * r1 + p * r1 + q == 0
        assert r2 * r2 + p * r2 + q == 0
        assert r1 * r2 == q
        assert r1 + r2 == -p
        assert scalar_sign(r1 - r2) >= 0
        checked += 1


def test_solve_quadratic_reported_roots():
    # x^2 - (2 + (1/theta - 1)^2) x + 1 for the four reference thetas
    def coeff(theta):
        return 2 + (1 / Fraction(theta)) ** 0 * (1 / Fraction(theta) - 1) ** 2

    plus, minus = solve_monic_quadratic(-coeff(Fraction(2, 5)), 1)
    assert (plus, minus) == (4, Fraction(1, 4))
    plus, minus = solve_monic_quadratic(-coeff(Fraction(3, 11)), 1)
    assert (plus, minus) == (9, Fraction(1, 9))
    plus, minus = solve_monic_quadratic(-3, 1)
    assert plus == QuadExt(Fraction(3, 2), Fraction(1, 2), 5)
    assert minus == QuadExt(Fraction(3, 2), Fraction(-1, 2), 5)


def test_solve_quadratic_negative_discriminant():
    with pytest.raises(NoRealRootError):
        solve_monic_quadratic(0, 1)


def test_as_fraction():
    assert as_fraction(QuadExt(Fraction(7, 3), 0, 5)) == Fraction(7, 3)
    assert as_fraction(3) == 3
    with pytest.raises(ValueError):
        as_fraction(QuadExt(0, 1, 5))


def test_text_form_roundtrip():
    values = [
        Fraction(3, 2),
        Fraction(-7),
        Fraction(0),
        QuadExt(Fraction(3, 2), Fraction(1, 2), 5),
        QuadExt(Fraction(-1, 3), Fraction(-2, 7), 2),
        QuadExt(0, 1, 3),
    ]
    for v in values:
        assert parse_scalar(format_scalar(v)) == v
    assert format_scalar(Fraction(1, 2)) == "1/2"
    assert format_scalar(QuadExt(Fraction(3, 2), Fraction(1, 2), 5)) == "3/2+1/2*sqrt(5)"
    assert parse_scalar(" -1/2 ") == Fraction(-1, 2)
    with pytest.raises(ValueError):
        parse_scalar("sqrt(banana)")


@pytest.mark.parametrize(
    "text, value",
    [("7", 7), (" -12 ", -12), ("+3", 3), ("-0", 0), ("\u0663", 3), ("10" * 20, int("10" * 20))],
)
def test_integer_text_parses_to_an_int(text, value):
    got = parse_scalar(text)
    assert type(got) is int and got == value


@pytest.mark.parametrize(
    "text, value",
    [("3 4", Fraction(34)), ("- 5", Fraction(-5)), ("4/2", Fraction(2)), ("6/1", Fraction(6))],
)
def test_other_rational_text_stays_a_fraction(text, value):
    got = parse_scalar(text)
    assert type(got) is Fraction and got == value


@pytest.mark.parametrize(
    "text, value",
    [
        ("1/2*sqrt(5)", QuadExt(0, Fraction(1, 2), 5)),
        ("-3*sqrt(2)", QuadExt(0, -3, 2)),
        (" + 7 * sqrt( 3 ) ", QuadExt(0, 7, 3)),
    ],
)
def test_pure_quadratic_text_parses_to_a_quadext(text, value):
    got = parse_scalar(text)
    assert type(got) is QuadExt and got == value
