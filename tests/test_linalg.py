import random
from fractions import Fraction

import pytest

from symrank.exactfield import QuadExt
from symrank.linalg import (
    Matrix,
    integer_scaled,
    quad_scaled,
    rank_int_rows,
    rank_quad_rows,
)

from oracle import rank_naive


def squared_difference_matrix(n):
    return Matrix(n, n, [(i - j) ** 2 for i in range(n) for j in range(n)])


def test_rank_examples():
    assert Matrix(5, 5, [0] * 25).rank() == 0
    assert Matrix(7, 7, [int(i == j) for i in range(7) for j in range(7)]).rank() == 7
    assert squared_difference_matrix(5).rank() == 3
    assert rank_naive(squared_difference_matrix(5)) == 3


def test_heawood_gram_nullity():
    from symrank.designs import fano, incidence_bigraph

    masks = incidence_bigraph(fano()).row_masks
    g = [[(a & b).bit_count() for b in masks] for a in masks]
    # 2-(7,3,1) axioms: diagonal k = 3, off-diagonal lambda = 1
    assert g == [[3 if i == j else 1 for j in range(7)] for i in range(7)]
    # G - 2I = J has nullity 6, the multiplicity of sqrt(2) in the Heawood graph
    shifted = Matrix.from_rows(
        [[v - 2 * (i == j) for j, v in enumerate(row)] for i, row in enumerate(g)]
    )
    assert 7 - shifted.rank() == 6


def test_rank_transpose_invariant():
    rng = random.Random(5)
    for _ in range(200):
        r, c = rng.randint(1, 6), rng.randint(1, 6)
        m = Matrix(r, c, [rng.randint(-3, 3) for _ in range(r * c)])
        transpose = Matrix(c, r, [m.entry(i, j) for j in range(c) for i in range(r)])
        assert m.rank() == transpose.rank()


def test_rank_gram_invariant():
    rng = random.Random(6)
    for _ in range(100):
        r, c = rng.randint(1, 6), rng.randint(1, 6)
        b = Matrix(r, c, [rng.randint(0, 1) for _ in range(r * c)])
        gram = Matrix(
            c,
            c,
            [
                sum(b.entry(k, i) * b.entry(k, j) for k in range(r))
                for i in range(c)
                for j in range(c)
            ],
        )
        assert gram.rank() == b.rank()


def test_rank_kronecker_multiplicative():
    rng = random.Random(7)
    for _ in range(50):
        ra, ca = rng.randint(1, 3), rng.randint(1, 3)
        rb, cb = rng.randint(1, 3), rng.randint(1, 3)
        a = Matrix(ra, ca, [rng.randint(-2, 2) for _ in range(ra * ca)])
        b = Matrix(rb, cb, [rng.randint(-2, 2) for _ in range(rb * cb)])
        kron = Matrix(
            ra * rb,
            ca * cb,
            [
                a.entry(i1, j1) * b.entry(i2, j2)
                for i1 in range(ra)
                for i2 in range(rb)
                for j1 in range(ca)
                for j2 in range(cb)
            ],
        )
        assert kron.rank() == a.rank() * b.rank()


def test_fraction_and_quad_entries_agree_with_oracle():
    rng = random.Random(8)
    for _ in range(150):
        r, c = rng.randint(1, 5), rng.randint(1, 5)
        m = Matrix(
            r, c, [Fraction(rng.randint(-4, 4), rng.randint(1, 4)) for _ in range(r * c)]
        )
        assert m.rank() == rank_naive(m)
    for _ in range(80):
        r, c = rng.randint(1, 4), rng.randint(1, 4)
        m = Matrix(
            r,
            c,
            [
                QuadExt(
                    Fraction(rng.randint(-2, 2)),
                    Fraction(rng.randint(-2, 2), rng.randint(1, 2)),
                    2,
                )
                for _ in range(r * c)
            ],
        )
        assert m.rank() == rank_naive(m)


def test_bareiss_matches_oracle_small_sample():
    rng = random.Random(9)
    for _ in range(500):
        r, c = rng.randint(1, 8), rng.randint(1, 8)
        m = Matrix(r, c, [rng.randint(-2, 2) for _ in range(r * c)])
        assert m.rank() == rank_naive(m)


def test_mixed_discriminant_rank_rejected():
    from symrank.errors import FieldMismatchError

    m = Matrix.from_rows([[QuadExt(0, 1, 2), QuadExt(0, 1, 5)]])
    with pytest.raises(FieldMismatchError):
        m.rank()


def test_matrix_shape_errors():
    with pytest.raises(ValueError):
        Matrix(2, 2, [1, 2, 3])
    with pytest.raises(ValueError):
        Matrix.from_rows([[1, 2], [3]])


def test_degenerate_shapes():
    assert Matrix(0, 0, []).rank() == 0
    assert Matrix(0, 5, []).rank() == 0
    assert Matrix.from_rows([]).rows == 0


def test_csv_roundtrip():
    m = Matrix.from_rows(
        [
            [Fraction(1, 2), QuadExt(Fraction(3, 2), Fraction(1, 2), 5)],
            [0, Fraction(-7, 3)],
        ]
    )
    again = Matrix.from_csv(m.to_csv())
    assert again == m
    zero5 = Matrix(5, 5, [0] * 25)
    assert Matrix.from_csv(zero5.to_csv()).rank() == 0


def test_row_rank_entry_points():
    assert rank_int_rows([]) == 0
    assert rank_int_rows([[0, 0], [0, 0]]) == 0
    assert rank_int_rows([[0, 0, 0], [1, 2, 3], [2, 4, 6], [0, 0, 1]]) == 2
    # rows of (a, b) = a + b*sqrt(2): the second row is (1 + sqrt 2) times the first
    first = [(1, 0), (0, 1)]
    second = [(1, 1), (2, 1)]
    assert rank_quad_rows([first, second], 2) == 1
    assert rank_quad_rows([first, [(0, 0), (0, 0)], [(1, 0), (0, 0)]], 2) == 2


def test_scaled_rows_keep_rank():
    assert integer_scaled([Fraction(1, 2), Fraction(-2, 3), 4]) == [3, -4, 24]
    assert integer_scaled([]) == []
    assert quad_scaled([QuadExt(Fraction(1, 2), Fraction(1, 3), 5), Fraction(1, 4)]) == [
        (6, 4),
        (3, 0),
    ]
    rng = random.Random(53)
    for _ in range(30):
        rows = [[Fraction(rng.randint(-3, 3), rng.randint(1, 4)) for _ in range(4)] for _ in range(3)]
        rows.append([a + b for a, b in zip(rows[0], rows[1])])
        expected = rank_naive(Matrix.from_rows(rows))
        assert rank_int_rows([integer_scaled(r) for r in rows]) == expected
