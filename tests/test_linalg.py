import random
from fractions import Fraction

import pytest

from symrank.exactfield import QuadExt
from symrank.linalg import (
    Matrix,
    gram,
    integer_scaled,
    kronecker,
    nullity,
    quad_scaled,
    rank,
    rank_int_rows,
    rank_quad_rows,
)

from oracle import rank_naive


def squared_difference_matrix(n):
    return Matrix(n, n, [(i - j) ** 2 for i in range(n) for j in range(n)])


def test_rank_examples():
    assert Matrix.zeros(5, 5).rank() == 0
    assert Matrix.identity(7).rank() == 7
    assert squared_difference_matrix(5).rank() == 3
    assert rank_naive(squared_difference_matrix(5)) == 3


def test_nullity_examples():
    assert Matrix.identity(6).nullity() == 0
    assert Matrix.zeros(3, 4).nullity() == 4


def test_heawood_gram_nullity():
    from symrank.designs import fano, incidence_bigraph

    b = incidence_bigraph(fano()).biadjacency()
    g = gram(b)
    # 2-(7,3,1) axioms: diagonal k = 3, off-diagonal lambda = 1
    for i in range(7):
        for j in range(7):
            assert g.entry(i, j) == (3 if i == j else 1)
    shifted = g - Matrix.identity(7).scaled(2)
    assert shifted.nullity() == 6


def test_gram_examples():
    assert gram(Matrix.identity(4)) == Matrix.identity(4)
    ones = Matrix(3, 2, [1] * 6)
    g = gram(ones)
    assert g.rows == g.cols == 2
    assert all(x == 3 for x in g.entries())


def test_kronecker_examples():
    a = Matrix.from_rows([[1, 2], [3, 4]])
    assert kronecker(a, Matrix.from_rows([[1]])) == a
    h2 = Matrix.from_rows([[1, 1], [1, -1]])
    h4 = kronecker(h2, h2)
    assert h4.row_list(0) == [1, 1, 1, 1]
    assert h4.row_list(3) == [1, -1, -1, 1]
    assert h4.rank() == 4


def test_rank_transpose_invariant():
    rng = random.Random(5)
    for _ in range(200):
        r, c = rng.randint(1, 6), rng.randint(1, 6)
        m = Matrix(r, c, [rng.randint(-3, 3) for _ in range(r * c)])
        assert m.rank() == m.transpose().rank()


def test_rank_gram_invariant():
    rng = random.Random(6)
    for _ in range(100):
        r, c = rng.randint(1, 6), rng.randint(1, 6)
        b = Matrix(r, c, [rng.randint(0, 1) for _ in range(r * c)])
        assert gram(b).rank() == b.rank()


def test_rank_kronecker_multiplicative():
    rng = random.Random(7)
    for _ in range(50):
        ra, ca = rng.randint(1, 3), rng.randint(1, 3)
        rb, cb = rng.randint(1, 3), rng.randint(1, 3)
        a = Matrix(ra, ca, [rng.randint(-2, 2) for _ in range(ra * ca)])
        b = Matrix(rb, cb, [rng.randint(-2, 2) for _ in range(rb * cb)])
        assert kronecker(a, b).rank() == a.rank() * b.rank()


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


def test_module_level_wrappers():
    m = Matrix.identity(3)
    assert rank(m) == 3
    assert nullity(m) == 0


def test_matrix_shape_errors():
    with pytest.raises(ValueError):
        Matrix(2, 2, [1, 2, 3])
    with pytest.raises(ValueError):
        Matrix.from_rows([[1, 2], [3]])
    with pytest.raises(ValueError):
        Matrix.identity(2) * Matrix.identity(3)


def test_degenerate_shapes():
    assert Matrix.zeros(0, 0).rank() == 0
    assert Matrix(0, 5, []).rank() == 0
    assert Matrix(0, 5, []).nullity() == 5
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
    zero5 = Matrix.zeros(5, 5)
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
