import random
import re
from fractions import Fraction
from itertools import islice
from unittest import mock

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy import QQ
from sympy.polys.matrices import DomainMatrix

from symrank import linalg
from symrank.exactfield import QuadExt, parse_scalar
from symrank.linalg import (
    QUAD_PRIME_TRIES,
    RANK_PRIME,
    SLOT_BOUND,
    SMALL_RANK,
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


# cells near the integer form: signs, padding, underscores, hex, exponents, inner
# spaces (parse_scalar drops them), a non-ASCII decimal digit, a superscript digit
# (str.isdigit but not int), empty, 1/1, Q(sqrt 3)
_CELL_CASES = [" +7 ", "-0", "1_000", "0x10", "1e3", "3 4", "\u0663", "", "1/1", "2+1*sqrt(3)"]
_CELL_CASES += ["++7", "+-7", "+ 7", "7-", "\u00b2", "\u0663\u0660"]
_CELL_PIECES = list("0123456789+-/_ex* \t\u00a0\u0663\u00b2") + ["sqrt(3)", "sqrt(4)", "00"]


def _padded_int(left, sign, digits, right):
    return f"{left}{sign}{digits}{right}"


csv_cells = st.one_of(
    st.sampled_from(_CELL_CASES),
    st.builds(
        _padded_int,
        st.sampled_from(["", " ", "\t", "\u00a0"]),
        st.sampled_from(["", "+", "-"]),
        st.integers(0, 10**30),
        st.sampled_from(["", " ", "\t", "\u2003"]),
    ),
    st.lists(st.sampled_from(_CELL_PIECES), max_size=6).map("".join),
)


@settings(max_examples=400)
@given(csv_cells)
def test_csv_cells_parse_like_parse_scalar(cell):
    try:
        expected = parse_scalar(cell)
    except ValueError as exc:
        expected = exc
    try:
        got = Matrix.from_csv("0," + cell).entry(0, 1)
    except ValueError as exc:
        assert isinstance(expected, ValueError), f"{cell!r} parses to {expected}"
        assert str(exc).startswith("row 1, column 2: ")
        return
    assert not isinstance(expected, ValueError), f"{cell!r} should be rejected"
    assert got == expected
    # an optionally signed run of digits is an int; everything else keeps parse_scalar's type
    is_int_cell = re.fullmatch(r"[+-]?\d+", cell.strip()) is not None
    assert (type(got) is int) == is_int_cell
    if not is_int_cell:
        assert type(got) is type(expected)


@st.composite
def csv_matrices(draw):
    """Small matrices of ints, of Fractions, or of Q(sqrt d) values mixed with rationals."""
    r, c = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    kind = draw(st.sampled_from(["int", "fraction", "quad"]))
    ints = st.integers(-(10**20), 10**20)
    fractions = st.fractions(max_denominator=10**6)
    if kind == "int":
        entries = ints
    elif kind == "fraction":
        entries = fractions
    else:
        d = draw(st.sampled_from([2, 3, 5, 7]))
        small = st.fractions(min_value=-50, max_value=50, max_denominator=9)
        entries = st.one_of(ints, fractions, st.builds(lambda a, b: QuadExt(a, b, d), small, small))
    matrix = Matrix(r, c, draw(st.lists(entries, min_size=r * c, max_size=r * c)))
    return kind, matrix


@given(csv_matrices())
def test_csv_roundtrip_property(case):
    kind, m = case
    again = Matrix.from_csv(m.to_csv())
    assert again == m
    if kind == "int":
        assert all(type(x) is int for x in again.entries())


def test_int_matrix_ranks_without_rescaling(monkeypatch):
    def rescaled(values):
        raise AssertionError("an int matrix was rescaled")

    monkeypatch.setattr(linalg, "integer_scaled", rescaled)
    assert squared_difference_matrix(6).rank() == 3
    assert Matrix.from_csv("2,4,6\n1,2,3\n-1,0,1\n").rank() == 2
    with pytest.raises(AssertionError):
        Matrix(1, 2, [Fraction(1, 2), 1]).rank()


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


# -- the mod-p certificate of full rank in rank_int_rows ------------------------
#
# Each case checks rank_int_rows against the textbook elimination in
# oracle.rank_naive and against sympy's rank over ZZ.  (sympy's DomainMatrix
# rank: Matrix.rank simplifies entry by entry and takes minutes on a 20x20
# matrix of 64-bit entries.)


def assert_rank(rows, expected=None):
    rank = rank_int_rows(rows)
    assert rank == rank_naive(Matrix.from_rows(rows))
    assert rank == sympy.Matrix(rows).to_DM().rank()
    if expected is not None:
        assert rank == expected
    return rank


def spy_on_modular_pass(monkeypatch, record):
    """Call record(p, verdict) after every run of the mod-p pass."""
    real = linalg._full_rank_mod_p

    def spy(residues, cols, k, p):
        verdict = real(residues, cols, k, p)
        record(p, verdict)
        return verdict

    monkeypatch.setattr(linalg, "_full_rank_mod_p", spy)


@pytest.fixture
def modular_verdicts(monkeypatch):
    """The verdict of every mod-p pass that rank_int_rows runs."""
    verdicts = []

    def record(p, verdict):
        assert p == RANK_PRIME
        verdicts.append(verdict)

    spy_on_modular_pass(monkeypatch, record)
    return verdicts


@st.composite
def drawn_matrices(draw):
    """Integer matrices up to 40x40 with entries of 1 to 70 bits."""
    r, c = draw(st.integers(1, 40)), draw(st.integers(1, 40))
    bits = draw(st.integers(1, 70))
    entry = st.integers(-(2**bits) + 1, 2**bits - 1)
    rows = draw(st.lists(st.lists(entry, min_size=c, max_size=c), min_size=r, max_size=r))
    rows[0][0] = draw(st.sampled_from((1, -1))) * 2 ** (bits - 1)  # one entry of `bits` bits
    return rows


@st.composite
def known_rank_products(draw):
    """([I; X] [I | Y], rank) with rows and columns shuffled: rank is exact over any field."""
    r, c = draw(st.integers(1, 30)), draw(st.integers(1, 30))
    k = min(r, c)
    rank = k - draw(st.integers(0, min(2, k)) | st.integers(0, k))
    bits = draw(st.integers(1, 40))
    entry = st.integers(-(2**bits), 2**bits)

    def block(height, width):
        row = st.lists(entry, min_size=width, max_size=width)
        return draw(st.lists(row, min_size=height, max_size=height))

    x, y = block(r - rank, rank), block(rank, c - rank)
    top = [[int(i == j) for j in range(rank)] + y[i] for i in range(rank)]
    bottom = [
        xi + [sum(a * y[t][j] for t, a in enumerate(xi)) for j in range(c - rank)] for xi in x
    ]
    order = draw(st.permutations(range(c)))
    rows = [[row[j] for j in order] for row in draw(st.permutations(top + bottom))]
    return rows, rank


@settings(max_examples=60)
@given(drawn_matrices())
def test_certificate_agrees_with_oracles_on_drawn_matrices(rows):
    assert_rank(rows)


@settings(max_examples=60)
@given(known_rank_products())
def test_known_rank_products_fall_back_to_bareiss_exactly(case):
    rows, rank = case
    assert_rank(rows, rank)


def test_unlucky_prime_falls_back_to_the_exact_rank(modular_verdicts):
    p = RANK_PRIME
    assert assert_rank([[p * (i == j == 0) + (i == j > 0) for j in range(4)] for i in range(4)], 4)
    assert modular_verdicts == [False]
    # a full-rank matrix with a nonzero row that is 0 mod p
    rng = random.Random(62)
    rows = [[rng.randint(-(2**20), 2**20) for _ in range(7)] for _ in range(6)]
    rows[2] = [p * a for a in rows[2]]
    del modular_verdicts[:]
    assert_rank(rows, 6)
    assert modular_verdicts == [False]


def slot_growth_rows(k: int, cols: int) -> list[list[int]]:
    """Rank k - 1 rows that fill the mod-p pass's slots about as far as they go.

    Row r < k - 1 is the sum of rows 0..r of U, which has 1 on the diagonal
    and -1 right of it.  In the pass every multiplier is then 1 and every
    scaled pivot entry is -1 = p - 1, so each step adds (p - 1)^2 to a slot.
    The last row is twice the one before it: multiplier 2 at each of its
    k - 1 steps, after which it is 0 mod p with slots near (k-1)(p-1)^2.
    """
    u = [[(j == t) - (j > t) for j in range(cols)] for t in range(k - 1)]
    rows = [[sum(u[t][j] for t in range(r + 1)) for j in range(cols)] for r in range(k - 1)]
    return rows + [[2 * a for a in rows[-1]]]


@pytest.mark.parametrize("k", [2, 3, 4, 5, 17, 32, 40])
def test_slot_growth_stays_inside_the_slots(modular_verdicts, k):
    p = RANK_PRIME
    # every entry p - 1, plus a nonzero diagonal: I - J and diag(1..k) - J mod p, full rank
    assert_rank([[p - 1 + (i == j) for j in range(k)] for i in range(k)], k)
    assert_rank([[p - 1 + (i == j) * (i + 1) for j in range(k + 2)] for i in range(k)], k)
    # -J + 2I is singular mod p only when k = 2
    assert_rank([[2 * (i == j) - 1 for j in range(k)] for i in range(k)])
    for cols in (k, k + 2):
        assert_rank(slot_growth_rows(k, cols), k - 1)
    # the two full ones, -J + 2I (singular when k = 2), then the two rank-(k-1) cases;
    # up to SMALL_RANK the pass does not run
    expected = [True, True, k != 2, False, False] if k > SMALL_RANK else []
    assert modular_verdicts == expected


@pytest.mark.parametrize("k", range(1, SMALL_RANK + 1))
def test_small_ranks_skip_the_modular_pass_at_any_entry_width(modular_verdicts, k):
    rng = random.Random(63 + k)
    for cols in (k, k + 2):
        rows = [[rng.getrandbits(10**4) - 2 ** (10**4 - 1) for _ in range(cols)] for _ in range(k)]
        assert_rank(rows, k)
        deficient = rows[:-1] + [[3 * a for a in rows[0]]]
        assert_rank(deficient, max(1, k - 1))
        assert_rank([row[:k] for row in rows[:1]] * k, 1)
    assert modular_verdicts == []


def largest_slot(p: int, k: int) -> int:
    """The bound on a slot after k - 1 elimination steps mod p."""
    return (p - 1) * (1 + (k - 1) * (p - 1))


def test_slot_bound_holds_exactly_at_the_largest_k_the_pass_accepts():
    assert largest_slot(RANK_PRIME, SLOT_BOUND) < 2**64 <= largest_slot(RANK_PRIME, SLOT_BOUND + 1)
    assert SLOT_BOUND == 4097
    assert sympy.isprime(RANK_PRIME) and RANK_PRIME % 4 == 3 and RANK_PRIME < 2**26
    # the Z[sqrt d] pass uses smaller primes, whose slots grow less
    for p in islice(linalg._primes_3_mod_4(), QUAD_PRIME_TRIES):
        assert p <= RANK_PRIME and largest_slot(p, SLOT_BOUND) < 2**64


# -- the mod-p certificate of full rank in rank_quad_rows -----------------------
#
# a + b*sqrt(d) maps to a + b*s mod p with s^2 = d mod p.  Each case checks
# rank_quad_rows against the Z[sqrt d] Bareiss elimination (the pass switched
# off) and against sympy's rank over QQ<sqrt(d)>.


def sympy_quad_rank(rows, d):
    field = QQ.algebraic_field(sympy.sqrt(d))
    root = field.from_sympy(sympy.sqrt(d))
    elements = [[field.convert(a) + field.convert(b) * root for a, b in row] for row in rows]
    return DomainMatrix(elements, (len(rows), len(rows[0])), field).rank()


def assert_quad_rank(rows, d, expected=None):
    rank = rank_quad_rows(rows, d)
    with mock.patch.object(linalg, "SLOT_BOUND", 0):
        bareiss = rank_quad_rows(rows, d)
    assert rank == bareiss == sympy_quad_rank(rows, d)
    if expected is not None:
        assert rank == expected
    return rank


@pytest.fixture
def quad_verdicts(monkeypatch):
    """(p, verdict) of every mod-p pass, over Z[sqrt d] or Z."""
    verdicts = []
    spy_on_modular_pass(monkeypatch, lambda p, verdict: verdicts.append((p, verdict)))
    return verdicts


def qmul(x, y, d):
    return (x[0] * y[0] + d * x[1] * y[1], x[0] * y[1] + x[1] * y[0])


def random_quad_rows(rng, r, c, bits=8):
    return [
        [(rng.randint(-(2**bits), 2**bits), rng.randint(-(2**bits), 2**bits)) for _ in range(c)]
        for _ in range(r)
    ]


@st.composite
def known_rank_quad_products(draw):
    """(rows, d, rank): [I; X] [I | Y] over Z[sqrt d], rows and columns shuffled."""
    d = draw(st.sampled_from([2, 3, 5, 6, 7, 10, RANK_PRIME]))
    r, c = draw(st.integers(1, 12)), draw(st.integers(1, 12))
    k = min(r, c)
    rank = k - draw(st.integers(0, min(2, k)) | st.integers(0, k))
    bits = draw(st.integers(1, 30))
    part = st.integers(-(2**bits), 2**bits)
    entry = st.tuples(part, part)

    def block(height, width):
        row = st.lists(entry, min_size=width, max_size=width)
        return draw(st.lists(row, min_size=height, max_size=height))

    x, y = block(r - rank, rank), block(rank, c - rank)
    top = [[(int(i == j), 0) for j in range(rank)] + y[i] for i in range(rank)]
    bottom = []
    for xi in x:
        products = [[qmul(a, y[t][j], d) for t, a in enumerate(xi)] for j in range(c - rank)]
        bottom.append(xi + [(sum(p[0] for p in ps), sum(p[1] for p in ps)) for ps in products])
    order = draw(st.permutations(range(c)))
    rows = [[row[j] for j in order] for row in draw(st.permutations(top + bottom))]
    return rows, d, rank


@settings(max_examples=60)
@given(known_rank_quad_products())
def test_known_rank_quad_products_agree_with_bareiss_and_sympy(case):
    rows, d, rank = case
    assert_quad_rank(rows, d, rank)


def test_quad_primes_count_down_the_primes_3_mod_4():
    want, p = [], RANK_PRIME + 1
    while len(want) < QUAD_PRIME_TRIES:
        p = sympy.prevprime(p)
        if p % 4 == 3:
            want.append(p)
    assert list(islice(linalg._primes_3_mod_4(), QUAD_PRIME_TRIES)) == want
    square_free = [d for d in range(2, 120) if all(e == 1 for e in sympy.factorint(d).values())]
    for d in square_free + [3 * RANK_PRIME]:
        p, s = linalg._quad_root(d)
        assert p == next(q for q in want if sympy.legendre_symbol(d % q, q) >= 0)
        assert (s * s - d) % p == 0 and 0 <= s < p


def test_p_dividing_d_maps_sqrt_d_to_zero(quad_verdicts):
    d = RANK_PRIME  # square-free, and the first prime tried divides it
    assert linalg._quad_root(d) == (d, 0)
    rng = random.Random(64)
    rows = random_quad_rows(rng, 5, 6)
    assert_quad_rank(rows, d, 5)
    # the sqrt(d) parts alone map to 0 mod p, and have full rank over Q(sqrt d)
    assert_quad_rank([[(0, b) for _, b in row] for row in rows], d, 5)
    assert quad_verdicts == [(d, True), (d, False)]


def test_d_without_a_root_mod_the_first_prime_uses_a_later_one(quad_verdicts):
    assert sympy.legendre_symbol(2, RANK_PRIME) == -1  # RANK_PRIME = 3 mod 8
    p, s = linalg._quad_root(2)
    assert p < RANK_PRIME and (s * s - 2) % p == 0
    rng = random.Random(65)
    assert_quad_rank(random_quad_rows(rng, 6, 8), 2, 6)
    assert_quad_rank(random_quad_rows(rng, 9, 7, bits=40), 2, 7)
    assert quad_verdicts == [(p, True), (p, True)]


@pytest.mark.parametrize("d", [2, 3, 5, RANK_PRIME])
def test_a_minor_that_vanishes_mod_p_falls_back_to_bareiss(quad_verdicts, d):
    p, s = linalg._quad_root(d)
    vanishing = (p - s, 1)  # (p - s) + sqrt(d) is nonzero, and maps to p = 0
    rng = random.Random(66)
    rows = random_quad_rows(rng, 6, 6)
    assert_quad_rank(rows, d, 6)
    rows[2] = [qmul(vanishing, x, d) for x in rows[2]]
    assert_quad_rank(rows, d, 6)
    # a diagonal minor of one such entry
    diagonal = [[vanishing if i == j == 0 else (int(i == j), 0) for j in range(5)] for i in range(5)]
    assert_quad_rank(diagonal, d, 5)
    assert quad_verdicts == [(p, True), (p, False), (p, False)]


@pytest.mark.parametrize("k", range(1, SMALL_RANK + 1))
def test_small_quad_ranks_skip_the_modular_pass(quad_verdicts, k):
    rng = random.Random(67 + k)
    for cols in (k, k + 2):
        rows = random_quad_rows(rng, k, cols, bits=200)
        assert_quad_rank(rows, 3, k)
        deficient = rows[:-1] + [[qmul((1, 1), x, 3) for x in rows[0]]]
        assert_quad_rank(deficient, 3, max(1, k - 1))
    assert quad_verdicts == []


def test_every_rank_above_small_runs_the_modular_pass_once_at_any_entry_width(quad_verdicts):
    quad_p = linalg._quad_root(3)[0]
    rng = random.Random(61)
    for bits in (1, 2, 40, 100):
        low = 2 ** (bits - 1)
        for k in range(SMALL_RANK + 1, 9):
            for cols in (k, k + 3):
                rows = [
                    [rng.choice((1, -1)) * rng.randrange(low, 2 * low) for _ in range(cols)]
                    for _ in range(k)
                ]
                quad = random_quad_rows(rng, k, cols, bits)
                int_deficient = rows[:-1] + [[-a for a in rows[0]]]
                quad_deficient = quad[:-1] + [[qmul((1, 1), x, 3) for x in quad[0]]]
                for int_rows, quad_rows in ((rows, quad), (int_deficient, quad_deficient)):
                    del quad_verdicts[:]
                    rank = assert_rank(int_rows)
                    quad_rank = assert_quad_rank(quad_rows, 3)
                    assert quad_verdicts == [(RANK_PRIME, rank == k), (quad_p, quad_rank == k)]


def test_ranks_above_the_slot_bound_go_straight_to_bareiss(monkeypatch, quad_verdicts):
    monkeypatch.setattr(linalg, "SLOT_BOUND", 5)
    rng = random.Random(68)
    for k in (5, 6):
        rows = [[rng.getrandbits(40) for _ in range(k + 1)] for _ in range(k)]
        assert_rank(rows, k)
        assert_quad_rank(random_quad_rows(rng, k + 1, k), 3, k)
    p = linalg._quad_root(3)[0]
    assert quad_verdicts == [(RANK_PRIME, True), (p, True)]
