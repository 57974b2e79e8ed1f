import random
import re
from array import array
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
from symrank.errors import FieldMismatchError
from symrank.exactfield import QuadExt, parse_scalar
from symrank.linalg import (
    QUAD_PRIME_TRIES,
    RANK_PRIMES,
    SIZE_CAP,
    SLOT_BOUND,
    SMALL_RANK,
    Matrix,
    rank_rows,
    ring_rows,
)

from oracle import from_rows, rank_naive


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
    shifted = from_rows(
        [[v - 2 * (i == j) for j, v in enumerate(row)] for i, row in enumerate(g)]
    )
    assert 7 - shifted.rank() == 6


def test_rank_transpose_invariant():
    rng = random.Random(5)
    for _ in range(200):
        r, c = rng.randint(1, 6), rng.randint(1, 6)
        m = Matrix(r, c, [rng.randint(-3, 3) for _ in range(r * c)])
        rows = [m.row_list(i) for i in range(r)]
        transpose = Matrix(c, r, [rows[i][j] for j in range(c) for i in range(r)])
        assert m.rank() == transpose.rank()


def test_rank_gram_invariant():
    rng = random.Random(6)
    for _ in range(100):
        r, c = rng.randint(1, 6), rng.randint(1, 6)
        b = Matrix(r, c, [rng.randint(0, 1) for _ in range(r * c)])
        rows = [b.row_list(k) for k in range(r)]
        gram = Matrix(
            c,
            c,
            [
                sum(rows[k][i] * rows[k][j] for k in range(r))
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
                a.row_list(i1)[j1] * b.row_list(i2)[j2]
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
    m = from_rows([[QuadExt(0, 1, 2), QuadExt(0, 1, 5)]])
    with pytest.raises(FieldMismatchError):
        m.rank()


def test_degenerate_shapes():
    assert Matrix(0, 0, []).rank() == 0
    assert Matrix(0, 5, []).rank() == 0
    assert from_rows([]).rows == 0


def test_csv_roundtrip():
    m = from_rows(
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
        got = Matrix.from_csv("0," + cell).row_list(0)[1]
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


def test_int_matrix_ranks_without_rescaling():
    with mock.patch.object(linalg, "lcm", wraps=linalg.lcm) as lcm:
        assert squared_difference_matrix(6).rank() == 3
        assert Matrix.from_csv("2,4,6\n1,2,3\n-1,0,1\n").rank() == 2
        lcm.assert_not_called()
        assert Matrix(1, 2, [Fraction(1, 2), 1]).rank() == 1
        lcm.assert_called()


# -- CSV text straight into ring rows ----------------------------------------------
#
# The reference reads a grid cell by cell through parse_scalar, rejects the
# first cell over a second discriminant, and converts with ring_rows.


def _cell_by_cell(grid):
    """(rows of scalars, None), or (None, the message of the first bad cell)."""
    rows, d = [], None
    for i, cells in enumerate(grid, 1):
        row = []
        for j, cell in enumerate(cells, 1):
            try:
                x = parse_scalar(cell)
                if type(x) is QuadExt and x.d != d:
                    if d is not None:
                        raise FieldMismatchError(f"matrix mixes sqrt({d}) and sqrt({x.d}) entries")
                    d = x.d
            except ValueError as exc:
                return None, f"row {i}, column {j}: {exc}"
            row.append(x)
        rows.append(row)
    return rows, None


def _read_and_rank(text):
    """from_csv then rank: (the arguments rank_rows got, the matrix, its rank)."""
    matrix = Matrix.from_csv(text)
    with mock.patch.object(linalg, "rank_rows", wraps=linalg.rank_rows) as spy:
        rank = matrix.rank()
    return spy.call_args.args, matrix, rank


def _fast_cell(pad, a, b, r):
    """a, or a+b*sqrt(r) with the sign of b written, padded outside."""
    return f"{pad}{a}{pad}" if r is None else f"{pad}{a}{b:+d}*sqrt({r}){pad}"


@st.composite
def ring_csv_grids(draw):
    """Grids of CSV cells: integer lines, and lines that mix the fast form
    a+b*sqrt(r) (b = 0 included) with cells only parse_scalar reads."""
    r, c = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    d = draw(st.sampled_from([2, 3, 5]))
    # mostly the matrix's d; a second square-free one, and radicands QuadExt rejects
    radicand = st.sampled_from([d] * 6 + [7, 4, 8, 1])
    ints = st.integers(-(10**30), 10**30)
    small = st.integers(-9, 9)
    pad = st.sampled_from(["", " "])
    fast = st.one_of(
        st.builds(_fast_cell, pad, ints, st.none(), st.none()),
        st.builds(_fast_cell, pad, ints, small, radicand),
        st.builds(_fast_cell, pad, small, st.just(0), radicand),
        st.sampled_from(["\u0663", "-\u0663+1*sqrt(\u0662)", "+0", "-0"]),
    )
    fraction = st.fractions(min_value=-9, max_value=9, max_denominator=6).map(str)
    fallback = st.one_of(
        fraction,
        st.builds(lambda b, r: f"{b}*sqrt({r})", fraction, radicand),
        st.builds(lambda a, b, r: f"{a}{'' if b.startswith('-') else '+'}{b}*sqrt({r})",
                  fraction, fraction, radicand),
        st.builds(lambda a, r: f"{a} + 1*sqrt({r})", small, radicand),
        st.sampled_from(["1_000", "1/1", "3 4"]),
    )
    grid = []
    for _ in range(r):
        cell = ints.map(str) if draw(st.booleans()) else st.one_of(fast, fallback)
        grid.append(draw(st.lists(cell, min_size=c, max_size=c)))
    return grid


@settings(max_examples=300)
@given(ring_csv_grids())
def test_csv_reads_the_ring_rows_of_its_cells_parsed_one_by_one(grid):
    text = "".join(",".join(cells) + "\n" for cells in grid)
    rows, error = _cell_by_cell(grid)
    if error is not None:
        with pytest.raises(ValueError) as exc:
            Matrix.from_csv(text)
        assert str(exc.value) == error
        return
    args, matrix, rank = _read_and_rank(text)
    assert args == ring_rows(rows)
    assert rank == rank_naive(from_rows(rows))
    assert matrix == from_rows(rows)


@pytest.mark.parametrize(
    "text, error",
    [
        ("1,1+0*sqrt(4)\n", "row 1, column 2: discriminant must be square-free, got 4 = 2**2 * 1"),
        ("1,1+1*sqrt(8)\n", "row 1, column 2: discriminant must be square-free, got 8 = 2**2 * 2"),
    ],
)
def test_fast_cells_check_their_radicand_whatever_b(text, error):
    with pytest.raises(ValueError, match=re.escape(error) + "$"):
        Matrix.from_csv(text)


@pytest.mark.parametrize(
    "text, rows, d",
    [
        # b = 0 makes a rational, which fits a sqrt(2) matrix
        ("1,1+1*sqrt(2)\n1+0*sqrt(3),2\n", [[(1, 0), (1, 1)], [(1, 0), (2, 0)]], 2),
        # radicands only with b = 0: a matrix over Z
        ("1+0*sqrt(3),2\n3,-4-0*sqrt(5)\n", [[1, 2], [3, -4]], None),
        # an integer line, read before d is known, becomes pairs
        ("1,2\n1+1*sqrt(2),3\n", [[(1, 0), (2, 0)], [(1, 1), (3, 0)]], 2),
        # a scaled row read before d is known becomes pairs too
        ("1/2+0*sqrt(3),1\n1,1+1*sqrt(2)\n", [[(1, 0), (2, 0)], [(1, 0), (1, 1)]], 2),
        # a Fraction scales its own row only
        ("1/2,1+1*sqrt(5)\n2,3\n", [[(1, 0), (2, 2)], [(2, 0), (3, 0)]], 5),
    ],
)
def test_csv_ring_rows_of_named_cases(text, rows, d):
    args, _, _ = _read_and_rank(text)
    assert args == (rows, d)


def test_row_rank_entry_points():
    assert rank_rows([]) == 0
    assert rank_rows([[0, 0], [0, 0]]) == 0
    assert rank_rows([[0, 0, 0], [1, 2, 3], [2, 4, 6], [0, 0, 1]]) == 2
    # rows of (a, b) = a + b*sqrt(2): the second row is (1 + sqrt 2) times the first
    first = [(1, 0), (0, 1)]
    second = [(1, 1), (2, 1)]
    assert rank_rows([first, second], 2) == 1
    assert rank_rows([first, [(0, 0), (0, 0)], [(1, 0), (0, 0)]], 2) == 2


def test_scaled_rows_keep_rank():
    ints = [[1, 2], [3, 4]]
    assert ring_rows(ints) == (ints, None) and ring_rows(ints)[0] is ints
    assert ring_rows([[Fraction(1, 2), Fraction(-2, 3), 4], [1, 2, 3], []]) == (
        [[3, -4, 24], [1, 2, 3], []],
        None,
    )
    # each row by the lcm of its own denominators, rationals as pairs (x, 0)
    quad = QuadExt(Fraction(1, 2), Fraction(1, 3), 5)
    assert ring_rows([[quad, Fraction(1, 4), 2], [Fraction(3, 4), 1, 0]]) == (
        [[(6, 4), (3, 0), (24, 0)], [(3, 0), (4, 0), (0, 0)]],
        5,
    )
    # the message names the first two discriminants in entry order
    mixed = [[1, QuadExt(0, 1, 3)], [QuadExt(0, 1, 2), QuadExt(0, 1, 5)]]
    with pytest.raises(FieldMismatchError, match=re.escape("mixes sqrt(3) and sqrt(2) entries")):
        ring_rows(mixed)
    rng = random.Random(53)
    for _ in range(30):
        rows = [[Fraction(rng.randint(-3, 3), rng.randint(1, 4)) for _ in range(4)] for _ in range(3)]
        rows.append([a + b for a, b in zip(rows[0], rows[1])])
        expected = rank_naive(from_rows(rows))
        assert rank_rows(*ring_rows(rows)) == expected


# -- the mod-p certificate of full rank over Z -----------------------------------
#
# Each case checks rank_rows against the textbook elimination in
# oracle.rank_naive and against sympy's rank over ZZ.  (sympy's DomainMatrix
# rank: Matrix.rank simplifies entry by entry and takes minutes on a 20x20
# matrix of 64-bit entries.)


def assert_rank(rows, expected=None):
    rank = rank_rows(rows)
    assert rank == rank_naive(from_rows(rows))
    assert rank == sympy.Matrix(rows).to_DM().rank()
    if expected is not None:
        assert rank == expected
    return rank


@pytest.fixture
def pass_pivots(monkeypatch):
    """(p, pivot count) of every mod-p pass a rank runs, over Z or Z[sqrt d]; k
    pivots certify rank k.  Each pass is checked to be the first prime's, which
    may leave one pivot short (need = k - 1), or the second prime's (need = k)."""
    counts = []
    real = linalg._full_rank_mod_p

    def spy(rows, ring, which, need):
        pivots = real(rows, ring, which, need)
        assert need == min(len(rows), len(rows[0])) - 1 + which
        assert which == 0 or counts[-1][1] == need - 1  # the second only after k - 1
        image = ring.residues(rows, which)
        counts.append((image and image[1], pivots))  # p None: the ring has no such prime
        return pivots

    monkeypatch.setattr(linalg, "_full_rank_mod_p", spy)
    return counts


P1, P2 = RANK_PRIMES


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


def test_unlucky_prime_falls_back_to_the_exact_rank(pass_pivots):
    # a row that is 0 mod p leaves k - 1 rows: the first pass counts k - 1, and a
    # second pass that also sees it stops before its first pivot
    for scale, passes in ((P1, [(P1, 3), (P2, 4)]), (P1 * P2, [(P1, 3), (P2, 0)])):
        del pass_pivots[:]
        assert_rank([[scale * (i == j == 0) + (i == j > 0) for j in range(4)] for i in range(4)], 4)
        assert pass_pivots == passes
    # a full-rank matrix with a nonzero row that is 0 mod p
    rng = random.Random(62)
    rows = [[rng.randint(-(2**20), 2**20) for _ in range(7)] for _ in range(6)]
    for scale, passes in ((P1, [(P1, 5), (P2, 6)]), (P1 * P2, [(P1, 5), (P2, 0)])):
        del pass_pivots[:]
        assert_rank(rows[:2] + [[scale * a for a in rows[2]]] + rows[3:], 6)
        assert pass_pivots == passes
    # two such rows leave k - 2 rows: the first pass stops before its first pivot
    del pass_pivots[:]
    assert_rank(rows[:2] + [[P1 * a for a in row] for row in rows[2:4]] + rows[4:], 6)
    assert pass_pivots == [(P1, 0)]


def slot_growth_rows(k: int, cols: int) -> list[list[int]]:
    """Rank k - 1 rows that fill the mod-p pass's slots about as far as they go.

    Row r < k - 1 is the sum of rows 0..r of U, which has 1 on the diagonal
    and -1 right of it.  In the pass every multiplier is then 1 and every
    scaled pivot entry is -1 = p - 1, so each step adds (p - 1)^2 to a slot.
    The last row is twice the one before it: multiplier 2 at each of its
    k - 1 steps, after which it is 0 mod p with slots near (k-1)(p-1)^2.
    """
    rows, total = [], [0] * cols
    for t in range(k - 1):
        total = [a + (j == t) - (j > t) for j, a in enumerate(total)]
        rows.append(total)
    return rows + [[2 * a for a in rows[-1]]]


@pytest.mark.parametrize("k", [2, 3, 4, 5, 17, 32, 40])
def test_slot_growth_stays_inside_the_slots(pass_pivots, k):
    p = P1
    # every entry p - 1, plus a nonzero diagonal: I - J and diag(1..k) - J mod p, full rank
    assert_rank([[p - 1 + (i == j) for j in range(k)] for i in range(k)], k)
    assert_rank([[p - 1 + (i == j) * (i + 1) for j in range(k + 2)] for i in range(k)], k)
    # -J + 2I is singular mod p only when k = 2
    assert_rank([[2 * (i == j) - 1 for j in range(k)] for i in range(k)])
    for cols in (k, k + 2):
        assert_rank(slot_growth_rows(k, cols), k - 1)
    # the three full ones, then the two rank-(k-1) cases, whose last row is 0 mod
    # either prime after k - 1 pivots; up to SMALL_RANK the pass does not run
    expected = [(P1, k)] * 3 + [(P1, k - 1), (P2, k - 1)] * 2 if k > SMALL_RANK else []
    assert pass_pivots == expected


@pytest.mark.parametrize("which", [0, 1])
def test_slot_growth_at_the_slot_bound_stays_inside_the_slots(which):
    # the pass alone, at the largest k it accepts: a carry out of a slot would
    # leave the last row nonzero and count k pivots
    k = SLOT_BOUND
    rows = slot_growth_rows(k, k)
    assert linalg._full_rank_mod_p(rows, linalg._INTEGERS, which, k - 1 + which) == k - 1


@pytest.mark.parametrize("k", range(1, SMALL_RANK + 1))
def test_small_ranks_skip_the_modular_pass_at_any_entry_width(pass_pivots, k):
    rng = random.Random(63 + k)
    for cols in (k, k + 2):
        rows = [[rng.getrandbits(10**4) - 2 ** (10**4 - 1) for _ in range(cols)] for _ in range(k)]
        assert_rank(rows, k)
        deficient = rows[:-1] + [[3 * a for a in rows[0]]]
        assert_rank(deficient, max(1, k - 1))
        assert_rank([row[:k] for row in rows[:1]] * k, 1)
    assert pass_pivots == []


def largest_slot(p: int, k: int) -> int:
    """The bound on a slot after k - 1 elimination steps mod p."""
    return (p - 1) * (1 + (k - 1) * (p - 1))


def test_slot_bound_holds_exactly_at_the_largest_k_the_pass_accepts():
    assert largest_slot(P1, SLOT_BOUND) < 2**32 <= largest_slot(P1, SLOT_BOUND + 1)
    assert SLOT_BOUND == 1035
    assert SLOT_BOUND >= SIZE_CAP  # every rank a command asks for can be certified
    # the first two primes = 3 mod 4 below 2^11, the first the largest
    assert list(RANK_PRIMES) == [p for p in sympy.primerange(2**10, 2**11) if p % 4 == 3][:-3:-1]
    assert linalg._INTEGERS.residues([[P1 + 5, -1]], 0) == ([5, P1 - 1], P1)
    assert linalg._INTEGERS.residues([[P1 + 5, -1]], 1) == ([(P1 + 5) % P2, P2 - 1], P2)
    # the Z[sqrt d] pass uses these or smaller primes, whose slots grow less
    for p in islice(linalg._primes_3_mod_4(), QUAD_PRIME_TRIES):
        assert p <= P1 and largest_slot(p, SLOT_BOUND) < 2**32


def test_residues_pack_into_unsigned_32_bit_slots():
    code = linalg._RESIDUE_CODE
    assert code in "IL" and array(code).itemsize == 4
    assert array(code, [2**32 - 1]).tolist() == [2**32 - 1]
    for outside in (-1, 2**32):
        with pytest.raises(OverflowError):
            array(code, [outside])


# -- the mod-p certificate of full rank over Z[sqrt d] ----------------------------
#
# a + b*sqrt(d) maps to a + b*s mod p with s^2 = d mod p.  Each case checks
# rank_rows against the Z[sqrt d] Bareiss elimination (the pass switched
# off) and against sympy's rank over QQ<sqrt(d)>.


def sympy_quad_rank(rows, d):
    field = QQ.algebraic_field(sympy.sqrt(d))
    root = field.from_sympy(sympy.sqrt(d))
    elements = [[field.convert(a) + field.convert(b) * root for a, b in row] for row in rows]
    return DomainMatrix(elements, (len(rows), len(rows[0])), field).rank()


def assert_quad_rank(rows, d, expected=None):
    rank = rank_rows(rows, d)
    with mock.patch.object(linalg, "SLOT_BOUND", 0):
        bareiss = rank_rows(rows, d)
    assert rank == bareiss == sympy_quad_rank(rows, d)
    if expected is not None:
        assert rank == expected
    return rank


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
    d = draw(st.sampled_from([2, 3, 5, 6, 7, 10, P1]))
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
    want, p = [], P1 + 1
    while len(want) < QUAD_PRIME_TRIES:
        p = sympy.prevprime(p)
        if p % 4 == 3:
            want.append(p)
    assert list(islice(linalg._primes_3_mod_4(), QUAD_PRIME_TRIES)) == want
    square_free = [d for d in range(2, 120) if all(e == 1 for e in sympy.factorint(d).values())]
    for d in square_free + [3 * P1, P1 * P2]:
        ring = linalg._quad_ring(d)
        roots = ring.roots
        squares = [q for q in want if sympy.legendre_symbol(d % q, q) >= 0]
        assert [p for p, _ in roots] == squares[:2]
        for p, s in roots:
            assert (s * s - d) % p == 0 and 0 <= s < p
            assert (s == 0) == (d % p == 0)


def test_a_d_with_fewer_roots_leaves_its_ranks_to_bareiss(monkeypatch, pass_pivots):
    rng = random.Random(79)
    rows = random_quad_rows(rng, 6, 6)
    vanishing = (P1 - linalg._quad_ring(3).roots[0][1], 1)
    rows[2] = [qmul(vanishing, x, 3) for x in rows[2]]
    # with one prime tried there is no second root, with none no root at all
    for tries, passes in ((1, [(P1, 5), (None, 0)]), (0, [(None, 0)])):
        monkeypatch.setattr(linalg, "QUAD_PRIME_TRIES", tries)
        linalg._quad_ring.cache_clear()
        del pass_pivots[:]
        assert_quad_rank(rows, 3, 6)
        assert pass_pivots == passes
        assert len(linalg._quad_ring(3).roots) == tries
    linalg._quad_ring.cache_clear()


def test_the_root_search_runs_once_per_d_when_its_ring_is_built(monkeypatch):
    tested = []
    real = linalg.is_prime
    monkeypatch.setattr(linalg, "is_prime", lambda n: tested.append(n) or real(n))
    linalg._quad_ring.cache_clear()
    rng = random.Random(76)
    assert rank_rows(random_quad_rows(rng, SMALL_RANK, 5), 2) == SMALL_RANK
    searched = len(tested)
    assert searched > 0
    ring = linalg._quad_ring(2)
    assert rank_rows(random_quad_rows(rng, 5, 4), 2) == 4
    assert rank_rows(random_quad_rows(rng, 6, 6), 2) == 6
    # a row that vanishes mod the first prime runs the second pass on the same roots
    rows = random_quad_rows(rng, 6, 6)
    rows[0] = [qmul((P1 - ring.roots[0][1], 1), x, 2) for x in rows[0]]
    assert rank_rows(rows, 2) == 6
    assert len(tested) == searched
    (p2, s2), (p3, s3) = ring.roots[0], linalg._quad_ring(3).roots[0]
    assert len(tested) > searched  # d = 3 searches for its own root
    assert (s2 * s2 - 2) % p2 == 0 and (s3 * s3 - 3) % p3 == 0


def test_p_dividing_d_maps_sqrt_d_to_zero(pass_pivots):
    d = P1  # square-free, and the first prime tried divides it
    assert linalg._quad_ring(d).roots[0] == (d, 0)
    rng = random.Random(64)
    rows = random_quad_rows(rng, 5, 6)
    assert_quad_rank(rows, d, 5)
    # the sqrt(d) parts alone map to 0 mod p, and have full rank over Q(sqrt d)
    assert_quad_rank([[(0, b) for _, b in row] for row in rows], d, 5)
    # every row of the second is 0 mod p, so no second pass runs
    assert pass_pivots == [(d, 5), (d, 0)]


def test_d_without_a_root_mod_the_first_prime_uses_a_later_one(pass_pivots):
    assert sympy.legendre_symbol(7, P1) == -1
    p, s = linalg._quad_ring(7).roots[0]
    assert p < P1 and (s * s - 7) % p == 0
    rng = random.Random(65)
    assert_quad_rank(random_quad_rows(rng, 6, 8), 7, 6)
    assert_quad_rank(random_quad_rows(rng, 9, 7, bits=40), 7, 7)
    assert pass_pivots == [(p, 6), (p, 7)]


@pytest.mark.parametrize("d", [2, 3, 5, 2**26 - 5, P1])
def test_a_minor_that_vanishes_mod_p_falls_back_to_bareiss(pass_pivots, d):
    (p1, s1), (p2, s2) = linalg._quad_ring(d).roots
    first = (p1 - s1, 1)  # (p1 - s1) + sqrt(d) is nonzero, and maps to p1 = 0
    both = qmul(first, (p2 - s2, 1), d)  # maps to 0 mod either prime
    rng = random.Random(66)
    rows = random_quad_rows(rng, 6, 6)
    assert_quad_rank(rows, d, 6)
    for vanishing in (first, both):
        scaled = rows[:2] + [[qmul(vanishing, x, d) for x in rows[2]]] + rows[3:]
        assert_quad_rank(scaled, d, 6)
        # a diagonal minor of one such entry
        diagonal = [
            [vanishing if i == j == 0 else (int(i == j), 0) for j in range(5)] for i in range(5)
        ]
        assert_quad_rank(diagonal, d, 5)
    # a row 0 mod p1 leaves k - 1 rows; the second prime certifies full rank unless
    # the row is 0 mod p2 too, which stops its pass before its first pivot
    assert pass_pivots == [(p1, 6), (p1, 5), (p2, 6), (p1, 4), (p2, 5)] + [
        (p1, 5), (p2, 0), (p1, 4), (p2, 0)
    ]


@pytest.mark.parametrize("k", range(1, SMALL_RANK + 1))
def test_small_quad_ranks_skip_the_modular_pass(pass_pivots, k):
    rng = random.Random(67 + k)
    for cols in (k, k + 2):
        rows = random_quad_rows(rng, k, cols, bits=200)
        assert_quad_rank(rows, 3, k)
        deficient = rows[:-1] + [[qmul((1, 1), x, 3) for x in rows[0]]]
        assert_quad_rank(deficient, 3, max(1, k - 1))
    assert pass_pivots == []


def test_every_rank_above_small_runs_the_modular_pass_at_any_entry_width(pass_pivots):
    primes = [RANK_PRIMES, [linalg._quad_ring(3).roots[which][0] for which in (0, 1)]]
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
                    del pass_pivots[:]
                    int_rank = assert_rank(int_rows)
                    int_runs = pass_pivots[:]
                    del pass_pivots[:]
                    passes = [(int_rank, int_runs), (assert_quad_rank(quad_rows, 3), pass_pivots)]
                    for (rank, runs), (p1, p2) in zip(passes, primes):
                        # the first prime always, the second exactly when the first
                        # leaves one pivot short
                        first = runs[0][1]
                        assert [p for p, _ in runs] == [p1] + [p2] * (first == k - 1)
                        # k pivots certify rank k, and fewer bound it from below
                        assert (runs[-1][1] == k) == (rank == k)
                        assert all(pivots <= rank for _, pivots in runs if pivots < k)


def test_ranks_above_the_slot_bound_go_straight_to_bareiss(monkeypatch, pass_pivots):
    monkeypatch.setattr(linalg, "SLOT_BOUND", 5)
    rng = random.Random(68)
    for k in (5, 6):
        rows = [[rng.getrandbits(40) for _ in range(k + 1)] for _ in range(k)]
        assert_rank(rows, k)
        assert_quad_rank(random_quad_rows(rng, k + 1, k), 3, k)
    p = linalg._quad_ring(3).roots[0][0]
    assert pass_pivots == [(P1, 5), (p, 5)]


# -- the route through both primes ------------------------------------------------
#
# The first prime's pass counts k, k - 1 or fewer pivots; the second prime's runs
# only at k - 1.  Each case checks the rank over Z (d None) and over Z[sqrt d]
# against the Bareiss elimination with the passes switched off and against
# sympy's DomainMatrix rank.


def vanishing(d, which):
    """A nonzero entry that the ring map to the prime number `which` sends to 0:
    that prime over Z, (p - s) + sqrt(d) over Z[sqrt d]."""
    if d is None:
        return RANK_PRIMES[which]
    p, s = linalg._quad_ring(d).roots[which]
    return p - s, 1


def times(x, row, d):
    return [x * a for a in row] if d is None else [qmul(x, a, d) for a in row]


def plus(u, v, d):
    if d is None:
        return [a + b for a, b in zip(u, v)]
    return [(a[0] + b[0], a[1] + b[1]) for a, b in zip(u, v)]


@pytest.mark.parametrize("d", [None, 2, 7, P1])
def test_the_second_prime_runs_only_when_the_first_leaves_one_pivot_short(pass_pivots, d):
    ring = linalg._INTEGERS if d is None else linalg._quad_ring(d)
    p1, p2 = RANK_PRIMES if d is None else (ring.roots[0][0], ring.roots[1][0])
    one = vanishing(d, 0)
    both = one * vanishing(d, 1) if d is None else qmul(one, vanishing(d, 1), d)
    rng = random.Random(78)
    rows = ring_product(rng, (6, 7, 6), 8, d, unit_block=False)
    deficient = ring_product(rng, (6, 7, 5), 8, d, unit_block=False)
    # rows 0 and 2 plus p1 times rows 4 and 5 in place of rows 4 and 5: rank k over the
    # ring, k - 2 mod p1
    mod_p1_twice = rows[:4] + [
        plus(rows[i], times(one, rows[j], d), d) for i, j in ((0, 4), (2, 5))
    ]
    cases = [
        # certified by the first prime
        (rows, 6, [(p1, 6)]),
        # a row 0 mod p1: one pivot short, then certified by the second prime
        (rows[:2] + [times(one, rows[2], d)] + rows[3:], 6, [(p1, 5), (p2, 6)]),
        # a row 0 mod either prime: both short, and Bareiss after the sort
        (rows[:2] + [times(both, rows[2], d)] + rows[3:], 6, [(p1, 5), (p2, 0)]),
        # corank 1 over the ring: both short
        (deficient, 5, [(p1, 5), (p2, 5)]),
        # two rows 0 mod p1, or two rows equal to others mod p1: no second pass
        (rows[:2] + [times(one, row, d) for row in rows[2:4]] + rows[4:], 6, [(p1, 0)]),
        (mod_p1_twice, 6, None),
    ]
    for matrix, rank, passes in cases:
        del pass_pivots[:]
        measured = []
        real = ring.bits
        with mock.patch.object(ring, "bits", lambda e: measured.append(e) or real(e)):
            assert rank_rows(matrix, d) == rank
        with mock.patch.object(linalg, "SLOT_BOUND", 0):
            assert rank_rows(matrix, d) == rank
        assert oracle_ranks(matrix, d)[1] == rank  # sympy's
        if passes is None:  # one pass, which counts at most k - 2
            assert [p for p, _ in pass_pivots] == [p1] and pass_pivots[0][1] <= 4
        else:
            assert pass_pivots == passes
        # uncertified, the sort gate takes the larger count: the first pass's, since a
        # second pass that falls short counts at most k - 1
        found, last = pass_pivots[0][1], pass_pivots[-1][1]
        assert len(measured) == (13 if last < 6 and found > SMALL_RANK else 0)


# -- the bit-size order of the Bareiss fallback ----------------------------------
#
# After a mod-p pass that found more than SMALL_RANK pivots, _rank sorts the rows,
# then the columns, by the total bit length of their entries before Bareiss.


def oracle_ranks(rows, d):
    """(rank_naive, sympy's DomainMatrix rank) over Z, or over Z[sqrt d] for d not None."""
    if d is None:
        return rank_naive(from_rows(rows)), sympy.Matrix(rows).to_DM().rank()
    quads = [[QuadExt(a, b, d) for a, b in row] for row in rows]
    return rank_naive(from_rows(quads)), sympy_quad_rank(rows, d)


@st.composite
def mixed_width_products(draw):
    """(rows, d, rank): [I; X] [I | Y] over Z (d None) or Z[sqrt d], rows and
    columns shuffled, SMALL_RANK < rank < min(rows, cols).  Each row of X and
    each column of Y has entries of 1 or of 40 bits, so the product's rows and
    columns differ in width by up to 80 bits."""
    d = draw(st.sampled_from([None, 2, 3, 5]))
    r, c = draw(st.integers(5, 12)), draw(st.integers(5, 12))
    rank = draw(st.integers(SMALL_RANK + 1, min(r, c) - 1))
    width = st.sampled_from((1, 40))

    def entries(count, bits):
        part = st.integers(-(2**bits), 2**bits)
        entry = part if d is None else st.tuples(part, part)
        return draw(st.lists(entry, min_size=count, max_size=count))

    def dot(u, v):
        if d is None:
            return sum(a * b for a, b in zip(u, v))
        terms = [qmul(a, b, d) for a, b in zip(u, v)]
        return sum(t[0] for t in terms), sum(t[1] for t in terms)

    one, zero = (1, 0) if d is None else ((1, 0), (0, 0))
    x = [entries(rank, draw(width)) for _ in range(r - rank)]
    y_columns = [entries(rank, draw(width)) for _ in range(c - rank)]
    top = [
        [one if i == j else zero for j in range(rank)] + [col[i] for col in y_columns]
        for i in range(rank)
    ]
    bottom = [xi + [dot(xi, col) for col in y_columns] for xi in x]
    order = draw(st.permutations(range(c)))
    rows = [[row[j] for j in order] for row in draw(st.permutations(top + bottom))]
    return rows, d, rank


@settings(max_examples=40)
@given(mixed_width_products(), st.randoms(use_true_random=False))
def test_mixed_width_products_rank_exactly_in_any_row_and_column_order(case, rng):
    rows, d, rank = case
    assert rank_rows(rows, d) == rank
    assert oracle_ranks(rows, d) == (rank, rank)
    for _ in range(3):
        rng.shuffle(rows)
        order = rng.sample(range(len(rows[0])), len(rows[0]))
        assert rank_rows([[row[j] for j in order] for row in rows], d) == rank


@pytest.mark.parametrize("d", [None, 3])
@pytest.mark.parametrize("found", [SMALL_RANK, SMALL_RANK + 1])
def test_only_more_than_small_rank_pivots_mod_p_sort_the_rows(monkeypatch, pass_pivots, found, d):
    # e_1 .. e_4 of six columns, each times its own width, and two multiples of the
    # sum of e_1 .. e_found: the pass zeroes both at its pivot number `found` and
    # stops, since the rows left cannot reach k - 1 = 5 pivots
    scales = [2**40 + 1, 1, 2**20 + 7, 3, 2**60 + 3, 5]
    rows = [[scales[i] * (j == i) for j in range(6)] for i in range(4)]
    rows += [[scales[i] * (j < found) for j in range(6)] for i in (4, 5)]
    ring = linalg._INTEGERS if d is None else linalg._quad_ring(d)
    measured = []
    real = ring.bits
    with mock.patch.object(ring, "bits", lambda entries: measured.append(entries) or real(entries)):
        if d is None:
            assert_rank(rows, 4)
        else:
            assert_quad_rank([[(a, a) for a in row] for row in rows], d, 4)
    assert [pivots for _, pivots in pass_pivots] == [found]
    # one bit size per row and one per column, only past the gate
    assert len(measured) == (12 if found > SMALL_RANK else 0)


# -- the packed Bareiss steps -----------------------------------------------------
#
# After the sort, _rank runs the first Bareiss steps on rows packed into 64-bit
# slots and hands the rows left to the list loop.  Each case checks the rank
# against rank_naive and sympy's DomainMatrix rank, and each hand-over against
# the list loop's state after as many pivots, recomputed on Fraction and QuadExt
# entries by bareiss_prefix.


def bareiss_prefix(rows, pivots, d):
    """(rows, prev) of fraction-free elimination after `pivots` pivots and the
    zero columns that follow them: the pivot is the first row with a nonzero
    entry in the first column, and zero rows are dropped."""
    lift = Fraction if d is None else (lambda v: QuadExt(v[0], v[1], d))
    pending = [row for row in ([lift(v) for v in row] for row in rows) if any(row)]
    prev = 1
    for done in range(pivots + 1):
        while pending and not any(row[0] for row in pending):
            pending = [row[1:] for row in pending]
        if done == pivots:
            break
        idx = next(i for i, row in enumerate(pending) if row[0])
        prow = pending.pop(idx)
        head, tail = prow[0], prow[1:]
        steps = ([(head * a - row[0] * b) / prev for a, b in zip(row[1:], tail)] for row in pending)
        pending = [row for row in steps if any(row)]
        prev = head

    def lower(v):
        if d is None:
            assert v.denominator == 1
            return int(v)
        a, b = (v.a, v.b) if isinstance(v, QuadExt) else (Fraction(v), 0)
        assert a.denominator == 1 and Fraction(b).denominator == 1
        return int(a), int(b)

    return [[lower(v) for v in row] for row in pending], lower(prev)


def watch_hand_overs(monkeypatch, d):
    """(rows packed, rows left, rank, prev, prevs of the packed steps) of every
    packed elimination over Z (d None) or Z[sqrt d], each checked on the way
    against bareiss_prefix."""
    runs = []
    real = linalg._packed_bareiss

    def spy(rows, ring):
        prevs = []
        pivot = ring.pivot

        def recorded(prow, h, bound, prev):
            prevs.append(prev)
            return pivot(prow, h, bound, prev)

        with mock.patch.object(ring, "pivot", recorded):
            left, rank, prev = real(rows, ring)
        want_rows, want_prev = bareiss_prefix(rows, rank, d)
        assert bareiss_prefix(left, 0, d)[0] == want_rows and prev == want_prev
        runs.append((rows, left, rank, prev, prevs))
        return left, rank, prev

    monkeypatch.setattr(linalg, "_packed_bareiss", spy)
    return runs


@pytest.fixture
def list_steps(monkeypatch):
    """The number of list-loop Bareiss steps, over either ring."""
    calls = []
    real = linalg._rank

    def spy(rows, ring):
        step = ring.step

        def counted(*args):
            calls.append(None)
            return step(*args)

        with mock.patch.object(ring, "step", counted):
            return real(rows, ring)

    monkeypatch.setattr(linalg, "_rank", spy)
    return calls


def ring_product(rng, shape, bits, d, unit_block):
    """A rows x cols matrix L U of rank r over Z (d None) or Z[sqrt d], rows and
    columns shuffled.  With unit_block, L = [I; X] and U = [I | Y], as the bench
    CSVs are built; otherwise L and U are dense.  Entries of X, Y, L and U have
    parts of at most `bits` bits."""
    rows, cols, r = shape

    def entry():
        a = rng.randint(-(2**bits), 2**bits)
        return a if d is None else (a, rng.randint(-(2**bits), 2**bits))

    one, zero = (1, 0) if d is None else ((1, 0), (0, 0))
    if unit_block:
        left = [[one if i == j else zero for j in range(r)] for i in range(r)]
        left += [[entry() for _ in range(r)] for _ in range(rows - r)]
        right = [[one if i == j else zero for j in range(cols)] for i in range(r)]
        right = [row[:r] + [entry() for _ in range(cols - r)] for row in right]
    else:
        left = [[entry() for _ in range(r)] for _ in range(rows)]
        right = [[entry() for _ in range(cols)] for _ in range(r)]

    def dot(u, v):
        if d is None:
            return sum(a * b for a, b in zip(u, v))
        terms = [qmul(a, b, d) for a, b in zip(u, v)]
        return sum(t[0] for t in terms), sum(t[1] for t in terms)

    columns = list(zip(*right))
    product = [[dot(row, col) for col in columns] for row in left]
    rng.shuffle(product)
    order = rng.sample(range(cols), cols)
    return [[row[j] for j in order] for row in product]


def packed_rank(monkeypatch, rows, d, rank=None):
    """The hand-over of the rank of rows, which both oracles check; None when
    the mod-p pass found too few pivots to sort and pack."""
    runs = watch_hand_overs(monkeypatch, d)
    got = rank_rows(rows, d)
    assert oracle_ranks(rows, d) == (got, got)
    assert rank in (None, got)
    assert len(runs) <= 1
    return runs[0] if runs else None


@pytest.mark.parametrize("d", [None, 2, 3, 5])
def test_unit_block_products_stay_packed_to_the_end(monkeypatch, list_steps, d):
    rng = random.Random(70)
    spread = 3 if d else 9  # the bench CSVs' entries
    for shape in [(30, 30, 24), (24, 36, 23), (36, 20, 19)]:
        rows = ring_product(rng, shape, spread.bit_length(), d, unit_block=True)
        _, left, rank, _, prevs = packed_rank(monkeypatch, rows, d, shape[2])
        assert left == [] and rank == shape[2] and len(prevs) == rank
    assert list_steps == []


@pytest.mark.parametrize(
    "shape, d", [((150, 150, 120), None), ((80, 50, 49), 3), ((70, 70, 55), 5)]
)
def test_bench_sized_products_never_take_a_list_step(list_steps, shape, d):
    # the shapes of the benchmark's deficient CSVs, entries a little wider
    rng = random.Random(75)
    rows = ring_product(rng, shape, 4 if d is None else 2, d, unit_block=True)
    assert rank_rows(rows, d) == shape[2]
    assert list_steps == []


@pytest.mark.parametrize("d", [None, 2, 3, 5])
def test_a_slot_bound_crossed_mid_elimination_hands_over(monkeypatch, list_steps, d):
    rng = random.Random(71)
    handed = []
    for bits in (3, 4, 6, 10):
        rows = ring_product(rng, (9, 9, 7), bits, d, unit_block=False)
        _, left, rank, _, _ = packed_rank(monkeypatch, rows, d, 7)
        handed.append(rank)
        assert left and 0 < rank < 7
    assert list_steps  # the list loop finished each elimination
    assert len(set(handed)) > 1


@pytest.mark.parametrize("d", [None, 2, 3, 5])
def test_pivots_other_than_units_divide_slot_by_slot(monkeypatch, d):
    rng = random.Random(72)
    rows = ring_product(rng, (12, 12, 10), 1, d, unit_block=False)
    _, _, rank, _, prevs = packed_rank(monkeypatch, rows, d, 10)
    assert rank >= 3
    if d is None:
        assert any(abs(q) > 1 for q in prevs[1:])
    else:
        assert any(q[1] for q in prevs[1:])  # conj(prev) / norm(prev)


@pytest.mark.parametrize("d", [None, 3])
def test_zero_columns_and_vanishing_rows_mid_elimination(monkeypatch, d):
    rng = random.Random(73)
    rows = ring_product(rng, (16, 12, 10), 2, d, unit_block=True)
    zero = 0 if d is None else (0, 0)
    # a copy of column 0, which the sort puts beside it: after the pivot in the
    # first copy the second is zero in every row left; a zero column; a copy
    # of row 0, zero after its twin's pivot (the copies go last, so that the
    # mod-p pass finds its 10 pivots before it meets them)
    rows = [row + [row[0], zero] for row in rows]
    rows.append(rows[0])
    _, left, rank, _, _ = packed_rank(monkeypatch, rows, d, 10)
    assert left == [] and rank == 10


@pytest.mark.parametrize("d", [None, 2])
def test_a_step_that_could_leave_a_slot_is_not_packed(monkeypatch, d):
    # heads +-3 against entries near 2^61: -3*R - 3*P can reach 1.5 * 2^63
    rng = random.Random(74)
    big = 2**61 - 1
    rows = []
    for i in range(6):
        head = (-3, 3)[i % 2]
        rows.append([head] + [big - rng.randrange(2**20) for _ in range(6)])
    rows.append(rows[-1])
    if d is not None:
        rows = [[(a, 0) for a in row] for row in rows]
    _, left, rank, _, _ = packed_rank(monkeypatch, rows, d, 6)
    assert rank == 0 and len(left) == 7


@pytest.mark.parametrize(
    "shape, bits, unit_block",
    [
        ((SMALL_RANK, 5, SMALL_RANK), 8, False),  # no mod-p pass
        ((6, 8, 6), 20, False),  # full rank, certified mod p
        ((30, 30, 24), 2, True),  # packed to the end
        ((9, 9, 7), 6, False),  # packed, then handed over to the list loop
    ],
)
def test_integer_rows_rank_alike_as_pairs_over_z_sqrt3(pass_pivots, shape, bits, unit_block):
    rng = random.Random(77)
    rows = ring_product(rng, shape, bits, None, unit_block)
    runs = []
    for ring_rows, d in ((rows, None), ([[(a, 0) for a in row] for row in rows], 3)):
        with pytest.MonkeyPatch.context() as patch:
            runs.append(packed_rank(patch, ring_rows, d, shape[2]))
    k, rank = min(shape[:2]), shape[2]
    pivots = [found for _, found in pass_pivots]
    if k <= SMALL_RANK:
        assert pivots == [] and runs == [None, None]
    elif rank == k:
        assert pivots == [k, k] and runs == [None, None]
    else:  # more than SMALL_RANK pivots mod p: both sort and pack
        (_, int_left, *_), (_, quad_left, *_) = runs
        assert (int_left == []) == (quad_left == []) == unit_block


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from([None, 2, 3, 5]),
    st.tuples(st.integers(5, 14), st.integers(5, 14)),
    st.integers(1, 10) | st.integers(11, 62),
    st.booleans(),
    st.randoms(use_true_random=False),
)
def test_every_hand_over_is_the_list_loops_state(d, size, bits, unit_block, rng):
    rows, cols = size
    rank = rng.randint(SMALL_RANK + 1, min(rows, cols) - 1)
    matrix = ring_product(rng, (rows, cols, rank), bits, d, unit_block)
    with pytest.MonkeyPatch.context() as patch:
        packed_rank(patch, matrix, d, rank if unit_block else None)
