"""Exact dense linear algebra: matrices, their rank, and CSV text form.

Matrices are dense and immutable by convention, with entries that are ints,
Fractions, or QuadExt elements over a single discriminant.  A QuadExt is
never rational, so a matrix is over Q(sqrt(d)) exactly when it has a QuadExt
entry.  Rank works on rows with denominators cleared row by row
(`rank_int_rows` over Z, `rank_quad_rows` over Z[sqrt(d)]); a matrix of ints
goes to `rank_int_rows` as it is.  CSV cells that are integers parse to ints.

One driver, `_rank`, computes the rank over both rings; each ring gives it
only a residue map mod a prime, a nonzero test, one fraction-free
elimination step and its unit.  A matrix with k = min(rows, cols) has rank
k when its image modulo a prime p has rank k: reduction mod p is a ring map,
so a k x k minor that is nonzero mod p is nonzero over the ring.  Over Z, p
is RANK_PRIME = 2^26 - 5; over Z[sqrt(d)], a + b*sqrt(d) maps to a + b*s mod
p, where p is the first prime = 3 mod 4 counting down from RANK_PRIME for
which d is a square mod p and s^2 = d mod p (s = 0 when p divides d), which
is again a ring map.  One pass, `_full_rank_mod_p`, serves both rings: it
stores each row as one int of 64-bit slots, packed from one array of the
whole matrix's residues, and eliminates with one bignum multiply-add per
row.  Since p < 2^26, a slot never carries for k up to SLOT_BOUND = 4097.

The driver runs the pass when SMALL_RANK = 3 < k <= SLOT_BOUND and the ring
has a prime.  At k <= 3 Bareiss is as fast as the pass up to entries of a
few hundred bits (wider ones make such a rank slower, never different; a
3 x 3 of 10^4-bit entries takes about 2 ms against 70 us).  Every other
case, a rank below k mod p included, goes to fraction-free (Bareiss-style)
Gaussian elimination, whose intermediate values stay minors of the matrix
instead of blowing up as free-form fractions.  So the result never depends
on the prime.  Bareiss pivots are the first nonzero entry in column order,
rows scanned top-down, which makes the elimination deterministic.
"""

from __future__ import annotations

import sys
from array import array
from functools import lru_cache
from itertools import islice
from math import isqrt, lcm

from .errors import FieldMismatchError
from .exactfield import QuadExt, format_scalar, parse_scalar

# the prime of the full-rank certificate over Z, and the first one tried over
# Z[sqrt(d)]; = 3 mod 4, so that a square root mod p is one pow
RANK_PRIME = 2**26 - 5
# largest min(rows, cols) whose elimination mod a prime p <= RANK_PRIME stays
# inside 64-bit slots: (p - 1)(1 + (k - 1)(p - 1)) < 2^64
SLOT_BOUND = (2**64 - RANK_PRIME) // (RANK_PRIME - 1) ** 2 + 1
_SLOT = 2**64 - 1
# largest min(rows, cols) that goes straight to Bareiss
SMALL_RANK = 3
# how many primes _quad_root tries before leaving a Z[sqrt(d)] rank to Bareiss
QUAD_PRIME_TRIES = 32


class Matrix:
    """Dense matrix of exact scalars, stored row-major."""

    __slots__ = ("rows", "cols", "_e")

    def __init__(self, rows: int, cols: int, entries):
        entries = list(entries)
        if len(entries) != rows * cols:
            raise ValueError(f"expected {rows * cols} entries, got {len(entries)}")
        self.rows = rows
        self.cols = cols
        self._e = entries

    @classmethod
    def from_rows(cls, row_lists) -> "Matrix":
        row_lists = [list(r) for r in row_lists]
        if not row_lists:
            return cls(0, 0, [])
        cols = len(row_lists[0])
        if any(len(r) != cols for r in row_lists):
            raise ValueError("ragged rows")
        flat = [x for r in row_lists for x in r]
        return cls(len(row_lists), cols, flat)

    def entry(self, i: int, j: int):
        return self._e[i * self.cols + j]

    def row_list(self, i: int) -> list:
        return self._e[i * self.cols : (i + 1) * self.cols]

    def entries(self) -> list:
        return list(self._e)

    def __eq__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        return (
            self.rows == other.rows
            and self.cols == other.cols
            and all(a == b for a, b in zip(self._e, other._e))
        )

    # -- rank -------------------------------------------------------------

    def rank(self) -> int:
        """Exact rank, independent of row/column order."""
        rows = [self.row_list(i) for i in range(self.rows)]
        if all(type(x) is int for x in self._e):
            return rank_int_rows(rows)
        quad_d = quad_discriminant(self._e)
        if quad_d is None:
            return rank_int_rows([integer_scaled(row) for row in rows])
        return rank_quad_rows([quad_scaled(row) for row in rows], quad_d)

    # -- text I/O -----------------------------------------------------------

    def to_csv(self) -> str:
        lines = []
        for i in range(self.rows):
            lines.append(",".join(format_scalar(x) for x in self.row_list(i)))
        return "\n".join(lines) + "\n"

    @classmethod
    def from_csv(cls, text: str) -> "Matrix":
        """Parse CSV text, each cell as parse_scalar reads it.

        A line without "_" is first read with one int() per cell, which
        accepts exactly the cells parse_scalar reads as ints once "_" is ruled
        out; any other line goes cell by cell through parse_scalar.  A bad
        cell raises ValueError naming its 1-based row and column, and a row
        whose length differs from row 1's names the row and both lengths.
        The first cell over a second discriminant is a bad cell, so a mixed
        matrix is rejected before the remaining cells are parsed and factored.
        """
        rows = []
        quad_d = None
        for line in text.splitlines():
            line = line.strip()
            if not line:
                continue
            cells = line.split(",")
            row = None
            if "_" not in line:  # int() reads "1_000"; parse_scalar rejects it
                try:
                    row = list(map(int, cells))
                except ValueError:
                    pass
            if row is None:
                row = []
                for col, cell in enumerate(cells, 1):
                    try:
                        x = parse_scalar(cell)
                        if type(x) is QuadExt and x.d != quad_d:
                            if quad_d is not None:
                                raise FieldMismatchError(
                                    f"matrix mixes sqrt({quad_d}) and sqrt({x.d}) entries"
                                )
                            quad_d = x.d
                    except ValueError as exc:
                        raise ValueError(f"row {len(rows) + 1}, column {col}: {exc}") from None
                    row.append(x)
            if rows and len(row) != len(rows[0]):
                raise ValueError(
                    f"row {len(rows) + 1} has length {len(row)}, expected {len(rows[0])} as row 1"
                )
            rows.append(row)
        return cls.from_rows(rows)

    def __repr__(self):
        return f"Matrix({self.rows}x{self.cols})"


def quad_discriminant(values) -> int | None:
    """The d of the QuadExt scalars among values; None if all are rational.

    Raises FieldMismatchError when two of them have different d.
    """
    quad_d = None
    for x in values:
        if isinstance(x, QuadExt):
            if quad_d is None:
                quad_d = x.d
            elif x.d != quad_d:
                raise FieldMismatchError(f"matrix mixes sqrt({quad_d}) and sqrt({x.d}) entries")
    return quad_d


def integer_scaled(values) -> list[int]:
    """Rational scalars times the lcm of their denominators (scaling preserves rank)."""
    scale = lcm(*(v.denominator for v in values))
    if scale == 1:
        return [v.numerator for v in values]
    return [v.numerator * (scale // v.denominator) for v in values]


def quad_scaled(values) -> list[tuple[int, int]]:
    """Scalars of Q(sqrt(d)) as Z[sqrt(d)] pairs (a, b), scaled by one common factor."""
    parts = [(v.a, v.b) if type(v) is QuadExt else (v, 0) for v in values]
    scale = lcm(*(x.denominator for pair in parts for x in pair))
    return [
        (a.numerator * (scale // a.denominator), b.numerator * (scale // b.denominator))
        for a, b in parts
    ]


def rank_int_rows(rows: list[list[int]]) -> int:
    """Exact rank of a matrix given as integer rows.

    The residues mod RANK_PRIME = 2^26 - 5 feed the full-rank certificate,
    and fraction-free elimination over Z gives every other rank (see _rank).
    """
    return _rank(rows, _int_residues, any, _int_step, 1)


def _int_residues(rows):
    p = RANK_PRIME
    return [v % p for row in rows for v in row], p


def _int_step(row, head, tail, prev):
    """row[1:] after eliminating row[0] against the pivot row (head, *tail)."""
    x = row[0]
    if x:
        return [(head * a - x * b) // prev for a, b in zip(row[1:], tail)]
    return [head * a // prev for a in row[1:]]


def _rank(rows, residues, nonzero, step, unit) -> int:
    """Exact rank of `rows` over an integral domain, given by four things.

    `residues(rows)` returns the entries, row-major, under a ring map to the
    integers mod a prime p, as (residues, p), or None when it has no such p;
    `nonzero(entries)` tells whether a sequence of entries has a nonzero one;
    `step(row, head, tail, prev)` is row[1:] after one fraction-free step
    against the pivot row (head, *tail) whose predecessor pivot was prev;
    `unit` is the ring's 1, the predecessor of the first pivot.

    With k = min(rows, cols), the certificate runs when
    SMALL_RANK < k <= SLOT_BOUND and there is a p, and returns k when the
    image has rank k; every other case goes to the Bareiss loop.
    """
    k = min(len(rows), len(rows[0])) if rows else 0
    if SMALL_RANK < k <= SLOT_BOUND:
        image = residues(rows)
        if image is not None and _full_rank_mod_p(image[0], len(rows[0]), k, image[1]):
            return k
    pending = [row for row in rows if nonzero(row)]
    rank = 0
    prev = unit
    while pending:
        for idx, row in enumerate(pending):
            if nonzero(row[:1]):
                break
        else:
            pending = [rest for row in pending if nonzero(rest := row[1:])]
            continue
        prow = pending.pop(idx)
        head, tail = prow[0], prow[1:]
        rank += 1
        pending = [new for row in pending if nonzero(new := step(row, head, tail, prev))]
        prev = head
    return rank


def _full_rank_mod_p(residues: list[int], cols: int, k: int, p: int) -> bool:
    """Whether a matrix has rank k = min(rows, cols) modulo the prime p.

    `residues` holds its entries reduced mod p, row-major, `cols` to a row.
    They are packed in one array of 64-bit slots, and each row is read from
    it as one int: column 0 in the lowest slot on a little-endian machine,
    in the highest on a big-endian one, which only reverses the order in
    which the columns are eliminated.  The pivot row is reduced mod p and
    scaled to head 1 by one unpack and one pack; every other row becomes
    (row >> 64) + (p - x) * pivot_tail, where x is its head mod p, or just
    row >> 64 when x is 0.  A row takes at most k - 1 such steps, each adding
    at most (p-1)^2 to a slot, so a slot stays below
    (p-1)(1 + (k-1)(p-1)) < 2^64 and never carries while k <= SLOT_BOUND
    and p <= RANK_PRIME.
    """
    width = 8 * cols
    packed = array("Q", residues).tobytes()
    pending = []
    for start in range(0, len(packed), width):
        row = int.from_bytes(packed[start : start + width], sys.byteorder)
        if row:
            pending.append(row)
    rank = 0
    for left in range(cols, 0, -1):  # columns left, the head's included
        if rank + min(left, len(pending)) < k:
            return False
        for idx, row in enumerate(pending):
            head = (row & _SLOT) % p  # a slot can be a nonzero multiple of p
            if head:
                break
        else:
            pending = [row >> 64 for row in pending]
            continue
        rank += 1
        if rank == k:
            return True
        del pending[idx]
        inv = pow(head, -1, p)
        tail = array("Q", (row >> 64).to_bytes(8 * (left - 1), sys.byteorder))
        prow = int.from_bytes(array("Q", [v * inv % p for v in tail]).tobytes(), sys.byteorder)
        nxt = []
        for row in pending:
            x = (row & _SLOT) % p
            row = (row >> 64) + (p - x) * prow if x else row >> 64
            if row:
                nxt.append(row)
        pending = nxt
    return False


@lru_cache(maxsize=64)
def _quad_root(d: int) -> tuple[int, int] | None:
    """(p, s) with s^2 = d mod p, for the first prime p = 3 mod 4 counting down
    from RANK_PRIME for which d is a square mod p; None when none of the first
    QUAD_PRIME_TRIES such primes has one.  s = 0 when p divides d.
    """
    for p in islice(_primes_3_mod_4(), QUAD_PRIME_TRIES):
        s = pow(d, (p + 1) // 4, p)  # a square root of d whenever d has one
        if (s * s - d) % p == 0:
            return p, s
    return None


def _primes_3_mod_4():
    """The primes = 3 mod 4 from RANK_PRIME down, by trial division."""
    n = RANK_PRIME
    while n > 2:
        if all(n % q for q in range(3, isqrt(n) + 1, 2)):
            yield n
        n -= 4


def rank_quad_rows(rows: list[list[tuple[int, int]]], d: int) -> int:
    """Exact rank of a matrix given as rows of Z[sqrt(d)] pairs (a, b) = a + b*sqrt(d).

    a + b*sqrt(d) maps to (a + b*s) mod p, where (p, s) = _quad_root(d): a
    ring map from Z[sqrt(d)] to the integers mod p, since s^2 = d mod p.  Its
    residues feed the full-rank certificate, and fraction-free elimination
    over Z[sqrt(d)] gives every other rank (see _rank).
    """

    def residues(rows):
        root = _quad_root(d)
        if root is None:
            return None
        p, s = root
        return [(a + b * s) % p for row in rows for a, b in row], p

    def step(row, head, tail, prev):
        pa, pb = head
        xa, xb = row[0]
        qa, qb = prev
        dpb, dxb, dqb = d * pb, d * xb, d * qb
        n = qa * qa - dqb * qb
        new = []
        for (aa, ab), (ba, bb) in zip(row[1:], tail):
            # t = pivot*entry - head*pivot_row_entry, then exact division by prev
            ta = pa * aa + dpb * ab - xa * ba - dxb * bb
            tb = pa * ab + pb * aa - xa * bb - xb * ba
            na, ra = divmod(ta * qa - tb * dqb, n)
            nb, rb = divmod(tb * qa - ta * qb, n)
            if ra or rb:
                raise ArithmeticError("inexact division in fraction-free elimination")
            new.append((na, nb))
        return new

    return _rank(rows, residues, lambda pairs: any(map(any, pairs)), step, (1, 0))
