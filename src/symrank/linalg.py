"""Exact dense linear algebra: matrices, their rank, and CSV text form.

Matrices are dense and immutable by convention, with entries that are ints,
Fractions, or QuadExt elements over a single discriminant.  A QuadExt is
never rational, so a matrix is over Q(sqrt(d)) exactly when it has a QuadExt
entry.  Rank works on rows with denominators cleared row by row
(`rank_int_rows` over Z, `rank_quad_rows` over Z[sqrt(d)]); a matrix of ints
goes to `rank_int_rows` as it is.  CSV cells that are integers parse to ints.

Over Z, a matrix with k = min(rows, cols) has rank k when its rank modulo
the word-sized prime RANK_PRIME is k: reduction mod p is a ring map, so a
k x k minor that is nonzero mod p is nonzero over Z.  That pass packs each
row into one int and eliminates with one bignum multiply-add per row.  It is
skipped when k times (entry bits + bitlen k) is at most 62, because then
every Bareiss intermediate fits in a machine word anyway, and, without
scanning the entries, when k is at most SMALL_RANK = 3: the scan alone
costs about a third of a 3 x 3 Bareiss on small entries, and at that size
Bareiss is as fast as the pass up to entries of a few hundred bits (wider
ones make such a rank slower, never different; a 3 x 3 of 10^4-bit entries
takes about 2 ms against 70 us).  Every other case, a rank below k mod p
included, goes to fraction-free (Bareiss-style) Gaussian elimination, whose
intermediate values stay minors of the matrix instead of blowing up as
free-form fractions.  So the result never depends on the prime.  Bareiss
pivots are the first nonzero entry in column order, rows scanned top-down,
which makes the elimination deterministic.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain
from math import lcm

from .errors import FieldMismatchError
from .exactfield import QuadExt, format_scalar, parse_scalar

# the word-sized prime of the full-rank certificate in rank_int_rows
RANK_PRIME = 2**31 - 1
# largest min(rows, cols) that rank_int_rows sends straight to Bareiss
SMALL_RANK = 3


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
        """Parse CSV text, each cell with parse_scalar.

        A bad cell raises ValueError naming its 1-based row and column, and a
        row whose length differs from row 1's names the row and both lengths.
        The first cell over a second discriminant is a bad cell, so a mixed
        matrix is rejected before the remaining cells are parsed and factored.
        """
        rows = []
        quad_d = None
        for line in text.splitlines():
            line = line.strip()
            if not line:
                continue
            row = []
            for col, cell in enumerate(line.split(","), 1):
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
    parts = []
    for v in values:
        if isinstance(v, QuadExt):
            parts.append((v.a, v.b))
        else:
            parts.append((Fraction(v), Fraction(0)))
    scale = lcm(*(x.denominator for a, b in parts for x in (a, b)))
    return [
        (a.numerator * (scale // a.denominator), b.numerator * (scale // b.denominator))
        for a, b in parts
    ]


def rank_int_rows(rows: list[list[int]]) -> int:
    """Exact rank of a matrix given as integer rows.

    Let k = min(rows, cols) and let every entry be below 2^b in absolute
    value.  When k > SMALL_RANK and k * (b + bitlen k) > 62, a row-packed
    elimination modulo RANK_PRIME runs first, and a rank of k mod p certifies
    rank k: a k x k minor that is nonzero mod p is nonzero over Z.  (For
    k <= SMALL_RANK, b is never computed.)  Otherwise, and whenever the rank
    mod p is below k, fraction-free (Bareiss) elimination gives the rank.
    The result never depends on the prime; only the time does.
    """
    k = min(len(rows), len(rows[0])) if rows else 0
    if k > SMALL_RANK:
        # Hadamard: every j x j minor of entries below 2^b is below 2^(j(b + log2(j)/2)),
        # so below this size every Bareiss intermediate fits in a machine word
        bits = max(map(int.bit_length, chain.from_iterable(rows)))
        if k * (bits + k.bit_length()) > 62 and _full_rank_mod_p(rows, k):
            return k
    pending = [row for row in rows if any(row)]
    rank = 0
    prev = 1
    while pending:
        piv = None
        for idx, row in enumerate(pending):
            if row[0]:
                piv = idx
                break
        if piv is None:
            # column exhausted; drop it everywhere
            nxt = []
            for row in pending:
                tail = row[1:]
                if any(tail):
                    nxt.append(tail)
            pending = nxt
            continue
        prow = pending.pop(piv)
        p = prow[0]
        ptail = prow[1:]
        rank += 1
        nxt = []
        for row in pending:
            x = row[0]
            if x:
                new = [(p * a - x * b) // prev for a, b in zip(row[1:], ptail)]
            else:
                new = [p * a // prev for a in row[1:]]
            if any(new):
                nxt.append(new)
        pending = nxt
        prev = p
    return rank


def _full_rank_mod_p(rows: list[list[int]], k: int) -> bool:
    """Whether the integer rows have rank k modulo RANK_PRIME.

    Each row is one int of w-bit slots, column 0 in the lowest slot, starting
    in [0, p).  The pivot row is reduced mod p and scaled to head 1; every
    other row becomes (row >> w) + (p - x) * pivot_tail, where x is its head
    mod p, or just row >> w when x is 0.  A row takes at most k - 1 such
    steps, each adding at most (p-1)^2 to a slot, so slots stay non-negative
    and w = bitlen((p-1) + (k-1)(p-1)^2) bits never carry.
    """
    p = RANK_PRIME
    w = ((p - 1) * (1 + (k - 1) * (p - 1))).bit_length()
    mask = (1 << w) - 1
    pending = []
    for row in rows:
        packed = 0
        for v in reversed(row):
            packed = packed << w | v % p
        if packed:
            pending.append(packed)
    rank = 0
    for left in range(len(rows[0]), 0, -1):  # columns left, the head's included
        if rank + min(left, len(pending)) < k:
            return False
        for idx, row in enumerate(pending):
            head = (row & mask) % p  # a slot can be a nonzero multiple of p
            if head:
                break
        else:
            pending = [row >> w for row in pending]
            continue
        rank += 1
        if rank == k:
            return True
        del pending[idx]
        inv = pow(head, -1, p)
        tail = row >> w
        prow = 0
        for shift in range((left - 2) * w, -1, -w):
            prow = prow << w | (tail >> shift & mask) * inv % p
        nxt = []
        for row in pending:
            x = (row & mask) % p
            row = (row >> w) + (p - x) * prow if x else row >> w
            if row:
                nxt.append(row)
        pending = nxt
    return False


def rank_quad_rows(rows: list[list[tuple[int, int]]], d: int) -> int:
    """Exact rank of a matrix given as rows of Z[sqrt(d)] pairs (a, b) = a + b*sqrt(d)."""
    pending = [row for row in rows if any(a or b for a, b in row)]
    rank = 0
    prev = (1, 0)
    while pending:
        piv = None
        for idx, row in enumerate(pending):
            h = row[0]
            if h[0] or h[1]:
                piv = idx
                break
        if piv is None:
            nxt = []
            for row in pending:
                tail = row[1:]
                if any(a or b for a, b in tail):
                    nxt.append(tail)
            pending = nxt
            continue
        prow = pending.pop(piv)
        pa, pb = prow[0]
        ptail = prow[1:]
        rank += 1
        qa, qb = prev
        n = qa * qa - d * qb * qb
        nxt = []
        for row in pending:
            xa, xb = row[0]
            new = []
            for (aa, ab), (ba, bb) in zip(row[1:], ptail):
                # t = pivot*entry - head*pivot_row_entry, then exact division by prev
                ta = pa * aa + d * pb * ab - xa * ba - d * xb * bb
                tb = pa * ab + pb * aa - xa * bb - xb * ba
                na, ra = divmod(ta * qa - d * tb * qb, n)
                nb, rb = divmod(tb * qa - ta * qb, n)
                if ra or rb:
                    raise ArithmeticError("inexact division in fraction-free elimination")
                new.append((na, nb))
            if any(a or b for a, b in new):
                nxt.append(new)
        pending = nxt
        prev = (pa, pb)
    return rank

