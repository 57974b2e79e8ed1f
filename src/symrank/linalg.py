"""Exact dense linear algebra: matrices, their rank, and CSV text form.

Matrices are dense and immutable by convention, with entries that are ints,
Fractions, or QuadExt elements over a single discriminant.  Rank is computed
by fraction-free (Bareiss-style) Gaussian elimination after clearing
denominators row by row, so intermediate values stay minors of the original
matrix instead of blowing up as free-form fractions.  Pivots are chosen as
the first nonzero entry in column order, rows scanned top-down, which makes
the elimination deterministic.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

from .errors import FieldMismatchError
from .exactfield import QuadExt, format_scalar, parse_scalar


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

    def is_symmetric(self) -> bool:
        if self.rows != self.cols:
            return False
        return all(
            self.entry(i, j) == self.entry(j, i)
            for i in range(self.rows)
            for j in range(i + 1, self.cols)
        )

    def has_zero_diagonal(self) -> bool:
        return self.rows == self.cols and all(self.entry(i, i) == 0 for i in range(self.rows))

    # -- rank -------------------------------------------------------------

    def rank(self) -> int:
        """Exact rank, independent of row/column order."""
        quad_d = quad_discriminant(self._e)
        rows = [self.row_list(i) for i in range(self.rows)]
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
        """Parse CSV text; a bad cell raises ValueError naming its 1-based row and column."""
        rows = []
        for line in text.splitlines():
            line = line.strip()
            if not line:
                continue
            row = []
            for col, cell in enumerate(line.split(","), 1):
                try:
                    row.append(parse_scalar(cell))
                except ValueError as exc:
                    raise ValueError(f"row {len(rows) + 1}, column {col}: {exc}") from None
            rows.append(row)
        return cls.from_rows(rows)

    def __repr__(self):
        return f"Matrix({self.rows}x{self.cols})"


def quad_discriminant(values) -> int | None:
    """The d of the irrational Q(sqrt(d)) scalars among values; None if all are rational.

    Raises FieldMismatchError when two irrational scalars have different d.
    """
    quad_d = None
    for x in values:
        if isinstance(x, QuadExt) and x.b != 0:
            if quad_d is None:
                quad_d = x.d
            elif x.d != quad_d:
                raise FieldMismatchError(f"matrix mixes sqrt({quad_d}) and sqrt({x.d}) entries")
    return quad_d


def integer_scaled(values) -> list[int]:
    """Rational scalars times the lcm of their denominators (scaling preserves rank).

    QuadExt values must be rational-embedded (b == 0).
    """
    values = [v.a if isinstance(v, QuadExt) else v for v in values]
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
    """Exact rank of a matrix given as integer rows, by fraction-free elimination."""
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

