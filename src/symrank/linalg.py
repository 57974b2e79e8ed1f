"""Exact dense linear algebra: matrices, their rank, and CSV text form.

Matrices are dense and immutable by convention, with entries that are ints,
Fractions, or QuadExt elements over a single discriminant.  A QuadExt is
never rational, so a matrix is over Q(sqrt(d)) exactly when it has a QuadExt
entry.  `ring_rows` clears the denominators row by row, into the rows over Z
or over Z[sqrt(d)] that `rank_rows` ranks; rows of ints pass as they are.
`Matrix.from_csv` reads CSV text straight into such rows: integer cells and
cells a+b*sqrt(d) with integer a and b become ints and pairs without a
scalar, and a cell is parsed into a scalar only when its entry is asked for.

One driver, `_rank`, computes the rank over both rings, each an object with
the operations that `_Integers` lists.  A matrix with k = min(rows, cols) has
rank k when its image modulo a prime p has rank k: reduction mod p is a ring
map, so a k x k minor that is nonzero mod p is nonzero over the ring.  Over
Z, p is one of RANK_PRIMES = (2039, 2027), the first two primes = 3 mod 4
below 2^11; over Z[sqrt(d)], a + b*sqrt(d) maps to a + b*s mod p, where p is
the first, or the second, prime = 3 mod 4 counting down from 2039 for which
d is a square mod p and s^2 = d mod p (s = 0 when p divides d), which is
again a ring map.  One pass, `_full_rank_mod_p`, serves both rings: it
stores each row as one int of 32-bit slots, packed from one array of the
whole matrix's residues, and eliminates with one bignum multiply-add per
row.  Since p < 2^11, a slot never carries for k up to SLOT_BOUND = 1035,
which covers every k up to SIZE_CAP.

The driver runs the pass when SMALL_RANK = 3 < k <= SLOT_BOUND and the ring
has a prime.  The first prime's pass counts k, k - 1 or fewer pivots, as the
rank mod p is; k - 1 is how a prime that divides the determinant of a
full-rank matrix almost always shows, so then the second prime's pass runs,
and k pivots from either pass return k.  At k <= 3 Bareiss is as fast as
the pass up to entries of a few hundred bits (wider ones make such a rank
slower, never different; a 3 x 3 of 10^4-bit entries takes about 2 ms
against 70 us).  Every other case, a rank below k mod both primes included,
goes to fraction-free (Bareiss-style) Gaussian elimination, whose
intermediate values stay minors of the matrix instead of blowing up as
free-form fractions.  So the result never depends on the primes.  Bareiss
pivots are the first nonzero entry in column order, rows scanned top-down.
When the passes found more than SMALL_RANK pivots before they failed, the
rows and then the columns are first stable-sorted by the total bit length of
their entries, so that the minors Bareiss builds start from the shortest
ones; the order is a function of the entries, so the elimination stays
deterministic.

On that sorted path the first Bareiss steps run on packed rows
(`_packed_bareiss`): each row, over Z[sqrt(d)] each of its a-parts and
b-parts, is one int of signed 64-bit slots, and a step is a few bignum
operations on the whole row, (head*row - x*pivot_row) >> 64, then an exact
division by the previous pivot.  Bareiss makes that pivot divide every
entry it divides, so the division is exact slot by slot; over Z[sqrt(d)] it
is a product with the conjugate and an exact division by the norm.  Each row
carries a bound on its slots, and a step runs only while the bound shows that
no slot can leave [-2^63, 2^63); a bound is tightened by one add and one
mask when it nears that limit.  When even the tightened bound shows a step
could break a slot, the rows are unpacked and the list loop goes on from
the same rank and previous pivot.  Either way the steps are the same
fraction-free steps in the same order, so the rank does not depend on the
packing.
"""

from __future__ import annotations

import re
import sys
from array import array
from functools import lru_cache
from itertools import chain, islice
from math import lcm

from .errors import FieldMismatchError
from .exactfield import QuadExt, check_discriminant, format_scalar, is_prime, parse_scalar

# largest vertex count, part size, ground set, or CSV row or column count a
# command builds a structure for; memory grows with its square, and at the cap
# the largest run (the matrix report of a 1024 + 1024 bigraph) peaks at about
# 440 MiB
SIZE_CAP = 1024
# the primes of the full-rank certificate over Z, the second run only when the
# first leaves one pivot short: the first two primes = 3 mod 4 below 2^11, so
# that a square root mod p is one pow; the Z[sqrt(d)] primes count down from
# the first
RANK_PRIMES = (2039, 2027)
# largest min(rows, cols) whose elimination mod a prime p <= 2039 stays inside
# 32-bit slots: (p - 1)(1 + (k - 1)(p - 1)) < 2^32; at least SIZE_CAP, so that
# every rank a command asks for can be certified
SLOT_BOUND = (2**32 - RANK_PRIMES[0]) // (RANK_PRIMES[0] - 1) ** 2 + 1
# the array typecode of those unsigned 32-bit slots: C's unsigned int is only
# sure to have 2 bytes, and unsigned long 4
_RESIDUE_CODE = next(code for code in "IL" if array(code).itemsize == 4)
_RESIDUE_SLOT = 2**32 - 1
_SLOT = 2**64 - 1
# a packed Bareiss slot holds a signed 64-bit value, in [-2^PACKED_BITS, 2^PACKED_BITS)
PACKED_BITS = 63
# the bounds a packed row's slots are tested against, smallest first
TIGHT_BITS = (15, 31, 47)
# largest min(rows, cols) that goes straight to Bareiss
SMALL_RANK = 3
# how many primes a Z[sqrt(d)] ring tries for its two roots before leaving its ranks to Bareiss
QUAD_PRIME_TRIES = 32


# a CSV cell that from_csv reads without parse_scalar: an integer a, or
# a+b*sqrt(r) with integers a and b and no inner spaces
_RING_CELL = re.compile(r"([+-]?\d+)(?:([+-]\d+)\*sqrt\((\d+)\))?")


class Matrix:
    """Dense matrix of exact scalars, stored row-major.

    A matrix read by from_csv keeps its lines of text and its ring rows
    instead of scalars: it ranks from the ring rows, and parses its scalars
    from the text only when they are asked for.
    """

    __slots__ = ("rows", "cols", "_e", "_lines", "_ring")

    def __init__(self, rows: int, cols: int, entries):
        self.rows = rows
        self.cols = cols
        self._e = list(entries)
        self._lines = self._ring = None

    def row_list(self, i: int) -> list:
        if self._lines is not None:
            return [parse_scalar(cell) for cell in self._lines[i].split(",")]
        return self._e[i * self.cols : (i + 1) * self.cols]

    def entries(self) -> list:
        if self._lines is not None:
            return [x for i in range(self.rows) for x in self.row_list(i)]
        return list(self._e)

    def __eq__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        return (
            self.rows == other.rows
            and self.cols == other.cols
            and all(a == b for a, b in zip(self.entries(), other.entries()))
        )

    # -- rank -------------------------------------------------------------

    def rank(self) -> int:
        """Exact rank, independent of row/column order."""
        ring = self._ring or ring_rows([self.row_list(i) for i in range(self.rows)])
        return rank_rows(*ring)

    # -- text I/O -----------------------------------------------------------

    def to_csv(self) -> str:
        lines = []
        for i in range(self.rows):
            lines.append(",".join(format_scalar(x) for x in self.row_list(i)))
        return "\n".join(lines) + "\n"

    @classmethod
    def from_csv(cls, text: str) -> "Matrix":
        """Read CSV text straight into the ring rows that rank_rows takes.

        Each cell is read as parse_scalar reads it.  A line without "_" is
        first read with one int() per cell, which accepts exactly the cells
        parse_scalar reads as ints once "_" is ruled out.  On any other line a
        cell of the form a or a+b*sqrt(r), with integers a and b and no inner
        spaces, becomes the pair (a, b), each distinct r checked once by
        check_discriminant; every other cell goes through parse_scalar.  Only
        a cell with b != 0 fixes the matrix's d, so 1+0*sqrt(3) is the
        rational 1 in any matrix.  A row is scaled by the lcm of its
        denominators only when parse_scalar left a Fraction in it.

        A bad cell raises ValueError naming its 1-based row and column, and a
        row whose length differs from row 1's names the row and both lengths.
        The first cell over a second discriminant is a bad cell, so a mixed
        matrix is rejected before the remaining cells are parsed and factored.
        More than SIZE_CAP rows, or a line of more than SIZE_CAP cells, is
        rejected before any cell is parsed.
        """
        lines = [line for line in map(str.strip, text.splitlines()) if line]
        widest = max((line.count(",") + 1 for line in lines), default=0)
        for count, what in ((len(lines), "rows"), (widest, "columns")):
            if count > SIZE_CAP:
                raise ValueError(f"{count} {what} exceed the size limit of {SIZE_CAP}")
        width = lines[0].count(",") + 1 if lines else 0
        rows = []  # rows of ints until a cell fixes d, then of Z[sqrt(d)] pairs
        d = None
        checked = set()
        for i, line in enumerate(lines, 1):
            cells = line.split(",")
            row = None
            if "_" not in line:  # int() reads "1_000"; parse_scalar rejects it
                try:
                    row = list(map(int, cells))
                except ValueError:
                    pass
            known = d
            if row is None:
                row = []  # a_0, b_0, a_1, b_1, ...: the line's pairs, flattened
                fraction = False
                for col, cell in enumerate(cells, 1):
                    try:
                        m = None if "/" in cell else _RING_CELL.fullmatch(cell.strip())
                        if m is None:
                            x = parse_scalar(cell)
                            fraction = True
                            if type(x) is not QuadExt:  # a rational fixes no d
                                row += (x, 0)
                                continue
                            a, b, r = x.a, x.b, x.d
                        else:
                            a, b, r = m.groups()
                            a, b = int(a), int(b or 0)
                            if r is not None:
                                r = int(r)
                                if r not in checked:
                                    check_discriminant(r)
                                    checked.add(r)
                        if b and r != d:
                            if d is not None:
                                raise FieldMismatchError(
                                    f"matrix mixes sqrt({d}) and sqrt({r}) entries"
                                )
                            d = r
                    except ValueError as exc:
                        raise ValueError(f"row {i}, column {col}: {exc}") from None
                    row += (a, b)
                if d is None:  # every b is 0
                    row = _scaled(row[::2]) if fraction else row[::2]
                else:
                    row = _paired(_scaled(row) if fraction else row)
            elif d is not None:
                row = [(a, 0) for a in row]
            if len(cells) != width:
                raise ValueError(f"row {i} has length {len(cells)}, expected {width} as row 1")
            if known is None and d is not None:  # d was fixed on this line
                rows = [[(a, 0) for a in earlier] for earlier in rows]
            rows.append(row)
        matrix = cls.__new__(cls)
        matrix.rows, matrix.cols = len(lines), width
        matrix._e, matrix._lines, matrix._ring = None, lines, (rows, d)
        return matrix

    def __repr__(self):
        return f"Matrix({self.rows}x{self.cols})"


def ring_rows(rows: list[list]) -> tuple[list[list], int | None]:
    """Rows of exact scalars as the arguments of rank_rows: (rows, d).

    Rows of ints come back as they are, with no lcm computed.  Otherwise each
    row is multiplied by the lcm of its own denominators, which preserves
    rank: into ints with d None when every entry is rational, else into
    Z[sqrt(d)] pairs (a, b), d the discriminant of the QuadExt entries.  Two
    discriminants raise FieldMismatchError naming the first two, in entry order.
    """
    if all(type(x) is int for x in chain.from_iterable(rows)):
        return rows, None
    d = None
    for x in chain.from_iterable(rows):
        if type(x) is QuadExt and x.d != d:
            if d is not None:
                raise FieldMismatchError(f"matrix mixes sqrt({d}) and sqrt({x.d}) entries")
            d = x.d
    if d is None:
        return [_scaled(row) for row in rows], None
    pairs = (
        [v for x in row for v in ((x.a, x.b) if type(x) is QuadExt else (x, 0))] for row in rows
    )
    return [_paired(_scaled(row)) for row in pairs], d


def _scaled(row: list) -> list[int]:
    """The rationals of a row times the lcm of their denominators."""
    scale = lcm(*(v.denominator for v in row))
    return [v.numerator * (scale // v.denominator) if scale > 1 else v.numerator for v in row]


def _paired(row: list[int]) -> list[tuple[int, int]]:
    """The pairs (a_0, b_0), (a_1, b_1), ... of a row a_0, b_0, a_1, b_1, ..."""
    return list(zip(row[::2], row[1::2]))


def rank_rows(rows: list[list], d: int | None = None) -> int:
    """Exact rank of integer rows, or for d not None of rows of Z[sqrt(d)] pairs."""
    return _rank(rows, _INTEGERS if d is None else _quad_ring(d))


class _Integers:
    """Z, and the operations _rank, _full_rank_mod_p and _packed_bareiss use of
    a ring, which _QuadIntegers overrides for Z[sqrt(d)].

    `unit` is the ring's 1, the predecessor of the first pivot;
    `residues(rows, which)` returns the entries, row-major, under a ring map
    to the integers mod the ring's first (which = 0) or second (which = 1)
    prime p, as (residues, p), or None when it has no such p;
    `nonzero(entries)` tells whether a sequence of entries has a nonzero one;
    `step(row, head, tail, prev)` is row[1:] after one fraction-free step
    against the pivot row (head, *tail) whose predecessor pivot was prev;
    `split(row)` is the parts of a row, sequences of ints, and `join(parts)`
    the list row they make; and `pivot(prow, h, bound, prev)` is the step
    against the packed pivot row prow with head h: `step(row, x, bits)` is
    the packed row with head x after one fraction-free step, column 0
    dropped, as (row, head, bits), or None when a slot could leave
    [-2^PACKED_BITS, 2^PACKED_BITS) (see _packed_bareiss).
    """

    unit = 1
    nonzero = any

    def residues(self, rows, which):
        p = RANK_PRIMES[which]
        return [v % p for row in rows for v in row], p

    def split(self, row):
        return (row,)

    def join(self, parts):
        return parts[0]

    def step(self, row, head, tail, prev):
        x = row[0]
        if x:
            return [(head * a - x * b) // prev for a, b in zip(row[1:], tail)]
        return [head * a // prev for a in row[1:]]

    def pivot(self, prow, head, bound, prev):
        """A row (R,) with head x becomes ((head*R - x*P) >> 64) // prev.

        Each of head*R and x*P has slots below 2^(bits of the multiplier + the
        row's bound), so their difference has slots below 2^grown, and
        dividing by prev does not make them larger.
        """
        (p,) = prow
        head_bits = head.bit_length()

        def step(row, x, bits):
            grown = max(head_bits + bits, x.bit_length() + bound) + 1
            if grown > PACKED_BITS:
                return None
            new = (head * row[0] - x * p) >> 64
            if prev == -1:
                new = -new
            elif prev != 1:
                new //= prev
            return (new,), _signed(new & _SLOT), grown

        return step

    def bits(self, entries) -> int:
        """The total bit length of a sequence of entries."""
        return sum(map(int.bit_length, chain.from_iterable(self.split(entries))))

    def head(self, packed):
        """The entry in column 0 of a packed row: the lowest slot of each part, joined."""
        return self.join([[_signed(part & _SLOT)] for part in packed])[0]


def _rank(rows, ring: _Integers) -> int:
    """Exact rank of `rows` over `ring`.

    With k = min(rows, cols), the certificate runs when
    SMALL_RANK < k <= SLOT_BOUND and there is a prime: it returns k when the
    image mod the first prime has rank k, or has rank k - 1 and the image
    mod the second prime has rank k; every other case goes to the Bareiss
    loop.  When the passes found more than SMALL_RANK pivots (below that
    the O(rows * cols) sort would cost a rank-1 elimination about 40% more),
    the rows and columns are first sorted by `ring.bits`, and the loop's
    first steps run on packed rows while their entries fit the slots.
    """
    k = min(len(rows), len(rows[0])) if rows else 0
    rank, prev = 0, ring.unit
    if SMALL_RANK < k <= SLOT_BOUND:
        found = _full_rank_mod_p(rows, ring, 0, k - 1)
        # a second pass that falls short counts at most k - 1 = found pivots
        if found == k or found == k - 1 and _full_rank_mod_p(rows, ring, 1, k) == k:
            return k
        if found > SMALL_RANK:
            rows = list(zip(*sorted(zip(*sorted(rows, key=ring.bits)), key=ring.bits)))
            rows, rank, prev = _packed_bareiss(rows, ring)
    nonzero, step = ring.nonzero, ring.step
    pending = [row for row in rows if nonzero(row)]
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


def _packed_bareiss(rows, ring: _Integers):
    """The first steps of the Bareiss loop, on packed rows: (rows left, rank, prev).

    A row is split into the ring's parts (see _Integers), each packed into one
    int of signed 64-bit slots, the int v_0 + v_1*2^64 + v_2*2^128 + ...
    of the part (v_0, v_1, ...), so that one bignum multiply or add acts on
    every slot at once.  Column 0 is in the lowest slot on a little-endian
    machine and in the highest on a big-endian one, which only reverses the
    order in which the columns are eliminated; the rows handed back are in
    the columns' order either way.

    The pivot is the first row whose head is nonzero, as in the list loop,
    so the steps are the list loop's, slot by slot.  A step divides by prev,
    which divides every slot of its dividend (Bareiss 1968), so the int's
    quotient is the slot-wise quotient.  Every packed row carries `bits`,
    with each slot in [-2^bits, 2^bits).  The pivot row's bound, and a row's
    bound when its step could break a slot, are tightened to the first t in
    TIGHT_BITS that holds: adding 2^t to every slot and masking the bits
    above t leaves zero exactly when each slot is in [-2^t, 2^t).  If the
    step still could break a slot, the pending rows are unpacked and handed,
    with the rank and prev so far, to the list loop, which goes on from
    there.  A matrix with an entry outside [-2^PACKED_BITS, 2^PACKED_BITS)
    is not packed at all.
    """
    split, nonzero, head = ring.split, ring.nonzero, ring.head
    cols = len(rows[0])
    ones = (1 << 64 * cols) // _SLOT  # 1 in each of cols slots
    offset = ones << 63
    tests = [(t, ones << t, ones * (_SLOT + 1 - (2 << t))) for t in TIGHT_BITS]
    pending = []
    for row in rows:
        parts = split(row)
        bits = max(max(max(part), -min(part)) for part in parts).bit_length()
        if bits > PACKED_BITS:
            return rows, 0, ring.unit
        packed = tuple(_pack(part, offset) for part in parts)
        if any(packed):
            pending.append((packed, head(packed), bits))
    rank = 0
    prev = ring.unit
    width = cols  # columns left
    while pending:
        for idx, (row, x, _) in enumerate(pending):
            if nonzero((x,)):
                break
        else:
            width -= 1
            shifted = (tuple(part >> 64 for part in row) for row, _, _ in pending)
            pending = [(row, head(row), bits) for row, (_, _, bits) in zip(shifted, pending)]
            continue
        prow, h, bound = pending.pop(idx)
        step = ring.pivot(prow, h, _tight(prow, bound, tests), prev)
        nxt = []
        for row, x, bits in pending:
            new = step(row, x, bits) or step(row, x, _tight(row, bits, tests))
            if new is None:
                pending.insert(idx, (prow, h, bound))
                left = [[_unpack(part, offset, width) for part in row] for row, _, _ in pending]
                return list(map(ring.join, left)), rank, prev
            if any(new[0]):
                nxt.append(new)
        pending = nxt
        rank += 1
        prev = h
        width -= 1
    return [], rank, prev


def _tight(row, bits: int, tests) -> int:
    """The first t < bits in tests that bounds each slot of row, else bits (see _packed_bareiss)."""
    for t, low, high in tests:
        if t >= bits:
            break
        if not any((part + low) & high for part in row):
            return t
    return bits


def _pack(values, offset: int) -> int:
    """The int of signed 64-bit slots holding values, each in [-2^63, 2^63).

    The slots are packed as unsigned and read as one int; flipping each
    slot's top bit (xor offset, which has 2^63 in each of at least
    len(values) slots) maps v mod 2^64 to v + 2^63, and subtracting offset
    leaves v in each slot.
    """
    return (int.from_bytes(array("q", values).tobytes(), sys.byteorder) ^ offset) - offset


def _unpack(packed: int, offset: int, width: int) -> list[int]:
    """The values of the lowest `width` slots of a packed int, _pack undone."""
    unsigned = (packed + offset) ^ offset
    return array("q", unsigned.to_bytes(8 * width, sys.byteorder)).tolist()


def _signed(slot: int) -> int:
    """The signed 64-bit value of a slot read as unsigned."""
    return slot - ((slot >> 63) << 64)


def _full_rank_mod_p(rows, ring: _Integers, which: int, need: int) -> int:
    """The pivots of `rows` found mod the ring's prime number `which` (see
    _Integers.residues), up to k = min(rows, cols); 0 when there is no such
    prime.

    k means the matrix has rank k mod p, so over its ring too.  The pass
    stops as soon as the rows or columns left cannot reach `need` pivots, so
    a count below `need` is a lower bound on the rank, not the rank mod p;
    from `need` up the count is the rank mod p.  A matrix whose entries all
    share the factor p, as 2039 for the first prime over Z, has rank 0 mod p
    and goes to Bareiss like any other that the passes do not certify.

    The residues are packed in one array of 32-bit slots, and each row is
    read from it as one int: column 0 in the lowest slot on a little-endian
    machine, in the highest on a big-endian one, which only reverses the
    order in which the columns are eliminated.  The pivot row is reduced mod
    p and scaled to head 1 by one unpack and one pack; every other row
    becomes (row >> 32) + (p - x) * pivot_tail, where x is its head mod p,
    or just row >> 32 when x is 0.  A row takes at most k - 1 such steps,
    each adding at most (p-1)^2 to a slot, so a slot stays below
    (p-1)(1 + (k-1)(p-1)) < 2^32 and never carries while k <= SLOT_BOUND
    and p <= RANK_PRIMES[0].
    """
    image = ring.residues(rows, which)
    if image is None:
        return 0
    residues, p = image
    cols = len(rows[0])
    k = min(len(rows), cols)
    width = 4 * cols
    packed = array(_RESIDUE_CODE, residues).tobytes()
    pending = []
    for start in range(0, len(packed), width):
        row = int.from_bytes(packed[start : start + width], sys.byteorder)
        if row:
            pending.append(row)
    rank = 0
    for left in range(cols, 0, -1):  # columns left, the head's included
        if rank + min(left, len(pending)) < need:
            return rank
        for idx, row in enumerate(pending):
            head = (row & _RESIDUE_SLOT) % p  # a slot can be a nonzero multiple of p
            if head:
                break
        else:
            pending = [row >> 32 for row in pending]
            continue
        rank += 1
        if rank == k:
            return k
        del pending[idx]
        inv = pow(head, -1, p)
        tail = array(_RESIDUE_CODE, (row >> 32).to_bytes(4 * (left - 1), sys.byteorder))
        prow = array(_RESIDUE_CODE, [v * inv % p for v in tail]).tobytes()
        prow = int.from_bytes(prow, sys.byteorder)
        nxt = []
        for row in pending:
            x = (row & _RESIDUE_SLOT) % p
            row = (row >> 32) + (p - x) * prow if x else row >> 32
            if row:
                nxt.append(row)
        pending = nxt
    return rank


def _primes_3_mod_4():
    """The primes = 3 mod 4 from RANK_PRIMES[0] down (2039 = 3 mod 4)."""
    return filter(is_prime, range(RANK_PRIMES[0], 2, -4))


def _square_roots(d: int):
    """(p, s) with s^2 = d mod p, for each of the first QUAD_PRIME_TRIES primes
    p = 3 mod 4 counting down from RANK_PRIMES[0] for which d is a square mod
    p, in that order; s = 0 when p divides d."""
    for p in islice(_primes_3_mod_4(), QUAD_PRIME_TRIES):
        s = pow(d, (p + 1) // 4, p)  # a square root of d whenever d has one
        if (s * s - d) % p == 0:
            yield p, s


class _QuadIntegers(_Integers):
    """Z[sqrt(d)], whose entries are pairs (a, b) = a + b*sqrt(d) (see _Integers).
    `roots`, found when the ring is built, is the first and the second (p, s)
    of _square_roots(d), fewer when the primes it tries hold fewer."""

    unit = (1, 0)

    def __init__(self, d: int):
        self.d = d
        self.roots = list(islice(_square_roots(d), 2))

    def residues(self, rows, which):
        if which >= len(self.roots):
            return None
        p, s = self.roots[which]
        return [(a + b * s) % p for row in rows for a, b in row], p

    def nonzero(self, pairs):
        return any(map(any, pairs))

    def split(self, row):
        return tuple(zip(*row))

    def join(self, parts):
        return list(zip(*parts))

    def step(self, row, head, tail, prev):
        d = self.d
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

    def pivot(self, prow, h, bound, prev):
        """`step` on packed a-parts and b-parts: t = h*row - x*prow slot by
        slot, then t/prev = t*conj(prev) / norm(prev), a sign when prev = -1."""
        d = self.d
        pa, pb = prow
        ha, hb = h
        qa, qb = prev
        dhb, dqb = d * hb, d * qb
        n = qa * qa - dqb * qb
        head_bits = (abs(ha) + abs(dhb)).bit_length()
        divides = qb != 0 or abs(qa) != 1
        # |t*conj(prev)| < |t| * 2^(bits of |qa| + |d*qb|), and |n| >= 2^(bits of n - 1)
        grows = 1 + divides * ((abs(qa) + abs(dqb)).bit_length() + 1 - n.bit_length())

        def step(row, x, bits):
            xa, xb = x
            dxb = d * xb
            grown = max(head_bits + bits, (abs(xa) + abs(dxb)).bit_length() + bound) + grows
            if grown > PACKED_BITS:
                return None
            ra, rb = row
            ta = (ha * ra + dhb * rb - xa * pa - dxb * pb) >> 64
            tb = (ha * rb + hb * ra - xa * pb - xb * pa) >> 64
            if divides:
                ta, tb = (ta * qa - tb * dqb) // n, (tb * qa - ta * qb) // n
            elif qa == -1:
                ta, tb = -ta, -tb
            return (ta, tb), (_signed(ta & _SLOT), _signed(tb & _SLOT)), grown

        return step


_INTEGERS = _Integers()
# one ring per d, so that a d's roots are searched for once, not once per rank
_quad_ring = lru_cache(maxsize=64)(_QuadIntegers)
