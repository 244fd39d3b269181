"""Simple undirected graphs on ring element sets.

Adjacency is one Python-int bitmask per vertex, which keeps the pairwise sum
tests bit-parallel and makes popcount-style edge counting cheap up to the
default vertex ceiling of 2**14.  A ring's graph comes as a row source
(row_source): its unit mask and rows_of(indices), which makes the asked rows
on demand, so the oracle, the structure checks and the edge list writer
read a graph in the chunks of row_chunks and never hold n rows of n bits.
A graph of at most 2048 vertices is one chunk; a larger one takes
CHUNK_BITS // (2n) rows a chunk, since its chunk rows come with an offset
mask each.  A reader takes a chunk through read_chunk, as rows and a skew
s: row j of the chunk holds vertex y at bit y + s * j, and a reader ANDs
it with its masks moved up as far (OffsetMasks), built once a read.  A
Z_n row is D >> x cut to n bits, where D is the target mask doubled; the
rows of a chunk shorter than the graph are one AND each on one window of
D, window & (full << j), so they come with skew 1, and only the rows that
would hold their own vertex get a self-bit mask.  rows_of moves such rows
down (unskewed).  A whole-graph read shifts D itself with no per-row flag
test, which at those sizes costs more than it saves; it tests D's even
bits once and drops the self mask when no row holds its vertex, as in the
unit graph of every even n.  Every other source's rows have skew 0.  An
F_p[x]/(x^k) row is one of p block rows, shared as is by every row of a
block that does not hold itself.  A circulant (CirculantRows) is a
rotation too: row x is its offset mask rotated by x.  A Graph holds every
row, for tests and for perfbench's tracer, and offers the same rows_of, so
anything that reads a row source reads a Graph too.
Edges come in lexicographic order (u < v ascending), from Graph.edges and
in the edge list alike, so the output is reproducible.
"""

from __future__ import annotations

import functools
from collections import namedtuple
from itertools import compress, repeat

from .rings import FiniteRing, TruncatedPolyRing, ZnRing

TOTAL = "total"
UNIT = "unit"

# Largest ring order whose graphs are read by default: a bound on a case's
# time (n rows of n bits a read), not its memory (about one CHUNK_BITS chunk).
DEFAULT_CEILING = 1 << 14

# Row bits read at a time from a row source, offset masks counted: a chunk
# of a split graph holds its rows and a mask beside each row (the Z_n
# window masks, the oracle's and check_structure's lifted masks), so it
# takes CHUNK_BITS // (2n) rows.  2^22 bits are 512 KB, so what
# check_structure holds for two graphs side by side fits a 2 MB per-core
# L2 cache, and every graph of at most 2048 vertices (2048 rows of 2048
# bits, read whole with no offset masks) is still one chunk.
CHUNK_BITS = 1 << 22

_TO_FLAGS = bytes.maketrans(b"01", b"\x00\x01")

# flags.translate(FLIP_FLAGS) flags every vertex that flags does not
FLIP_FLAGS = bytes.maketrans(b"\x00\x01", b"\x01\x00")


class CeilingExceededError(ValueError):
    """The ring is above the ceiling, a bound on the time to read its graphs."""


def _full_mask(n: int) -> int:
    return (1 << n) - 1


def chunk_rows(n: int) -> int:
    """Rows a chunk of an n-vertex graph: all n when n rows of n bits fit in
    CHUNK_BITS, else CHUNK_BITS // (2n) (at least one), since each row of a
    split graph's chunk comes with an n-bit offset mask."""
    if n * n <= CHUNK_BITS:
        return max(n, 1)
    return max(1, CHUNK_BITS // (2 * n))


def row_chunks(n: int) -> list[range]:
    """The vertices 0..n-1 in consecutive ranges of chunk_rows(n) rows."""
    step = chunk_rows(n)
    return [range(s, min(s + step, n)) for s in range(0, n, step)]


def read_chunk(source, indices: range) -> tuple[list[int], int]:
    """The rows of a chunk of row_chunks(source.n) as the source makes them,
    and their skew s, 0 or 1: row j of the chunk holds vertex y at bit
    y + s * j.  A source with skewed_rows (a Z_n source) gives both; any
    other gives its rows_of rows, with skew 0."""
    skewed_rows = getattr(source, "skewed_rows", None)
    if skewed_rows is None:
        return source.rows_of(indices), 0
    return skewed_rows(indices)


def unskewed(rows: list[int], skew: int) -> list[int]:
    """read_chunk's rows moved down by their skew: row j holds vertex y at
    bit y."""
    return [row >> j for j, row in enumerate(rows)] if skew else rows


class OffsetMasks:
    """A vertex mask as each row of a chunk meets it: row j of a chunk read
    with skew s holds vertex y at bit y + s * j, so it is ANDed with
    mask << (s * j).  The moved masks are made at the first skewed chunk,
    the longest, and serve every later one."""

    __slots__ = ("mask", "_lifted")

    def __init__(self, mask: int):
        self.mask, self._lifted = mask, []

    def of(self, size: int, skew: int, picks: bytes | None = None):
        """The masks of the rows of a chunk of size rows read with this
        skew, in row order, or of the rows whose byte in picks is set.  At
        skew 0 every row meets the mask itself, repeated without end."""
        if not skew:
            return repeat(self.mask)
        lifted = self._lifted
        if len(lifted) < size:
            lifted = self._lifted = [self.mask << j for j in range(size)]
        elif len(lifted) > size:
            lifted = lifted[:size]
        return lifted if picks is None else compress(lifted, picks)


@functools.lru_cache(maxsize=1)
def full_lifts(n: int) -> OffsetMasks:
    """The OffsetMasks of the n-bit full mask, made once for an order: the
    Z_n sources of both graphs and check_structure's duality test share
    one set of lifted masks.  The last order's stays cached."""
    return OffsetMasks(_full_mask(n))


def vertex_flags(mask: int, n: int) -> bytes:
    """Byte v is 1 if bit v of mask is set, else 0."""
    return format(mask, f"0{n}b").encode()[::-1].translate(_TO_FLAGS)


class Graph:
    """Immutable simple graph on vertices 0..n-1.

    rows[u] has bit v set iff uv is an edge; no self-loops, symmetric.
    """

    __slots__ = ("n", "rows", "_degrees")

    def __init__(self, n: int, rows):
        if len(rows) != n:
            raise ValueError(f"expected {n} adjacency rows, got {len(rows)}")
        self.n = n
        self.rows = list(rows)
        self._degrees = None

    @property
    def degrees(self) -> tuple[int, ...]:
        if self._degrees is None:
            self._degrees = tuple(map(int.bit_count, self.rows))
        return self._degrees

    def rows_of(self, indices) -> list[int]:
        """The held rows of the given vertices, in the given order."""
        return list(map(self.rows.__getitem__, indices))

    @property
    def edge_count(self) -> int:
        return sum(self.degrees) // 2

    def edges(self):
        """Yield edges (u, v) with u < v, ascending in u then v."""
        for u, row in enumerate(self.rows):
            for v in _neighbours_above(u, row):
                yield (u, v)

    def validate(self):
        """Check simplicity and symmetry; meant for tests."""
        for u in range(self.n):
            if (self.rows[u] >> u) & 1:
                raise AssertionError(f"self-loop at {u}")
            if self.rows[u] >> self.n:
                raise AssertionError(f"row {u} has bits beyond vertex range")
        for u in range(self.n):
            row = self.rows[u]
            v = 0
            while row:
                if row & 1 and not (self.rows[v] >> u) & 1:
                    raise AssertionError(f"asymmetric edge {u}-{v}")
                row >>= 1
                v += 1

    def __eq__(self, other):
        if not isinstance(other, Graph):
            return NotImplemented
        return self.n == other.n and self.rows == other.rows

    __hash__ = None

    def __repr__(self):
        return f"<Graph n={self.n} m={self.edge_count}>"


class EdgePartition(namedtuple("EdgePartition", "alpha beta gamma")):
    """Edge counts by endpoint class: alpha zero-zero, beta zero-unit,
    gamma unit-unit."""

    __slots__ = ()

    def __new__(cls, alpha: int, beta: int, gamma: int):
        self = tuple.__new__(cls, (alpha, beta, gamma))
        if min(alpha, beta, gamma) < 0:
            raise ValueError(f"negative edge count in {self}")
        return self

    @property
    def total(self) -> int:
        return self.alpha + self.beta + self.gamma


class _ZnSumRows:
    # Row x collects every y with (x+y) mod n in the target set T: bit y of
    # row x is bit (x+y) mod n of T.  The doubled mask D = T | (T << n) holds
    # that bit at x+y for every x, y < n, so row x is D >> x cut to n bits,
    # minus the self bit, which is set iff x+x is in T: bit 2x of D, read for
    # every row by one format of D at the first chunk.  A chunk (a step-1
    # range shorter than the graph) first cuts D to one window of its
    # n + len bits, which holds row x = start + j at bits j to j + n - 1, so
    # the row is window & (full << j) with skew 1, one AND and no shift: the
    # masks full << j are made once for the order (full_lifts).  A row
    # that holds its vertex has that bit, start + 2 * j, cleared; a row that
    # does not needs no mask of its own.  A whole-graph read (a range over
    # every row, a list or an iterator) shifts D itself, with skew 0, no
    # flags and no per-row test: on graphs of at most 2048 vertices, always
    # read whole, those cost more than the window saves.  It tests D's even
    # bits once, and when no row holds its vertex (the unit graph of every
    # even n: x + x is never a unit there) it drops the self mask.
    __slots__ = ("n", "units", "_doubled", "_full", "_self_flags")

    def __init__(self, n: int, units: int, target_mask: int):
        self.n, self.units = n, units
        self._doubled = target_mask | (target_mask << n)
        self._full = _full_mask(n)
        self._self_flags = None  # made by the first chunk read

    def rows_of(self, indices) -> list[int]:
        return unskewed(*self.skewed_rows(indices))

    def skewed_rows(self, indices) -> tuple[list[int], int]:
        doubled, full, n = self._doubled, self._full, self.n
        if type(indices) is not range or indices.step != 1 or len(indices) >= n:
            evens = _full_mask(2 * n) // 3  # bit 2x of D is row x's self bit
            if doubled & evens:
                return [(doubled >> x) & (full ^ (1 << x)) for x in indices], 0
            return [(doubled >> x) & full for x in indices], 0
        start, size = indices.start, len(indices)
        # the last row reads bits up to start + n + size - 2 of D
        window = (doubled >> start) & _full_mask(n + size)
        flags = self._self_flags
        if flags is None:
            # byte x is bit 2x of D: every other bit, from the lowest up
            flags = format(doubled, f"0{2 * n}b")[::-2].encode().translate(_TO_FLAGS)
            self._self_flags = flags
        lifts = full_lifts(n).of(size, 1)
        if not flags.count(1, start, indices.stop):
            return list(map(window.__and__, lifts)), 1
        return [
            (window & lift) ^ (1 << (start + 2 * j)) if flags[start + j] else window & lift
            for j, lift in enumerate(lifts)
        ], 1


class CirculantRows:
    """The circulant graph on n vertices whose offset mask S (bit s set iff
    each x is adjacent to x + s mod n) is symmetric and has bit 0 clear, as
    a row source (n and rows_of).  Row x is S rotated up by x: the doubled
    mask D = S | (S << n) holds bit (y - x) mod n of S at n - x + y, so row
    x is D >> (n - x) cut to n bits."""

    __slots__ = ("n", "offsets", "_doubled", "_full")

    def __init__(self, n: int, offsets: int):
        self.n, self.offsets = n, offsets
        self._doubled, self._full = offsets | (offsets << n), _full_mask(n)

    def rows_of(self, indices) -> list[int]:
        doubled, full, n = self._doubled, self._full, self.n
        return [(doubled >> (n - x)) & full for x in indices]

    def complemented(self) -> CirculantRows:
        """The complement graph: the circulant of every other nonzero offset."""
        return CirculantRows(self.n, self._full ^ self.offsets ^ 1)


class _PolySumRows:
    # x+y is a unit iff the constant coefficients do not cancel mod p, and
    # the index blocks of size p^(k-1) group elements by constant coefficient:
    # row x is the row of its block, minus the self bit.  A block row holds
    # either all of its own block or none of it, so a row of a block that
    # does not hold itself is the block row itself, with no new int.
    __slots__ = ("n", "units", "_lead", "_blocks")

    def __init__(self, ring: TruncatedPolyRing, units: int, want_unit: bool):
        p, lead, n = ring.p, ring.lead, ring.order
        self.n, self.units, self._lead = n, units, lead
        full, block = _full_mask(n), _full_mask(lead)
        cancels = [block << ((-c) % p * lead) for c in range(p)]
        block_rows = [full ^ m for m in cancels] if want_unit else cancels
        # (row, whether it holds its own block), by constant coefficient
        self._blocks = [(row, bool((row >> (c * lead)) & 1)) for c, row in enumerate(block_rows)]

    def rows_of(self, indices) -> list[int]:
        lead, blocks = self._lead, self._blocks
        return [
            row ^ (1 << x) if own else row
            for x in indices
            for row, own in (blocks[x // lead],)
        ]


def check_ceiling(order: int, name: str, ceiling: int):
    """Raise CeilingExceededError, naming the ring `name`, if `order` is
    above `ceiling` elements."""
    if order > ceiling:
        raise CeilingExceededError(f"{name} has {order} elements, above the ceiling {ceiling}")


def row_source(ring: FiniteRing, kind: str, *, ceiling: int = DEFAULT_CEILING):
    """The rows of the ring's total or unit graph, made on demand: an object
    with n, units (the ring's unit mask, bit v set iff v is a unit) and
    rows_of(indices), the adjacency rows of the given vertices in the given
    order.  Raises CeilingExceededError above `ceiling` elements."""
    if not isinstance(ring, (ZnRing, TruncatedPolyRing)):
        raise TypeError(f"no graph builder for rings of type {type(ring).__name__}")
    if kind not in (TOTAL, UNIT):
        raise ValueError(f"unknown graph kind {kind!r}")
    check_ceiling(ring.order, ring.name, ceiling)
    n, units = ring.order, ring.unit_mask()
    if isinstance(ring, ZnRing):
        return _ZnSumRows(n, units, units if kind == UNIT else _full_mask(n) ^ units)
    return _PolySumRows(ring, units, kind == UNIT)


def degree_pair(kind: str, order: int, unit_count: int, two_is_unit: bool):
    """Predicted (zero-divisor degree, unit degree) for a sum graph.

    Total graph: everyone has degree order-unit_count-1, except that when 2
    is a unit the units gain one.  Unit graph: everyone has degree
    unit_count, except that when 2 is a unit the units lose one.
    """
    if kind == TOTAL:
        d = order - unit_count - 1
        return (d, d + 1) if two_is_unit else (d, d)
    if kind == UNIT:
        u = unit_count
        return (u, u - 1) if two_is_unit else (u, u)
    raise ValueError(f"unknown graph kind {kind!r}")


def predicted_degrees(ring, kind: str):
    """degree_pair applied to the ring's order, unit count and whether 2 is
    a unit."""
    return degree_pair(kind, ring.order, ring.unit_count, ring.two_is_unit)


def edge_partition_of(table: dict) -> EdgePartition:
    """Count edges by endpoint class, read off a sombor.degree_pair_counts
    table keyed by (is_unit, degree): is_unit_lo + is_unit_hi is 0 for
    alpha, 1 for beta and 2 for gamma."""
    by_units = [0, 0, 0]
    for ((unit_lo, _), (unit_hi, _)), edges in table.items():
        by_units[unit_lo + unit_hi] += edges
    return EdgePartition(*by_units)


def _neighbours_above(u: int, row: int) -> list[int]:
    """The neighbours v > u in vertex u's row, ascending."""
    rest = row >> (u + 1)
    out = []
    while rest:
        low = rest & -rest
        out.append(u + low.bit_length())
        rest ^= low
    return out


def write_edge_list(source, fh):
    """DIMACS-like edge list of a row source (n and rows_of; a Graph is
    one): 'p edge n m' then 'e u v' lines, 1-indexed.  The rows are read
    twice, a chunk at a time, so no more than a chunk is ever held: once to
    count the edges for the header, once to write them."""
    n = source.n
    degree_sum = sum(sum(map(int.bit_count, source.rows_of(chunk))) for chunk in row_chunks(n))
    fh.write(f"p edge {n} {degree_sum // 2}\n")
    for chunk in row_chunks(n):
        for u, row in zip(chunk, source.rows_of(chunk)):
            head = f"e {u + 1} "
            fh.write("".join([f"{head}{v + 1}\n" for v in _neighbours_above(u, row)]))
