"""Simple undirected graphs on ring element sets.

Adjacency is stored as one Python-int bitmask per vertex, which keeps the
pairwise sum tests bit-parallel and makes popcount-style edge counting cheap
up to the default vertex ceiling of 2**14.  Edge iteration order is
lexicographic (u < v ascending), and report writers rely on that for
reproducible output.
"""

from __future__ import annotations

from dataclasses import dataclass

from .rings import FiniteRing, TruncatedPolyRing, ZnRing

TOTAL = "total"
UNIT = "unit"

# Largest ring order whose graphs are built explicitly (n rows of n bits).
DEFAULT_CEILING = 1 << 14


class CeilingExceededError(ValueError):
    """The ring is too large for explicit graph construction."""


def _full_mask(n: int) -> int:
    return (1 << n) - 1


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
            self._degrees = tuple(row.bit_count() for row in self.rows)
        return self._degrees

    @property
    def edge_count(self) -> int:
        return sum(self.degrees) // 2

    def edges(self):
        """Yield edges (u, v) with u < v, ascending in u then v."""
        for u in range(self.n):
            rest = self.rows[u] >> (u + 1)
            base = u + 1
            while rest:
                low = rest & -rest
                yield (u, base + low.bit_length() - 1)
                rest ^= low

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


@dataclass(frozen=True)
class EdgePartition:
    """Edge counts by endpoint class: alpha zero-zero, beta zero-unit,
    gamma unit-unit."""

    alpha: int
    beta: int
    gamma: int

    def __post_init__(self):
        if min(self.alpha, self.beta, self.gamma) < 0:
            raise ValueError(f"negative edge count in {self}")

    @property
    def total(self) -> int:
        return self.alpha + self.beta + self.gamma


def _zn_sum_rows(n: int, target_mask: int) -> list[int]:
    # Row x collects every y with (x+y) mod n in the target set T: bit y of
    # row x is bit (x+y) mod n of T.  The doubled mask D = T | (T << n) holds
    # that bit at x+y for every x, y < n, so row x is D >> x cut to n bits,
    # minus the self bit.
    doubled = target_mask | (target_mask << n)
    full = _full_mask(n)
    return [(doubled >> x) & (full ^ (1 << x)) for x in range(n)]


def _poly_sum_rows(ring: TruncatedPolyRing, want_unit: bool) -> list[int]:
    # x+y is a unit iff the constant coefficients do not cancel mod p, and
    # the index blocks of size p^(k-1) group elements by constant coefficient.
    p, lead, n = ring.p, ring.lead, ring.order
    full = _full_mask(n)
    block = _full_mask(lead)
    rows = []
    for x in range(n):
        cancel = block << ((-(x // lead)) % p * lead)
        row = (full ^ cancel) if want_unit else cancel
        rows.append(row & ~(1 << x))
    return rows


def check_ceiling(ring: FiniteRing, ceiling: int):
    """Raise CeilingExceededError if the ring has more than `ceiling` elements."""
    if ring.order > ceiling:
        raise CeilingExceededError(
            f"{ring.name} has {ring.order} elements, above the ceiling {ceiling}"
        )


def _sum_graph(ring: FiniteRing, want_unit: bool, ceiling: int) -> tuple[Graph, int]:
    if not isinstance(ring, (ZnRing, TruncatedPolyRing)):
        raise TypeError(f"no graph builder for rings of type {type(ring).__name__}")
    check_ceiling(ring, ceiling)
    n = ring.order
    units = ring.unit_mask()
    if isinstance(ring, ZnRing):
        target = units if want_unit else _full_mask(n) ^ units
        rows = _zn_sum_rows(n, target)
    else:
        rows = _poly_sum_rows(ring, want_unit)
    return Graph(n, rows), units


def total_graph(ring: FiniteRing, *, ceiling: int = DEFAULT_CEILING) -> tuple[Graph, int]:
    """Graph on the ring elements with x ~ y iff x + y is a zero-divisor
    (0 included), and the ring's unit mask (bit v set iff v is a unit).
    Raises CeilingExceededError above `ceiling` elements."""
    return _sum_graph(ring, False, ceiling)


def unit_graph(ring: FiniteRing, *, ceiling: int = DEFAULT_CEILING) -> tuple[Graph, int]:
    """Graph on the ring elements with x ~ y iff x + y is a unit, and the
    ring's unit mask.  Raises CeilingExceededError above `ceiling` elements."""
    return _sum_graph(ring, True, ceiling)


def complement(g: Graph) -> Graph:
    full = _full_mask(g.n)
    return Graph(g.n, [row ^ full ^ (1 << v) for v, row in enumerate(g.rows)])


def complete_graph(n: int) -> Graph:
    if n < 1:
        raise ValueError(f"need at least one vertex, got {n}")
    full = _full_mask(n)
    return Graph(n, [full ^ (1 << v) for v in range(n)])


def circulant_graph(n: int, offsets) -> Graph:
    """Vertex i adjacent to (i +/- s) mod n for each offset s in 1..n//2."""
    if n < 1:
        raise ValueError(f"need at least one vertex, got {n}")
    offs = sorted(set(offsets))
    base = 0
    for s in offs:
        if not 1 <= s <= n // 2:
            raise ValueError(f"offset {s} outside 1..{n // 2}")
        base |= (1 << s) | (1 << (n - s) % n)
    rows = []
    full = _full_mask(n)
    for i in range(n):
        if i == 0:
            rows.append(base)
        else:
            rows.append(((base << i) | (base >> (n - i))) & full)
    return Graph(n, rows)


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


def predicted_degrees(ring_or_spec, kind: str):
    """degree_pair applied to anything carrying order/unit_count/two_is_unit."""
    r = ring_or_spec
    return degree_pair(kind, r.order, r.unit_count, r.two_is_unit)


def edge_partition_of(table: dict) -> EdgePartition:
    """Count edges by endpoint class, read off a sombor.degree_pair_counts
    table keyed by (is_unit, degree): is_unit_lo + is_unit_hi is 0 for
    alpha, 1 for beta and 2 for gamma."""
    by_units = [0, 0, 0]
    for ((unit_lo, _), (unit_hi, _)), edges in table.items():
        by_units[unit_lo + unit_hi] += edges
    return EdgePartition(*by_units)


def write_edge_list(g: Graph, fh):
    """DIMACS-like edge list: 'p edge n m' then 'e u v' lines, 1-indexed."""
    fh.write(f"p edge {g.n} {g.edge_count}\n")
    for u, v in g.edges():
        fh.write(f"e {u + 1} {v + 1}\n")
