"""Brute-force degree-based index evaluation on explicit graphs.

This is the oracle side of every closed-form check: it reads degrees and
edges straight off the adjacency structure and never consults ring theory.
degree_pair_counts is the one pass over the adjacency rows; it counts edges
by the (is_unit, degree) keys of their endpoints, and both the Sombor value
(sombor_of) and the edge partition (graphs.edge_partition_of) are read off
that one table.  Edges between two keys are counted over the rows of the
smaller class only; a key's edges among itself follow from the handshake
identity, so a graph with one key reads no row at all.  The unit mask is
input data, not a derived fact.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, compress

from .graphs import Graph
from .radicals import RadicalSum, radical_normalize

Key = tuple[int, int]  # (is_unit, degree) of one vertex

_TO_DIGITS = bytes.maketrans(b"\x00\x01", b"01")
_TO_FLAGS = bytes.maketrans(b"01", b"\x00\x01")


def _flags(mask: int, n: int) -> bytes:
    """Byte v is 1 if bit v of mask is set, else 0."""
    return format(mask, f"0{n}b").encode()[::-1].translate(_TO_FLAGS)


def degree_pair_counts(g: Graph, unit_mask: int = 0) -> dict[tuple[Key, Key], int]:
    """Edge counts keyed by the endpoints' (is_unit, degree) keys (lo, hi),
    lo <= hi, in ascending key order; keys with no edge between them are
    absent.

    Each pair of distinct keys is counted once, as the bit counts of the
    larger class's vertex mask ANDed with the rows of the smaller class.  A
    key k of degree d and size s then has (d*s - edges from k to the other
    keys) / 2 edges among itself (the handshake identity)."""
    degrees = g.degrees
    classes: dict[Key, int] = {}  # key -> vertex mask
    for d in set(degrees):
        at_d = int(bytes(map(d.__eq__, degrees))[::-1].translate(_TO_DIGITS), 2)
        for key, mask in (((0, d), at_d & ~unit_mask), ((1, d), at_d & unit_mask)):
            if mask:
                classes[key] = mask
    size = {k: m.bit_count() for k, m in classes.items()}
    ends = {k: k[1] * size[k] for k in classes}  # edge ends at the vertices of k
    counts: dict[tuple[Key, Key], int] = {}
    for a, b in combinations(sorted(classes), 2):
        small, large = (a, b) if size[a] <= size[b] else (b, a)
        rows = compress(g.rows, _flags(classes[small], g.n))
        counts[a, b] = c = sum(map(int.bit_count, map(classes[large].__and__, rows)))
        ends[a] -= c
        ends[b] -= c
    for k, left in ends.items():  # the ends left over pair up within k
        counts[k, k] = left // 2
    return {pair: c for pair, c in sorted(counts.items()) if c}


def sombor_of(table: dict[tuple[Key, Key], int]) -> RadicalSum:
    """Exact sum over edges of sqrt(d_u^2 + d_v^2), read off a
    degree_pair_counts table."""
    terms: dict[int, Fraction] = {}
    for ((_, a), (_, b)), count in table.items():
        c, s = radical_normalize(a * a + b * b)
        terms[s] = terms.get(s, Fraction(0)) + count * c
    return RadicalSum(terms)


def sombor_bruteforce(g: Graph) -> RadicalSum:
    """Exact sum over edges of sqrt(d_u^2 + d_v^2)."""
    return sombor_of(degree_pair_counts(g))
