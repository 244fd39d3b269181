"""Brute-force degree-based index evaluation on explicit graphs.

This is the oracle side of every closed-form check: it reads degrees and
edges straight off the adjacency structure and never consults ring theory.
degree_pair_counts is the one pass over the adjacency rows; it counts edges
by the (is_unit, degree) keys of their endpoints, and both the Sombor value
(sombor_of) and the edge partition (graphs.edge_partition_of) are read off
that one table.  The unit mask is input data, not a derived fact.
"""

from __future__ import annotations

from fractions import Fraction
from functools import reduce
from operator import or_

from .graphs import Graph
from .radicals import RadicalSum, radical_normalize

Key = tuple[int, int]  # (is_unit, degree) of one vertex


def degree_pair_counts(g: Graph, unit_mask: int = 0) -> dict[tuple[Key, Key], int]:
    """Edge counts keyed by the endpoints' (is_unit, degree) keys (lo, hi),
    lo <= hi; keys with no edge between them are absent."""
    is_unit = map(int, format(unit_mask, f"0{g.n}b")[::-1])  # bit v at index v
    verts: dict[Key, list[int]] = {}
    for v, key in enumerate(zip(is_unit, g.degrees)):
        verts.setdefault(key, []).append(v)
    keys = sorted(verts)
    masks = {k: reduce(or_, map((1).__lshift__, verts[k])) for k in keys}
    counts: dict[tuple[Key, Key], int] = {}
    for i, a in enumerate(keys):
        rows_a = list(map(g.rows.__getitem__, verts[a]))
        for b in keys[i:]:
            c = sum(map(int.bit_count, map(masks[b].__and__, rows_a)))
            if a == b:
                c //= 2
            if c:
                counts[(a, b)] = c
    return counts


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
