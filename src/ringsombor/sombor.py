"""Brute-force degree-based index evaluation on explicit graphs.

This is the oracle side of every closed-form check: it reads degrees and
edges straight off the adjacency structure and never consults ring theory.
"""

from __future__ import annotations

from fractions import Fraction

from .graphs import Graph
from .radicals import RadicalSum, radical_normalize


def degree_pair_counts(g: Graph) -> dict[tuple[int, int], int]:
    """Edge counts grouped by endpoint degree pair (lo, hi), lo <= hi."""
    masks = g.degree_class_masks()
    degs = g.degrees
    ordered: dict[tuple[int, int], int] = {}
    for v in range(g.n):
        row = g.rows[v]
        dv = degs[v]
        for d, mask in masks.items():
            c = (row & mask).bit_count()
            if c:
                key = (dv, d)
                ordered[key] = ordered.get(key, 0) + c
    counts: dict[tuple[int, int], int] = {}
    for (a, b), c in ordered.items():
        if a < b:
            counts[(a, b)] = c
        elif a == b:
            counts[(a, a)] = c // 2
    return counts


def sombor_bruteforce(g: Graph) -> RadicalSum:
    """Exact sum over edges of sqrt(d_u^2 + d_v^2)."""
    terms: dict[int, Fraction] = {}
    for (a, b), count in degree_pair_counts(g).items():
        c, s = radical_normalize(a * a + b * b)
        terms[s] = terms.get(s, Fraction(0)) + count * c
    return RadicalSum(terms)

