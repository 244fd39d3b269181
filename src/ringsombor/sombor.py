"""Brute-force degree-based index evaluation on adjacency rows.

This is the oracle side of every closed-form check: it reads degrees and
edges straight off the adjacency rows and never consults ring theory.
degree_pair_counts is the oracle's only reader of the rows
(check_structure and --dump-graph read them too); it counts edges by the
(is_unit, degree) keys of their endpoints, and both the Sombor value
(sombor_of) and the edge partition (graphs.edge_partition_of) are read off
that one table.  It reads any row source (a ring's graphs.row_source, a
circulant's graphs.CirculantRows, or a held Graph in tests) in the chunks
of graphs.row_chunks (a graph of at most 2048 vertices is one chunk), so
no graph is ever held whole.  A first pass takes each chunk as the
source's one read, skewed_rows, makes it, with its skew: a Z_n chunk
shorter than the graph holds vertex y of its row j at bit y + j, and is
read with the other side's mask moved up by j (graphs.OffsetMasks, made
once a read), so no row is shifted.  That pass reads every row's degree
and, on the smaller side of the unit split, its neighbours on the other
side.  When each side's rows show at most one degree, as they do on every
ring's graphs, the handshake identity gives the whole table from that
pass and no row is made twice; otherwise a second pass keys each row as
it reads it and counts every edge once, from its later endpoint.  Neither
pass keeps per-vertex state but the unit split's flag bytes.  The unit
mask is input data, not a derived fact.
"""

from __future__ import annotations

import math
from itertools import compress

from .graphs import FLIP_FLAGS, OffsetMasks, row_chunks, unskewed, vertex_flags
from .radicals import RadicalSum, radical_normalize

Key = tuple[int, int]  # (is_unit, degree) of one vertex


def degree_pair_counts(source, unit_mask: int = 0) -> dict[tuple[Key, Key], int]:
    """Edge counts keyed by the endpoints' (is_unit, degree) keys (lo, hi),
    lo <= hi, in ascending key order; keys with no edge between them are
    absent.  source is anything with n and skewed_rows(chunk), as
    graphs.row_source states it.

    One pass over the row chunks takes every row's degree and, for the rows
    on the smaller side of the unit split (units or non-units), their
    neighbours on the other side, summed into `across` (row j of a chunk
    with skew s meets the other side's mask moved up by s * j), and keeps
    only each side's set of degrees.  Then one of two rules gives the table:

    1. Each side's rows show at most one degree d.  Its one key then has
       (d * size - across) / 2 edges among itself (the handshake identity),
       and the pair across the split has `across`.
    2. Otherwise every row is read once more, in vertex order and moved
       down to skew 0 (graphs.unskewed), and keyed as it comes: a row of
       key a adds its neighbours in key b's mask of the vertices already
       read to the sorted pair of a and b, for every key b, and then its
       vertex joins a's mask.  Each edge is counted once, from its later
       endpoint."""
    n = source.n
    if not n:
        return {}
    full = (1 << n) - 1
    sides = (full ^ (unit_mask & full), unit_mask & full)  # vertex masks by is_unit
    few = int(2 * sides[1].bit_count() <= n)  # is_unit of the smaller side
    unit_flags = vertex_flags(sides[1], n)
    side_flags = (unit_flags.translate(FLIP_FLAGS), unit_flags)
    few_flags, other = side_flags[few], sides[1 - few]
    seen = (set(), set())  # the degrees each side's rows show
    across = 0  # edges between the two sides
    other_masks = OffsetMasks(other)
    for idx in row_chunks(n):
        rows, skew = source.skewed_rows(idx)
        cut = slice(idx.start, idx.stop)
        for ds, flags in zip(seen, side_flags):
            ds.update(map(int.bit_count, compress(rows, flags[cut])))
        picks = few_flags[cut]
        lifted = other_masks.of(len(idx), skew, picks)
        across += sum([(row & mask).bit_count() for row, mask in zip(compress(rows, picks), lifted)])
        del rows  # before the next chunk's rows are made
    keys = [(is_unit, d) for is_unit, ds in enumerate(seen) for d in sorted(ds)]
    if all(len(ds) <= 1 for ds in seen):  # rule 1
        counts = {(k, k): (k[1] * sides[k[0]].bit_count() - across) // 2 for k in keys}
        if len(keys) == 2:
            counts[keys[0], keys[1]] = across
    else:  # rule 2
        masks = dict.fromkeys(keys, 0)  # the vertices read so far, by key
        counts = {}
        for idx in row_chunks(n):
            flags = side_flags[1][idx.start:idx.stop]
            for v, is_unit, row in zip(idx, flags, unskewed(*source.skewed_rows(idx))):
                a = (is_unit, row.bit_count())
                for b, mask in masks.items():
                    pair = (a, b) if a <= b else (b, a)
                    counts[pair] = counts.get(pair, 0) + (row & mask).bit_count()
                masks[a] |= 1 << v
    return {pair: c for pair, c in sorted(counts.items()) if c}


def sombor_of(table: dict[tuple[Key, Key], int]) -> RadicalSum:
    """Exact sum over edges of sqrt(d_u^2 + d_v^2), read off a
    degree_pair_counts table.  g = gcd(d_u, d_v) leaves the root whole,
    so equal degrees normalize only the radicand 2."""
    terms: dict[int, int] = {}
    for ((_, a), (_, b)), count in table.items():
        g = math.gcd(a, b)  # >= 1: a key with an edge has a positive degree
        c, s = radical_normalize((a // g) ** 2 + (b // g) ** 2)
        terms[s] = terms.get(s, 0) + count * c * g
    return RadicalSum(terms)

