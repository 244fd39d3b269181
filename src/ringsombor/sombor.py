"""Brute-force degree-based index evaluation on adjacency rows.

This is the oracle side of every closed-form check: it reads degrees and
edges straight off the adjacency rows and never consults ring theory.
degree_pair_counts is the oracle's only reader of the rows
(check_structure and --dump-graph read them too); it counts edges by the
(is_unit, degree) keys of their endpoints, and both the Sombor value
(sombor_of) and the edge partition (graphs.edge_partition_of) are read off
that one table.  It reads any row source (a ring's graphs.row_source, a
circulant's graphs.CirculantRows, or a held Graph in tests) in the chunks
of graphs.row_chunks, about graphs.CHUNK_BITS bits of rows each (a graph
of at most 2048 vertices is one chunk), so no graph is ever held whole.
A first pass makes every row and reads its degree and, on the smaller side
of the unit split, its neighbours on the other side.  When each side's rows
show at most one degree, as they do on every ring's graphs, the handshake
identity gives the whole table from that pass and no row is made twice;
otherwise a second pass recounts every edge by key.  The unit mask is
input data, not a derived fact.
"""

from __future__ import annotations

import math
from itertools import compress

from .graphs import row_chunks, vertex_flags
from .radicals import RadicalSum, radical_normalize

Key = tuple[int, int]  # (is_unit, degree) of one vertex


def degree_pair_counts(source, unit_mask: int = 0) -> dict[tuple[Key, Key], int]:
    """Edge counts keyed by the endpoints' (is_unit, degree) keys (lo, hi),
    lo <= hi, in ascending key order; keys with no edge between them are
    absent.  source is anything with n and rows_of(indices).

    One pass over the row chunks takes every row's degree and, for the rows
    on the smaller side of the unit split (units or non-units), their
    neighbours on the other side, summed into `across`.  It keeps each
    side's set of degrees, and each row's degree only from the first chunk
    where a side shows two (the rows before it take their side's one
    degree), so a ring's graph keeps nothing per vertex.  Then one of two
    rules gives the table:

    1. Each side's rows show at most one degree d.  Its one key then has
       (d * size - across) / 2 edges among itself (the handshake identity),
       and the pair across the split has `across`.
    2. Otherwise every row is read once more and each edge counted by key:
       a row of key a adds its neighbours in key b's vertex mask to (a, b)
       for every b >= a, which counts each edge within a key twice."""
    n = source.n
    if not n:
        return {}
    full = (1 << n) - 1
    sides = (full ^ (unit_mask & full), unit_mask & full)  # vertex masks by is_unit
    few = int(2 * sides[1].bit_count() <= n)  # is_unit of the smaller side
    side_flags = [vertex_flags(side, n) for side in sides]
    few_flags, other = side_flags[few], sides[1 - few]
    seen = (set(), set())  # the degrees each side's rows show
    degrees = None  # every row's degree, for rule 2
    across = 0  # edges between the two sides
    for idx in row_chunks(n):
        rows = source.rows_of(idx)
        chunk = list(map(int.bit_count, rows))
        if degrees is None:
            one = [min(ds, default=0) for ds in seen]  # each side's degree so far
        for ds, flags in zip(seen, side_flags):
            ds.update(compress(chunk, flags[idx.start:idx.stop]))
        if degrees is None and max(map(len, seen)) > 1:
            degrees = [one[is_unit] for is_unit in side_flags[1][:idx.start]]
        if degrees is not None:
            degrees += chunk
        mine = compress(rows, few_flags[idx.start:idx.stop])
        across += sum(map(int.bit_count, map(other.__and__, mine)))
        del rows, mine  # before the next chunk's rows are made
    side_degrees = [sorted(ds) for ds in seen]
    keys = [(is_unit, d) for is_unit, ds in enumerate(side_degrees) for d in ds]
    if all(len(ds) <= 1 for ds in side_degrees):  # rule 1
        counts = {(k, k): (k[1] * sides[k[0]].bit_count() - across) // 2 for k in keys}
        if len(keys) == 2:
            counts[keys[0], keys[1]] = across
    else:  # rule 2
        key_of = list(zip(side_flags[1], degrees))
        masks = dict.fromkeys(keys, 0)
        for v, k in enumerate(key_of):
            masks[k] |= 1 << v
        counts = {}
        for idx in row_chunks(n):
            for a, row in zip(key_of[idx.start:idx.stop], source.rows_of(idx)):
                for b, mask in masks.items():
                    if a <= b:
                        counts[a, b] = counts.get((a, b), 0) + (row & mask).bit_count()
        for k in keys:
            counts[k, k] //= 2
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

