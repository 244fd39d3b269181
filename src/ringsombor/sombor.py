"""Brute-force degree-based index evaluation on adjacency rows.

This is the oracle side of every closed-form check: it reads degrees and
edges straight off the adjacency rows and never consults ring theory.
degree_pair_counts is the oracle's only reader of the rows
(check_structure and --dump-graph read them too); it counts edges by the
(is_unit, degree) keys of their endpoints, and both the Sombor value
(sombor_of) and the edge partition (graphs.edge_partition_of) are read off
that one table.  It reads any row source (a ring's graphs.row_source, or a
held Graph) in chunks of graphs.CHUNK_ROWS rows, so a ring's graph is never
held whole.  A first pass makes every row and reads its degree and, on the
smaller side of the unit split, its neighbours on the other side.  When each
side's rows share one degree, as they do on every ring's sum graph, that
pass gives the whole table and no row is made twice; otherwise the remaining
pairs of distinct keys are counted over the rows of the smaller class in a
second pass.  A key's edges among itself follow from the handshake identity.  The
unit mask is input data, not a derived fact.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, compress

from .graphs import Graph, row_chunks, vertex_flags
from .radicals import RadicalSum, radical_normalize

Key = tuple[int, int]  # (is_unit, degree) of one vertex

_TO_DIGITS = bytes.maketrans(b"\x00\x01", b"01")


def degree_pair_counts(source, unit_mask: int = 0) -> dict[tuple[Key, Key], int]:
    """Edge counts keyed by the endpoints' (is_unit, degree) keys (lo, hi),
    lo <= hi, in ascending key order; keys with no edge between them are
    absent.  source is anything with n and rows_of(indices).

    One pass over the row chunks takes every row's degree and, for each row
    on the smaller side of the unit split (units or non-units), its
    neighbours on the other side.  A side whose rows share one degree is one
    key, whose mask is the side's; only a side with several degrees gets a
    vertex mask per degree.  When the other side is one key, each pair
    across the split is the sum of those first-pass counts over the smaller
    side's key.  Every other pair of distinct keys is counted in a second
    pass, as the bit counts of the larger class's vertex mask ANDed with the
    rows of the smaller class; it starts from the chunk the first pass ended
    on, still held, and makes only the smaller classes' rows of the others.
    A key k of degree d and size s then has (d*s - edges from k to the other
    keys) / 2 edges among itself (the handshake identity)."""
    n = source.n
    if not n:
        return {}
    full = (1 << n) - 1
    sides = (full ^ (unit_mask & full), unit_mask & full)  # vertex masks by is_unit
    few = int(2 * sides[1].bit_count() <= n)  # is_unit of the smaller side
    side_flags = [vertex_flags(side, n) for side in sides]
    few_flags, other = side_flags[few], sides[1 - few]
    degrees: list[int] = []
    across: list[int] = []  # per vertex of the smaller side: its neighbours on the other

    def read(rows, idx):
        degrees.extend(map(int.bit_count, rows))
        mine = compress(rows, few_flags[idx.start:idx.stop])
        across.extend(map(int.bit_count, map(other.__and__, mine)))

    chunks = row_chunks(n)
    for idx in chunks[:-1]:
        read(source.rows_of(idx), idx)
    held = source.rows_of(chunks[-1])  # kept for the second pass
    read(held, chunks[-1])

    classes: dict[Key, int] = {}  # key -> vertex mask
    for is_unit, (side, flags) in enumerate(zip(sides, side_flags)):
        side_degrees = set(compress(degrees, flags))
        if len(side_degrees) == 1:
            classes[is_unit, side_degrees.pop()] = side
            continue
        for d in side_degrees:
            at_d = int(bytes(map(d.__eq__, degrees))[::-1].translate(_TO_DIGITS), 2)
            classes[is_unit, d] = at_d & side
    size = {k: m.bit_count() for k, m in classes.items()}
    ends = {k: k[1] * size[k] for k in classes}  # edge ends at the vertices of k
    counts: dict[tuple[Key, Key], int] = {}
    others = [k for k in classes if k[0] != few]
    if len(others) == 1:  # the pairs across the split, off the first pass
        (o,) = others
        for a in (k for k in classes if k[0] == few):
            mine = across
            if size[a] < len(across):  # one of several degrees on its side
                mine = compress(across, map(a[1].__eq__, compress(degrees, few_flags)))
            counts[min(a, o), max(a, o)] = sum(mine)
    pairs = []  # (key pair, smaller class's vertex flags, larger class's mask)
    needed = 0  # the vertices whose rows the second pass reads
    for a, b in combinations(sorted(classes), 2):
        if (a, b) in counts:
            continue
        small, large = (a, b) if size[a] <= size[b] else (b, a)
        pairs.append(((a, b), vertex_flags(classes[small], n), classes[large]))
        counts[a, b] = 0
        needed |= classes[small]
    if pairs:
        wanted = vertex_flags(needed, n)
        for idx in reversed(chunks):
            want = wanted[idx.start:idx.stop]
            if held is not None:  # the last chunk, then let go
                picked, held = list(compress(held, want)), None
            else:
                picked = source.rows_of(compress(idx, want))
            for pair, flags, large in pairs:
                mine = compress(picked, compress(flags[idx.start:idx.stop], want))
                counts[pair] += sum(map(int.bit_count, map(large.__and__, mine)))
            del picked  # before the next chunk's rows are made
    for (a, b), c in counts.items():
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
