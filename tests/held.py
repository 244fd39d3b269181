"""Graphs held whole, for tests that want every row at once: a row source
read into a Graph, and the small graphs and helpers that work on held rows;
and the one way a test sets the rows a chunk (force_chunk_rows)."""

from ringsombor import graphs
from ringsombor.graphs import CirculantRows, Graph, row_source
from ringsombor.radicals import RadicalSum
from ringsombor.sombor import degree_pair_counts, sombor_of


def force_chunk_rows(mp, rows: int):
    """Make graphs.row_chunks step by `rows` rows at every order, through
    monkeypatch mp, in place of the rule graphs.chunk_rows states.  The
    step is set, not CHUNK_BITS: a split read holds an offset mask beside
    each row, so no CHUNK_BITS gives a step between n / 2 and n."""
    mp.setattr(graphs, "chunk_rows", lambda n: rows)


def held(source) -> Graph:
    """Every row of a row source, held as a Graph."""
    return Graph(source.n, source.rows_of(range(source.n)))


def held_graph(ring, kind) -> tuple[Graph, int]:
    """The ring's total or unit graph as a Graph, read whole from its row
    source, and its unit mask."""
    s = row_source(ring, kind)
    return held(s), s.units


def circulant_graph(n: int, offsets) -> Graph:
    """Vertex i adjacent to (i +/- s) mod n for each offset s in 1..n//2."""
    if n < 1:
        raise ValueError(f"need at least one vertex, got {n}")
    mask = 0
    for s in offsets:
        if not 1 <= s <= n // 2:
            raise ValueError(f"offset {s} outside 1..{n // 2}")
        mask |= (1 << s) | (1 << (n - s))
    return held(CirculantRows(n, mask))


def complete_graph(n: int) -> Graph:
    """K_n: the circulant of every nonzero offset."""
    if n < 1:
        raise ValueError(f"need at least one vertex, got {n}")
    return held(CirculantRows(n, (1 << n) - 2))


def complement(g: Graph) -> Graph:
    full = (1 << g.n) - 1
    return Graph(g.n, [row ^ full ^ (1 << v) for v, row in enumerate(g.rows)])


def sombor_bruteforce(g) -> RadicalSum:
    """Exact sum over edges of sqrt(d_u^2 + d_v^2), by the oracle."""
    return sombor_of(degree_pair_counts(g))
