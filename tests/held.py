"""A ring's graph held whole, for tests that want every row at once."""

from ringsombor.graphs import Graph, row_source


def held_graph(ring, kind) -> tuple[Graph, int]:
    """The ring's total or unit graph as a Graph, read whole from its row
    source, and its unit mask."""
    s = row_source(ring, kind)
    return Graph(s.n, s.rows_of(range(s.n))), s.units
