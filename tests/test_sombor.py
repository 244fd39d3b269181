import functools
import math
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from held import (
    EditedRows,
    circulant_graph,
    complement,
    complete_graph,
    force_chunk_rows,
    held_graph,
    sombor_bruteforce,
)
from ringsombor.graphs import (
    TOTAL,
    UNIT,
    EdgePartition,
    Graph,
    edge_partition_of,
    row_chunks,
    row_source,
)
from ringsombor.radicals import RadicalSum
from ringsombor.rings import TruncatedPolyRing, ZnRing
from ringsombor.sombor import degree_pair_counts, sombor_of


def naive_sombor(g):
    # reference: literal edge loop, no degree grouping
    total = RadicalSum()
    for u, v in g.edges():
        total = total + RadicalSum.sqrt(g.degrees[u] ** 2 + g.degrees[v] ** 2)
    return total


class TestSomborBruteforce:
    def test_k4(self):
        assert sombor_bruteforce(complete_graph(4)) == RadicalSum.sqrt(2) * 18

    def test_total_z4(self):
        g, _ = held_graph(ZnRing(4), TOTAL)
        assert sombor_bruteforce(g) == RadicalSum.sqrt(2) * 2

    def test_unit_z5(self):
        g, _ = held_graph(ZnRing(5), UNIT)
        assert sombor_bruteforce(g) == RadicalSum({1: 20, 2: 12})

    def test_matches_naive_edge_loop(self):
        for build in (
            lambda: held_graph(ZnRing(45), TOTAL)[0],
            lambda: held_graph(ZnRing(24), UNIT)[0],
            lambda: circulant_graph(11, [1, 3, 5]),
            lambda: complete_graph(7),
        ):
            g = build()
            assert sombor_bruteforce(g) == naive_sombor(g)

    def test_empty_graph(self):
        g, _ = held_graph(ZnRing(2), TOTAL)
        assert sombor_bruteforce(g).is_zero

    def test_additive_over_disjoint_union(self):
        a = complete_graph(4)
        b = circulant_graph(5, [1])
        rows = list(a.rows) + [row << a.n for row in b.rows]
        union = Graph(a.n + b.n, rows)
        union.validate()
        assert sombor_bruteforce(union) == sombor_bruteforce(a) + sombor_bruteforce(b)

    def test_regular_closed_form(self):
        for n, k in ((5, 2), (8, 4), (9, 6), (12, 7)):
            if k % 2 == 0:
                g = circulant_graph(n, range(1, k // 2 + 1))
            else:
                g = circulant_graph(n, [*range(1, (k - 1) // 2 + 1), n // 2])
            assert set(g.degrees) == {k}
            assert sombor_bruteforce(g) == RadicalSum({2: Fraction(n * k * k, 2)})

    def test_perfect_square_radicand_lands_in_rational_part(self):
        # the four (3,4) edges contribute sqrt(25) = 5 each
        g, _ = held_graph(ZnRing(5), UNIT)
        terms = dict(sombor_bruteforce(g).terms())
        assert terms[1] == 20


class TestDegreePairCounts:
    def test_unit_z5_counts(self):
        g, _ = held_graph(ZnRing(5), UNIT)
        assert degree_pair_counts(g) == {((0, 3), (0, 4)): 4, ((0, 3), (0, 3)): 4}

    def test_counts_cover_all_edges(self):
        for n in (9, 15, 45):
            g, _ = held_graph(ZnRing(n), TOTAL)
            assert sum(degree_pair_counts(g).values()) == g.edge_count

    def test_hypot_matches_exact(self):
        # float cross-check of the exact oracle
        for n in (5, 16, 45, 77):
            for kind in (TOTAL, UNIT):
                g, _ = held_graph(ZnRing(n), kind)
                exact = sombor_bruteforce(g).to_float()
                approx = sum(
                    c * math.hypot(a, b) for ((_, a), (_, b)), c in degree_pair_counts(g).items()
                )
                assert abs(approx - exact) <= 1e-9 * max(1.0, abs(exact))


def literal_table(g, units):
    """The pair table and (alpha, beta, gamma) from a literal edge loop."""
    table = {}
    by_units = [0, 0, 0]
    for u, v in g.edges():
        ku, kv = ((units >> u) & 1, g.degrees[u]), ((units >> v) & 1, g.degrees[v])
        key = (min(ku, kv), max(ku, kv))
        table[key] = table.get(key, 0) + 1
        by_units[ku[0] + kv[0]] += 1
    return table, EdgePartition(*by_units)


def check_table(g, units):
    table, partition = literal_table(g, units)
    got = degree_pair_counts(g, units)
    assert got == table
    assert list(got) == sorted(got)  # ascending key pairs
    assert edge_partition_of(got) == partition
    assert sombor_of(got) == naive_sombor(g)


@st.composite
def graphs_with_units(draw):
    """A random simple graph on at most 14 vertices and a random unit mask."""
    n = draw(st.integers(min_value=0, max_value=14))
    rows = [0] * n
    for u in range(n):
        for v in range(u + 1, n):
            if draw(st.booleans()):
                rows[u] |= 1 << v
                rows[v] |= 1 << u
    return Graph(n, rows), draw(st.integers(min_value=0, max_value=(1 << n) - 1))


@st.composite
def wide_graphs_with_units(draw):
    """A random simple graph on 15 to 90 vertices, so that its vertex masks
    span several bytes, and a random unit mask.  Each vertex's neighbours
    above it are drawn as one integer, or the AND of two for a sparser
    graph."""
    n = draw(st.integers(min_value=15, max_value=90))
    sparse = draw(st.booleans())
    rows = [0] * n
    for u in range(n):
        above = draw(st.integers(min_value=0, max_value=(1 << (n - u - 1)) - 1))
        if sparse:
            above &= draw(st.integers(min_value=0, max_value=(1 << (n - u - 1)) - 1))
        rows[u] |= above << (u + 1)
        for v in range(u + 1, n):
            if (above >> (v - u - 1)) & 1:
                rows[v] |= 1 << u
    return Graph(n, rows), draw(st.integers(min_value=0, max_value=(1 << n) - 1))


class ForgetfulRows:
    """A row source over g that answers a second request for the row of a
    vertex in mask with an empty row: what the oracle reads of those rows
    after their first reading is then wrong."""

    def __init__(self, g, mask):
        self.n, self.g, self.mask, self.seen = g.n, g, mask, set()

    def skewed_rows(self, chunk):
        rows = []
        for v in chunk:
            forgotten = v in self.seen and (self.mask >> v) & 1
            rows.append(0 if forgotten else self.g.rows[v])
            self.seen.add(v)
        return rows, 0


class TestPairTable:
    # Sum graphs of rings have at most two (is_unit, degree) keys; only here
    # does a class hold several degrees, or a vertex have none.
    @given(graphs_with_units())
    @settings(max_examples=300, deadline=None)
    def test_table_matches_literal_edge_loop(self, graph_units):
        check_table(*graph_units)

    @given(wide_graphs_with_units())
    @settings(max_examples=150, deadline=None)
    def test_wide_table_matches_literal_edge_loop(self, graph_units):
        check_table(*graph_units)

    # The same comparisons with the rows read in chunks of 1, 3 and 7, so
    # that chunk boundaries fall inside the graphs.
    @pytest.mark.parametrize("chunk_rows", [1, 3, 7])
    @given(graph_units=graphs_with_units())
    @settings(max_examples=100, deadline=None)
    def test_chunked_table_matches_literal_edge_loop(self, chunk_rows, graph_units):
        with pytest.MonkeyPatch.context() as mp:
            force_chunk_rows(mp, chunk_rows)
            check_table(*graph_units)

    @pytest.mark.parametrize("chunk_rows", [1, 3, 7])
    @given(graph_units=wide_graphs_with_units())
    @settings(max_examples=50, deadline=None)
    def test_chunked_wide_table_matches_literal_edge_loop(self, chunk_rows, graph_units):
        with pytest.MonkeyPatch.context() as mp:
            force_chunk_rows(mp, chunk_rows)
            check_table(*graph_units)

    def test_regular_graph_reads_no_row(self, monkeypatch):
        # one key: the rows are read once, for the degrees, and the
        # handshake alone gives its d * n / 2 edges
        g = circulant_graph(12, [1, 2, 6])
        force_chunk_rows(monkeypatch, 5)
        assert set(g.degrees) == {5}
        assert degree_pair_counts(ForgetfulRows(g, (1 << 12) - 1)) == {((0, 5), (0, 5)): 30}

    def test_isolated_vertices(self):
        # K_4 on 0..3, a path 4-5-6, and 7..9 isolated; 2, 5 and 8 are units
        rows = [0b1111 ^ (1 << v) for v in range(4)] + [0b100000, 0b1010000, 0b100000, 0, 0, 0]
        g = Graph(10, rows)
        g.validate()
        units = (1 << 2) | (1 << 5) | (1 << 8)
        check_table(g, units)
        assert ((0, 0), (0, 0)) not in degree_pair_counts(g, units)

    # Z_210 has 48 units and 162 non-units, Z_49 42 and 7, Z_77 60 and 17
    # (Z_49 is local, so its total graph has no unit-non-unit edge)
    @pytest.mark.parametrize("n,smaller_is_units", [(210, True), (49, False), (77, False)])
    @pytest.mark.parametrize("kind", [TOTAL, UNIT], ids=["total_graph", "unit_graph"])
    def test_sum_graph_counts_over_smaller_class(self, n, smaller_is_units, kind, monkeypatch):
        g, units = held_graph(ZnRing(n), kind)
        assert (units.bit_count() < n / 2) == smaller_is_units
        check_table(g, units)
        table = degree_pair_counts(g, units)
        larger = ((1 << n) - 1) ^ units if smaller_is_units else units
        force_chunk_rows(monkeypatch, 16)
        assert degree_pair_counts(ForgetfulRows(g, larger), units) == table

    @pytest.mark.parametrize("chunk_rows", [1, 3, 7])
    @pytest.mark.parametrize("n", [49, 77, 210])
    @pytest.mark.parametrize("kind", [TOTAL, UNIT])
    def test_ring_source_table_equals_held_graph(self, n, kind, chunk_rows, monkeypatch):
        g, units = held_graph(ZnRing(n), kind)
        table = degree_pair_counts(g, units)
        force_chunk_rows(monkeypatch, chunk_rows)
        source = row_source(ZnRing(n), kind)
        assert source.units == units
        assert degree_pair_counts(source, units) == table


class TestRuleTwoOverOffsetChunks:
    # One edge taken out of a side of a ring graph leaves that side with two
    # degrees, so the oracle's first pass, over offset chunks, must send the
    # table to rule 2.
    @pytest.mark.parametrize("chunk_rows", [1, 3, 7])
    @pytest.mark.parametrize("n", [45, 77, 210])
    @pytest.mark.parametrize("kind", [TOTAL, UNIT])
    def test_two_degrees_on_a_side_match_literal_edge_loop(self, n, kind, chunk_rows, monkeypatch):
        g, units = held_graph(ZnRing(n), kind)
        # the last edge whose endpoints are both units or both not
        u, v = [(u, v) for u, v in g.edges() if (units >> u) & 1 == (units >> v) & 1][-1]
        drop = {u: 1 << v, v: 1 << u}
        edited = Graph(n, [row ^ drop.get(x, 0) for x, row in enumerate(g.rows)])
        edited.validate()
        table = literal_table(edited, units)[0]
        assert len({key for pair in table for key in pair}) > 2  # a side shows two degrees
        force_chunk_rows(monkeypatch, chunk_rows)
        source = EditedRows(row_source(ZnRing(n), kind), drop)
        assert source.skewed_rows(row_chunks(n)[0])[1] == 1  # offset chunks
        assert degree_pair_counts(source, units) == table


class CountingRows:
    """A row source that passes every request on to source and counts, per
    vertex, how often its row was asked for."""

    def __init__(self, source):
        self.n, self.source, self.requests = source.n, source, [0] * source.n

    def skewed_rows(self, chunk):
        for v in chunk:
            self.requests[v] += 1
        return self.source.skewed_rows(chunk)


# Z_n with one and two unit-split sides of each size, and F_p[x]/(x^k)
RING_SPECS = [(n,) for n in (2, 4, 45, 49, 77, 210, 1155)] + [(2, 3), (3, 2), (2, 5)]


def ring_of(spec):
    return ZnRing(*spec) if len(spec) == 1 else TruncatedPolyRing(*spec)


@functools.cache
def literal_ring_table(spec, kind):
    g, units = held_graph(ring_of(spec), kind)
    return units, literal_table(g, units)[0]


class TestRingGraphRows:
    # Each side of a ring graph's unit split holds one degree, so the first
    # pass gives the whole table and no row is made a second time.
    @pytest.mark.parametrize("chunk_rows", [1, 3, 7, 2048])
    @pytest.mark.parametrize("kind", [TOTAL, UNIT])
    @pytest.mark.parametrize("spec", RING_SPECS, ids=lambda spec: ring_of(spec).name)
    def test_each_row_is_made_once(self, spec, kind, chunk_rows, monkeypatch):
        units, table = literal_ring_table(spec, kind)
        force_chunk_rows(monkeypatch, chunk_rows)
        source = CountingRows(row_source(ring_of(spec), kind))
        assert degree_pair_counts(source, units) == table
        assert source.requests == [1] * source.n


@st.composite
def circulants_with_units(draw):
    """A circulant graph on 1 to 40 vertices, regular by construction, and
    a random unit mask."""
    n = draw(st.integers(min_value=1, max_value=40))
    offsets = draw(st.sets(st.integers(min_value=1, max_value=n // 2))) if n > 1 else ()
    return circulant_graph(n, offsets), draw(st.integers(min_value=0, max_value=(1 << n) - 1))


class TestRowsRead:
    # Rule 1 (one degree a side) reads each row once; rule 2 reads each
    # row twice, whatever the keys.
    @given(graph_units=circulants_with_units(), chunk_rows=st.sampled_from([1, 3, 7, 2048]))
    @settings(max_examples=200, deadline=None)
    def test_regular_graph_rows_made_once(self, graph_units, chunk_rows):
        g, units = graph_units
        with pytest.MonkeyPatch.context() as mp:
            force_chunk_rows(mp, chunk_rows)
            source = CountingRows(g)
            assert degree_pair_counts(source, units) == literal_table(g, units)[0]
        assert source.requests == [1] * g.n

    @pytest.mark.parametrize("chunk_rows", [1, 3, 2048])
    @pytest.mark.parametrize("units", [0, 0b00011, 0b00100])
    def test_two_degrees_on_a_side_make_each_row_twice(self, units, chunk_rows, monkeypatch):
        # the path 0-1-2-3-4 has degrees 1, 2, 2, 2, 1
        g = Graph(5, [0b10, 0b101, 0b1010, 0b10100, 0b1000])
        g.validate()
        force_chunk_rows(monkeypatch, chunk_rows)
        source = CountingRows(g)
        assert degree_pair_counts(source, units) == literal_table(g, units)[0]
        assert source.requests == [2] * g.n


class CycleWithChordRows:
    """The n-cycle plus the chord 0 - n/2, for even n >= 6, as a row source
    that makes each asked row on demand: vertices 0 and n/2 have degree 3,
    every other vertex degree 2."""

    def __init__(self, n):
        self.n = n

    def skewed_rows(self, chunk):
        n, rows = self.n, []
        for v in chunk:
            row = (1 << ((v + 1) % n)) | (1 << ((v - 1) % n))
            if v % (n // 2) == 0:
                row |= 1 << ((v + n // 2) % n)
            rows.append(row)
        return rows, 0


class TestRuleTwoMemory:
    # Rule 2 keys each row as it reads it, so on an irregular graph the
    # oracle holds a chunk of rows and one vertex mask a key; a key tuple
    # per vertex would take about 1.7 MB at 2^14.
    def test_irregular_graph_peak_below_one_megabyte(self):
        n = 1 << 14
        tracemalloc.start()
        try:
            table = degree_pair_counts(CycleWithChordRows(n))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert table == {((0, 2), (0, 2)): n - 4, ((0, 2), (0, 3)): 4, ((0, 3), (0, 3)): 1}
        assert peak < 1 << 20


class TestComplementSanity:
    def test_identity_fails_for_non_regular(self):
        # path 0-1-2 inside 3 vertices: degrees (1, 2, 1), not regular
        path = Graph(3, [0b010, 0b101, 0b010])
        path.validate()
        so_g = sombor_bruteforce(path).to_float()
        so_gc = sombor_bruteforce(complement(path)).to_float()
        so_k = sombor_bruteforce(complete_graph(3)).to_float()
        assert abs((math.sqrt(so_g) + math.sqrt(so_gc)) ** 2 - so_k) > 1e-6
