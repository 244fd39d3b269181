import functools
import io
import math

import pytest

import definitional
from held import circulant_graph, complement, complete_graph, force_chunk_rows, held, held_graph
from ringsombor import graphs
from ringsombor.graphs import (
    TOTAL,
    UNIT,
    EdgePartition,
    CirculantRows,
    Graph,
    chunk_rows,
    degree_pair,
    edge_partition_of,
    predicted_degrees,
    read_chunk,
    row_chunks,
    row_source,
    write_edge_list,
)
from ringsombor.rings import FiniteRing, TruncatedPolyRing, ZnRing, euler_phi
from ringsombor.sombor import degree_pair_counts
from ringsombor.verify import check_structure


class OtherRing(FiniteRing):
    # a ring kind with no row builder; records every ring method a builder calls
    order = 4
    name = "other_4"

    def __init__(self):
        self.calls = []

    def unit_mask(self):
        self.calls.append("unit_mask")
        return 0b1010


def assert_matches_definition(ring, witness):
    # both graphs against the witness's pair loop over its own tables
    for want_unit, kind in ((False, TOTAL), (True, UNIT)):
        g, units = held_graph(ring, kind)
        g.validate()
        assert g == witness.graph(want_unit)
        assert units == witness.unit_mask


class TestBuilders:
    def test_total_z2_has_no_edges(self):
        g, _ = held_graph(ZnRing(2), TOTAL)
        assert g.edge_count == 0

    def test_total_z4(self):
        g, _ = held_graph(ZnRing(4), TOTAL)
        assert sorted(g.edges()) == [(0, 2), (1, 3)]
        assert g.degrees == (1, 1, 1, 1)

    def test_total_z9(self):
        g, units = held_graph(ZnRing(9), TOTAL)
        zset = [v for v in range(9) if not (units >> v) & 1]
        assert zset == [0, 3, 6]
        for u in zset:
            for v in zset:
                if u != v:
                    assert (g.rows[u] >> v) & 1
        for v in range(9):
            if (units >> v) & 1:
                assert g.degrees[v] == 3

    def test_unit_z2_single_edge(self):
        g, _ = held_graph(ZnRing(2), UNIT)
        assert list(g.edges()) == [(0, 1)]

    def test_unit_z5(self):
        g, _ = held_graph(ZnRing(5), UNIT)
        assert g.edge_count == 8
        assert g.degrees[0] == 4
        assert all(g.degrees[v] == 3 for v in range(1, 5))

    def test_unit_z4_is_four_cycle(self):
        g, _ = held_graph(ZnRing(4), UNIT)
        assert sorted(g.edges()) == [(0, 1), (0, 3), (1, 2), (2, 3)]

    # 63..65, 127..129 and 256 straddle 64- and 128-bit boundaries, where
    # the doubled mask shifted by x is cut to n bits
    @pytest.mark.parametrize(
        "n", [2, 3, 4, 9, 12, 15, 16, 25, 45, 60, 63, 64, 65, 127, 128, 129, 256]
    )
    def test_zn_matches_naive(self, n):
        assert_matches_definition(ZnRing(n), definitional.zn(n))

    @pytest.mark.parametrize("p,k", [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (5, 1), (5, 2), (7, 1)])
    def test_poly_matches_naive(self, p, k):
        # the witness lists coefficient tuples constant term first, the
        # package's indexing of F_p[x]/(x^k)
        witness = definitional.truncated(definitional.zn(p), k)
        assert_matches_definition(TruncatedPolyRing(p, k), witness)

    @pytest.mark.parametrize("kind", [TOTAL, UNIT], ids=["total_graph", "unit_graph"])
    def test_other_ring_kind_rejected(self, kind):
        ring = OtherRing()
        with pytest.raises(TypeError, match="OtherRing"):
            row_source(ring, kind)
        assert ring.calls == []

    @pytest.mark.parametrize("ring", [ZnRing(45), ZnRing(64), TruncatedPolyRing(3, 2)])
    @pytest.mark.parametrize("kind", [TOTAL, UNIT], ids=["total_graph", "unit_graph"])
    def test_row_source_makes_the_held_rows(self, ring, kind):
        # rows come in the order asked, from a list or a one-shot iterator
        g, units = held_graph(ring, kind)
        source = row_source(ring, kind)
        assert (source.n, source.units) == (ring.order, units)
        picks = [ring.order - 1, 0, 7, 7, 3]
        assert source.rows_of(picks) == g.rows_of(picks) == [g.rows[v] for v in picks]
        assert source.rows_of(iter(range(ring.order))) == g.rows

    def test_row_source_rejects_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown graph kind"):
            row_source(ZnRing(5), "sum")

    def test_classes_match_ring(self):
        ring = ZnRing(45)
        _, units = held_graph(ring, TOTAL)
        assert units.bit_count() == euler_phi(45)
        assert units == ring.unit_mask()


class TestComplement:
    def test_complete_complement_is_empty(self):
        g = complement(complete_graph(6))
        assert g.edge_count == 0

    def test_c5_self_complementary(self):
        c5 = circulant_graph(5, [1])
        assert complement(c5).degrees == c5.degrees
        assert complement(complement(c5)) == c5

    def test_unit_total_duality(self):
        for n in range(2, 80):
            ring = ZnRing(n)
            tg, _ = held_graph(ring, TOTAL)
            ug, _ = held_graph(ring, UNIT)
            assert complement(tg) == ug

    def test_degrees_flip(self):
        g, _ = held_graph(ZnRing(15), TOTAL)
        gc = complement(g)
        assert all(a + b == 14 for a, b in zip(g.degrees, gc.degrees))


class TestGenerators:
    def test_complete_graph(self):
        assert complete_graph(1).edge_count == 0
        g = complete_graph(4)
        assert g.edge_count == 6
        assert set(g.degrees) == {3}
        assert complete_graph(5).edge_count == 10

    def test_complete_rejects_zero(self):
        with pytest.raises(ValueError):
            complete_graph(0)

    def test_circulant_c5(self):
        g = circulant_graph(5, [1])
        assert set(g.degrees) == {2}
        assert g.edge_count == 5

    def test_circulant_half_offset(self):
        g = circulant_graph(6, [1, 3])
        g.validate()
        assert set(g.degrees) == {3}

    def test_circulant_8_12(self):
        g = circulant_graph(8, [1, 2])
        assert set(g.degrees) == {4}
        assert g.edge_count == 16

    def test_circulant_rejects_bad_offsets(self):
        with pytest.raises(ValueError):
            circulant_graph(6, [0])
        with pytest.raises(ValueError):
            circulant_graph(6, [4])

    def test_circulant_empty_offsets(self):
        assert circulant_graph(5, []).edge_count == 0


def offset_masks(n):
    """The offset mask of every circulant on n vertices: each subset S of
    1..n//2, made symmetric by setting n - s beside every s in S."""
    for picks in range(1 << (n // 2)):
        mask = 0
        for s in range(1, n // 2 + 1):
            if (picks >> (s - 1)) & 1:
                mask |= (1 << s) | (1 << (n - s))
        yield mask


class TestCirculantRows:
    @pytest.mark.parametrize("n", range(1, 11))
    def test_rows_match_definition(self, n):
        # bit j of row x is set iff (j - x) mod n is an offset
        for offsets in offset_masks(n):
            source = CirculantRows(n, offsets)
            rows = source.rows_of(range(n))
            for x, row in enumerate(rows):
                assert row == sum(1 << j for j in range(n) if (offsets >> ((j - x) % n)) & 1)
            assert source.rows_of(reversed(range(n))) == rows[::-1]
            held(source).validate()

    @pytest.mark.parametrize("n", range(1, 11))
    def test_complement_rows(self, n):
        full = (1 << n) - 1
        for offsets in offset_masks(n):
            source = CirculantRows(n, offsets)
            rows = source.rows_of(range(n))
            want = [row ^ full ^ (1 << x) for x, row in enumerate(rows)]
            assert source.complemented().rows_of(range(n)) == want


class TestDegreePredictions:
    def test_examples(self):
        assert predicted_degrees(ZnRing(15), TOTAL) == (6, 7)
        assert predicted_degrees(ZnRing(8), UNIT) == (4, 4)
        assert predicted_degrees(ZnRing(9), UNIT) == (6, 5)

    def test_degree_pair_raw(self):
        assert degree_pair(TOTAL, 8, 4, False) == (3, 3)
        with pytest.raises(ValueError):
            degree_pair("loops", 8, 4, False)

    @pytest.mark.parametrize("n", range(2, 101))
    def test_predictions_hold_on_zn(self, n):
        ring = ZnRing(n)
        for kind in (TOTAL, UNIT):
            g, units = held_graph(ring, kind)
            d_zero, d_unit = predicted_degrees(ring, kind)
            for v in range(n):
                assert g.degrees[v] == (d_unit if (units >> v) & 1 else d_zero)

    @pytest.mark.parametrize("p,k", [(2, 3), (3, 2), (5, 2), (7, 1)])
    def test_predictions_hold_on_poly(self, p, k):
        ring = TruncatedPolyRing(p, k)
        for kind in (TOTAL, UNIT):
            g, units = held_graph(ring, kind)
            d_zero, d_unit = predicted_degrees(ring, kind)
            for v in range(ring.order):
                assert g.degrees[v] == (d_unit if (units >> v) & 1 else d_zero)


class TestEdgePartition:
    def test_total_z15(self):
        g, units = held_graph(ZnRing(15), TOTAL)
        assert edge_partition_of(degree_pair_counts(g, units)) == EdgePartition(13, 16, 20)

    def test_unit_z5(self):
        g, units = held_graph(ZnRing(5), UNIT)
        assert edge_partition_of(degree_pair_counts(g, units)) == EdgePartition(0, 4, 4)

    def test_total_z2_empty(self):
        g, units = held_graph(ZnRing(2), TOTAL)
        assert edge_partition_of(degree_pair_counts(g, units)) == EdgePartition(0, 0, 0)

    def test_partition_totals_match_edge_count(self):
        for n in (12, 15, 45, 64, 77):
            ring = ZnRing(n)
            for kind in (TOTAL, UNIT):
                g, units = held_graph(ring, kind)
                assert edge_partition_of(degree_pair_counts(g, units)).total == g.edge_count

    def test_rejects_negative(self):
        for counts in ((-1, 0, 0), (0, -1, 0), (0, 0, -1)):
            with pytest.raises(ValueError, match=r"negative edge count in EdgePartition\("):
                EdgePartition(*counts)

    def test_immutable_namedtuple(self):
        part = EdgePartition(8, 40, 8)
        assert repr(part) == "EdgePartition(alpha=8, beta=40, gamma=8)"
        assert part._asdict() == {"alpha": 8, "beta": 40, "gamma": 8}
        assert part == EdgePartition(alpha=8, beta=40, gamma=8) and part.total == 56
        with pytest.raises(AttributeError):
            part.alpha = 0


class TestGraphBasics:
    def test_handshake(self):
        for n in (2, 9, 15, 45):
            g, _ = held_graph(ZnRing(n), TOTAL)
            assert sum(g.degrees) == 2 * g.edge_count

    def test_edges_lexicographic(self):
        g, _ = held_graph(ZnRing(9), UNIT)
        es = list(g.edges())
        assert es == sorted(es)
        assert all(u < v for u, v in es)
        assert [f"e {u + 1} {v + 1}" for u, v in es] == literal_edge_list(g).splitlines()[1:]

    def test_row_count_checked(self):
        with pytest.raises(ValueError):
            Graph(3, [0, 0])

    def test_validate_catches_asymmetry(self):
        g = Graph(2, [0b10, 0b00])
        with pytest.raises(AssertionError):
            g.validate()

    def test_validate_catches_self_loop(self):
        g = Graph(2, [0b01, 0b00])
        with pytest.raises(AssertionError):
            g.validate()

    def test_edge_list_export(self):
        g, _ = held_graph(ZnRing(4), TOTAL)
        buf = io.StringIO()
        write_edge_list(g, buf)
        assert buf.getvalue() == "p edge 4 2\ne 1 3\ne 2 4\n"


class TestRowChunks:
    @pytest.mark.parametrize("n", [1, 2, 27, 1155, 2047, 2048])
    def test_graph_of_at_most_2048_vertices_is_one_chunk(self, n):
        assert row_chunks(n) == [range(n)]

    # A split graph's chunk holds a row and an offset mask per vertex, so
    # 128 of each at 2^14 vertices are CHUNK_BITS, where 256 rows were.
    def test_ceiling_graph_takes_128_rows_a_chunk(self):
        chunks = row_chunks(16384)
        assert chunks == [range(s, s + 128) for s in range(0, 16384, 128)]
        assert [v for chunk in chunks for v in chunk] == list(range(16384))

    @pytest.mark.parametrize("n", [2049, 3000, 15015, 16384, 65536])
    def test_split_rows_and_masks_fit_chunk_bits(self, n):
        step = chunk_rows(n)
        assert 2 * step * n <= graphs.CHUNK_BITS < 2 * (step + 1) * n
        assert len(row_chunks(n)) == -(-n // step) > 1

    def test_no_vertices_no_chunks(self):
        assert row_chunks(0) == []


# Rings whose rows are read against the witness chunk by chunk: Z_n for n
# across the 30- and 60-bit digit boundaries and the 64- and 128-bit ones,
# and F_p[x]/(x^k) for p = 2, 3 and 5, given as (n,) or (p, k).
WINDOW_SPECS = [(n,) for n in (29, 30, 31, 59, 60, 61, 63, 64, 65, 127, 128, 129)] + [
    (2, 6),
    (3, 4),
    (5, 3),
]


def spec_id(spec) -> str:
    return f"n{spec[0]}" if len(spec) == 1 else "p{}k{}".format(*spec)


def ring_of(spec):
    return ZnRing(*spec) if len(spec) == 1 else TruncatedPolyRing(*spec)


@functools.cache
def witness_of(spec):
    if len(spec) == 1:
        return definitional.zn(*spec)
    p, k = spec
    return definitional.truncated(definitional.zn(p), k)


@functools.cache
def witness_rows(spec, kind) -> list[int]:
    return witness_of(spec).graph(kind == UNIT).rows


def index_forms(n):
    """(name, indices, the vertices they give) for each way rows are asked."""
    return [
        ("list with repeats", [n - 1, 0, 7, 7, n // 2, 0], [n - 1, 0, 7, 7, n // 2, 0]),
        ("one-shot iterator", iter(range(n)), list(range(n))),
        ("stepped range", range(1, n, 3), list(range(1, n, 3))),
        ("reversed range", range(n - 1, -1, -1), list(range(n - 1, -1, -1))),
        ("reversed iterator", reversed(range(n)), list(range(n - 1, -1, -1))),
        ("empty range", range(n // 2, n // 2), []),
        ("range from mid-graph to the end", range(n // 2, n), list(range(n // 2, n))),
        ("range inside the graph", range(n // 3, n // 3 + 5), list(range(n // 3, n // 3 + 5))),
    ]


class TestRowsAgainstDefinition:
    # A chunk shorter than the graph takes the windowed Z_n rows; a graph of
    # at most 2048 vertices is one chunk by default, a whole-graph read.

    def test_rings_cover_every_self_bit_pattern(self):
        # row x would hold x iff x + x is in the graph's target set: even n
        # has every row so (total) or none (unit), odd n has both kinds
        patterns = set()
        for spec in WINDOW_SPECS:
            w = witness_of(spec)
            for want_unit in (False, True):
                patterns.add(frozenset(w.units[w.add[x][x]] == want_unit for x in range(w.order)))
        assert patterns == {frozenset({True}), frozenset({False}), frozenset({True, False})}

    @pytest.mark.parametrize("rows", [1, 2, 3, 7, 29, 31, None])
    @pytest.mark.parametrize("spec", WINDOW_SPECS, ids=spec_id)
    def test_chunked_rows_match_definition(self, monkeypatch, spec, rows):
        ring = ring_of(spec)
        n = ring.order
        if rows is not None:  # None: the default rows a chunk
            force_chunk_rows(monkeypatch, rows)
        chunks = row_chunks(n)
        assert len(chunks) == -(-n // (rows or n))
        for kind in (TOTAL, UNIT):
            source = row_source(ring, kind)
            assert [row for idx in chunks for row in source.rows_of(idx)] == witness_rows(spec, kind)

    # The largest one-chunk graphs, where D is 4096 bits: row x would hold x
    # iff x + x is a unit (unit graph) or a zero-divisor (total graph).
    @pytest.mark.parametrize("n, kind, holding", [
        (2047, TOTAL, "some"), (2047, UNIT, "some"), (2048, TOTAL, "every"), (2048, UNIT, "none"),
    ])
    def test_one_chunk_boundary_matches_one_row_chunks(self, monkeypatch, n, kind, holding):
        holds = {(math.gcd(2 * x, n) == 1) == (kind == UNIT) for x in range(n)}
        assert holds == {"some": {True, False}, "every": {True}, "none": {False}}[holding]
        source = row_source(ZnRing(n), kind)
        assert row_chunks(n) == [range(n)]
        whole = source.rows_of(range(n))
        table = degree_pair_counts(source, source.units)
        force_chunk_rows(monkeypatch, 1)
        assert len(row_chunks(n)) == n
        assert [row for idx in row_chunks(n) for row in source.rows_of(idx)] == whole
        assert degree_pair_counts(source, source.units) == table

    @pytest.mark.parametrize("spec", WINDOW_SPECS, ids=spec_id)
    def test_every_index_form_matches_definition(self, spec):
        ring = ring_of(spec)
        for kind in (TOTAL, UNIT):
            want, source = witness_rows(spec, kind), row_source(ring, kind)
            for name, indices, vertices in index_forms(ring.order):
                assert source.rows_of(indices) == [want[v] for v in vertices], name


# The Z_n rings of WINDOW_SPECS, whose chunks shorter than the graph come
# with skew 1 (row j holds vertex y at bit y + j).
ZN_SPECS = [spec for spec in WINDOW_SPECS if len(spec) == 1]


def edge_list(source) -> str:
    buf = io.StringIO()
    write_edge_list(source, buf)
    return buf.getvalue()


@functools.cache
def whole_chunk_reads(spec):
    """What each reader makes of Z_n's graphs read whole, as one chunk with
    skew 0: the oracle's tables and the edge lists by graph kind, and the
    structure verdicts."""
    ring = ring_of(spec)
    assert row_chunks(ring.order) == [range(ring.order)]
    sources = {kind: row_source(ring, kind) for kind in (TOTAL, UNIT)}
    tables = {kind: degree_pair_counts(s, s.units) for kind, s in sources.items()}
    dumps = {kind: edge_list(s) for kind, s in sources.items()}
    return tables, dumps, check_structure(ring)


class TestOffsetRead:
    # Every reader of an offset chunk sees the graph a whole-graph read
    # sees: the oracle's rule 1 (across ANDs row j with its mask moved up
    # by j), check_structure (its duality and clique masks moved up too)
    # and the edge list writer (which reads rows moved back down).
    @pytest.mark.parametrize("rows", [1, 2, 3, 7, 29, 31])
    @pytest.mark.parametrize("spec", ZN_SPECS, ids=spec_id)
    def test_offset_chunks_read_as_whole_chunk(self, monkeypatch, spec, rows):
        ring = ring_of(spec)
        n = ring.order
        tables, dumps, structure = whole_chunk_reads(spec)
        force_chunk_rows(monkeypatch, rows)
        for kind in (TOTAL, UNIT):
            source, want = row_source(ring, kind), witness_rows(spec, kind)
            for idx in row_chunks(n):
                got, skew = read_chunk(source, idx)
                assert skew == (len(idx) < n)
                assert got == [want[x] << (skew * j) for j, x in enumerate(idx)]
            assert degree_pair_counts(source, source.units) == tables[kind]
            assert edge_list(source) == dumps[kind]
        assert check_structure(ring) == structure

    def test_other_sources_read_with_no_skew(self, monkeypatch):
        force_chunk_rows(monkeypatch, 3)
        g, _ = held_graph(ZnRing(10), TOTAL)
        sources = [g, CirculantRows(10, 0b1000000010), row_source(TruncatedPolyRing(2, 3), UNIT)]
        for source in sources:
            for idx in row_chunks(source.n):
                assert read_chunk(source, idx) == (source.rows_of(idx), 0)


def literal_edge_list(g) -> str:
    """The edge list of a held graph, read bit by bit."""
    lines = [f"e {u + 1} {v + 1}\n" for u in range(g.n) for v in range(u + 1, g.n)
             if (g.rows[u] >> v) & 1]
    return f"p edge {g.n} {len(lines)}\n" + "".join(lines)


class TestEdgeListWriter:
    # The writer reads a row source in chunks, twice; each chunk size must
    # give the witness's edge list byte for byte.
    @pytest.mark.parametrize("rows", [1, 7, 31, None])
    @pytest.mark.parametrize("spec", WINDOW_SPECS, ids=spec_id)
    def test_streamed_dump_matches_definition(self, monkeypatch, spec, rows):
        ring = ring_of(spec)
        if rows is not None:  # None: the default rows a chunk
            force_chunk_rows(monkeypatch, rows)
        for kind in (TOTAL, UNIT):
            buf = io.StringIO()
            write_edge_list(row_source(ring, kind), buf)
            assert buf.getvalue() == literal_edge_list(witness_of(spec).graph(kind == UNIT))

