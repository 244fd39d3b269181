import functools
import gc
import io
import json
import multiprocessing
import os
import pickle
import time
import tracemalloc

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from held import force_chunk_rows, held, held_graph
from ringsombor import graphs, rings, verify
from ringsombor.cli import main
from ringsombor.closed_forms import (
    CORRECTED,
    FORMULA_UNIT_LOCAL,
    FORMULA_UNIT_P2Q_EDGES,
    FORMULA_UNIT_PPOW,
    PRINTED,
    UNIQUE,
    NotInFamilyError,
)
from ringsombor.graphs import TOTAL, UNIT, CeilingExceededError, row_source, write_edge_list
from ringsombor.radicals import RadicalSum
from ringsombor.rings import PSI_13, TruncatedPolyRing, ZnRing, factorize
from ringsombor.verify import (
    IDENTITY_MAX_N,
    MAX_WORKERS,
    STRUCTURE_COLUMNS,
    SWEEP_COLUMNS,
    CaseResult,
    EmptySweepError,
    SweepResult,
    VariantResult,
    canonical_csv_body,
    canonical_json_body,
    check_structure,
    errata_report,
    identity_cases,
    regular_circulant,
    structure_cases,
    structure_record,
    sweep,
    sweep_cases,
    verify_case,
    write_json,
    write_report,
    write_sweep,
    write_sweep_csv,
    write_sweep_json,
)


@pytest.fixture
def small_batches(monkeypatch):
    """Sweep batches of 4 specs, so that a small pool sweep spans many chunks
    and their completion out of order is exercised."""
    monkeypatch.setattr(verify, "_SPEC_BATCH", 4)


def count_calls(monkeypatch, name):
    """Wrap verify.<name> so that each call is recorded; returns the record."""
    calls = []
    real = getattr(verify, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(verify, name, counted)
    return calls


def json_report(result: SweepResult) -> str:
    """A held sweep's JSON report, as write_sweep_json writes it."""
    buf = io.StringIO()
    write_sweep_json(result, buf)
    return buf.getvalue()


class EditedRows:
    """A row source whose row of each vertex in edits is XORed with the
    vertex's edit mask."""

    def __init__(self, source, edits):
        self.n, self.units, self.source, self.edits = source.n, source.units, source, edits

    def rows_of(self, indices):
        indices = list(indices)
        rows = self.source.rows_of(indices)
        return [row ^ self.edits.get(v, 0) for v, row in zip(indices, rows)]


def edit_rows(monkeypatch, kind, edits):
    """Patch verify.row_source so that the sources of graph kind `kind` come
    back as EditedRows with these edits."""
    real = verify.row_source

    def edited(ring, k, **kwargs):
        source = real(ring, k, **kwargs)
        return EditedRows(source, edits) if k == kind else source

    monkeypatch.setattr(verify, "row_source", edited)


class TestVerifyCase:
    def test_z15_total(self):
        case = verify_case(ZnRing(15), TOTAL)
        assert case.family == "pq"
        assert (case.oracle_partition.alpha, case.oracle_partition.beta,
                case.oracle_partition.gamma) == (13, 16, 20)
        assert case.oracle_value == RadicalSum({2: 218, 85: 16})
        assert len(case.variants) == 1
        assert case.variants[0].variant == UNIQUE
        assert case.variants[0].match
        assert case.ok

    def test_z9_unit_variants(self):
        case = verify_case(ZnRing(9), UNIT)
        by_variant = {v.variant: v for v in case.variants}
        assert by_variant[CORRECTED].match
        assert not by_variant[PRINTED].match
        assert case.ok  # printed mismatches are findings, not failures

    def test_z2_total_zero_both_ways(self):
        case = verify_case(ZnRing(2), TOTAL)
        assert case.oracle_value.is_zero
        assert case.variants[0].closed_value.is_zero
        assert case.ok

    def test_oracle_only_family(self):
        case = verify_case(ZnRing(105), TOTAL)  # 3*5*7 has no closed form
        assert case.family == "other"
        assert case.variants == ()
        assert case.ok

    def test_local_forms_route(self):
        case = verify_case(ZnRing(9), UNIT, use_local_forms=True)
        assert case.family == "local"
        by_variant = {v.variant: v for v in case.variants}
        assert by_variant[CORRECTED].match
        assert not by_variant[PRINTED].match

    def test_local_forms_refuse_non_local_ring(self):
        with pytest.raises(NotInFamilyError):
            verify_case(ZnRing(15), TOTAL, use_local_forms=True)

    def test_poly_ring_uses_local_forms(self):
        case = verify_case(TruncatedPolyRing(3, 2), UNIT)
        assert case.family == "local"
        assert case.ok

    def test_ceiling(self):
        with pytest.raises(CeilingExceededError):
            verify_case(ZnRing(100), TOTAL, ceiling=50)
        with pytest.raises(CeilingExceededError):
            check_structure(ZnRing(100), ceiling=50)

    def test_p2q_out_of_hypothesis_tag(self):
        case = verify_case(ZnRing(75), TOTAL)
        assert case.family == "p2q_pgtq"


class TestSweep:
    @pytest.mark.parametrize("family", ["even", "pq", "local"])
    def test_enumeration_caches_only_built_rings(self, family):
        # every n up to 600 is factored, but only the Z_n rings built (one
        # factorize call each) enter the cache
        factorize.cache_clear()
        built = [ring for ring, _ in verify._family_rings(family, 600)]
        assert factorize.cache_info().currsize == sum(isinstance(r, ZnRing) for r in built)

    def test_pq_to_100(self):
        result = sweep("pq", 100)
        assert [c.n for c in result.cases] == [15, 21, 33, 35, 39, 51, 55, 57,
                                               65, 69, 77, 85, 87, 91, 93, 95]
        assert all(c.ok for c in result.cases)
        assert all(len(c.variants) == 1 for c in result.cases)

    def test_even_to_50(self):
        result = sweep("even", 50, kinds=(TOTAL, UNIT))
        assert len({c.n for c in result.cases}) == 25
        assert all(c.ok for c in result.cases)

    def test_empty_sweep(self):
        with pytest.raises(EmptySweepError):
            sweep("p2q", 10)

    def test_p2q_includes_swapped_primes(self):
        result = sweep("p2q", 200, kinds=(TOTAL,))
        by_n = {c.n: c for c in result.cases}
        assert by_n[45].family == "p2q"
        assert by_n[75].family == "p2q_pgtq"
        assert by_n[147].family == "p2q_pgtq"
        assert by_n[175].family == "p2q"
        outcomes = json.loads(json_report(result))["summary"]["out_of_hypothesis_outcomes"]
        assert "Z_75:total" in outcomes

    def test_local_family_covers_both_ring_kinds(self):
        result = sweep("local", 32, kinds=(UNIT,))
        rings = {c.ring for c in result.cases}
        assert "Z_32" in rings and "F_2[x]/(x^5)" in rings
        assert all(c.family == "local" for c in result.cases)

    def test_ppow_powers_enumerated(self):
        result = sweep("ppow", 30)
        assert {c.n for c in result.cases} == {3, 5, 7, 9, 11, 13, 17, 19, 23, 25, 27, 29}

    @pytest.mark.usefixtures("small_batches")
    def test_workers_do_not_change_report(self):
        seq = sweep("pq", 150, kinds=(TOTAL, UNIT), workers=1)
        par = sweep("pq", 150, kinds=(TOTAL, UNIT), workers=3)
        buf1, buf2 = io.StringIO(), io.StringIO()
        write_sweep_csv(seq, buf1)
        write_sweep_csv(par, buf2)
        assert canonical_csv_body(buf1.getvalue()) == canonical_csv_body(buf2.getvalue())

    @pytest.mark.parametrize("workers", [1, 2])
    def test_ceiling_checked_before_any_case(self, monkeypatch, workers):
        calls = count_calls(monkeypatch, "verify_case")
        with pytest.raises(CeilingExceededError, match="Z_111 has 111 elements"):
            sweep("pq", 300, ceiling=100, workers=workers)
        assert calls == []

    @pytest.mark.parametrize("workers", [1, 2])
    def test_checked_at_the_call_up_to_the_first_ring(self, monkeypatch, workers):
        # max_n is under the ceiling, so the check reads n = 2..15 up to
        # Z_15, not all 3000 moduli, for any worker count
        calls = []
        real = rings._modulus
        monkeypatch.setattr(rings, "_modulus", lambda n: calls.append(n) or real(n))
        cases = sweep_cases("pq", 3000, (TOTAL, UNIT), workers=workers)
        assert len(calls) <= 15
        cases.close()

    def test_ceiling_refused_without_factoring_the_orders_below_it(self, monkeypatch):
        # max_n is above the ceiling, so the check reads Z_2 and then the
        # orders from 10^6 + 1 up to Z_1000002, not the 10^6 orders between
        calls = []
        real = rings._modulus
        monkeypatch.setattr(rings, "_modulus", lambda n: calls.append(n) or real(n))
        with pytest.raises(CeilingExceededError,
                           match="Z_1000002 has 1000002 elements, above the ceiling 1000000"):
            sweep_cases("even", 10**6 + 2, ceiling=10**6)
        assert len(calls) <= 5

    @pytest.mark.parametrize("workers", [0, MAX_WORKERS + 1])
    def test_workers_bounded(self, workers):
        with pytest.raises(ValueError, match="workers"):
            sweep("pq", 40, workers=workers)

    def test_cli_workers_zero_is_usage_error(self):
        assert main(["sweep", "--family", "pq", "--max-n", "40", "--workers", "0"]) == 2

    def test_summary_counts(self):
        result = sweep("ppow", 30, kinds=(UNIT,))
        summary = json.loads(json_report(result))["summary"]
        assert summary["cases"] == 12
        assert summary["variant_rows"] == 24
        assert summary["failed_rows"] == 0
        assert summary["printed_mismatch_rows"] > 0


class TestStructure:
    def test_z9(self):
        r = check_structure(ZnRing(9))
        assert (r.zdiv_complete, r.degrees_ok, r.duality_ok) == (True, True, True)
        assert r.consistent

    def test_z15(self):
        r = check_structure(ZnRing(15))
        assert not r.zdiv_complete  # 3 + 5 = 8 is a unit
        assert r.degrees_ok and r.duality_ok
        assert r.consistent  # non-local, so the missing clique is expected

    def test_poly_ring(self):
        r = check_structure(TruncatedPolyRing(3, 2))
        assert (r.zdiv_complete, r.degrees_ok, r.duality_ok) == (True, True, True)

    def test_duality_flags_one_flipped_edge(self, monkeypatch):
        edit_rows(monkeypatch, UNIT, {1: 1 << 4, 4: 1 << 1})
        assert not check_structure(ZnRing(12)).duality_ok

    def test_sweep_range(self):
        results = list(structure_cases(40))
        assert [r.n for r in results] == list(range(2, 41))
        assert all(r.consistent for r in results)

    def test_sweep_empty(self):
        # raised by the call itself: the stream is never read
        with pytest.raises(EmptySweepError):
            structure_cases(1)

    def test_sweep_ceiling_checked_before_any_ring(self, monkeypatch):
        calls = count_calls(monkeypatch, "check_structure")
        with pytest.raises(CeilingExceededError, match="Z_101 has 101 elements"):
            structure_cases(300, ceiling=100)
        assert calls == []

    def test_rings_run_as_they_are_read(self, monkeypatch):
        calls = count_calls(monkeypatch, "check_structure")
        results = structure_cases(4000)
        assert calls == []
        assert next(results).ring == "Z_2" and len(calls) == 1

    def test_sweep_ceiling_named_without_factoring(self, monkeypatch):
        # PSI_13 is a strong probable prime to every base rings proves with,
        # so building Z_PSI_13 would raise its own error
        calls = []
        monkeypatch.setattr(rings, "factorize", lambda n: calls.append(n))
        with pytest.raises(CeilingExceededError,
                           match=f"Z_{PSI_13} has {PSI_13} elements, above the ceiling"):
            structure_cases(4 * 10**24, ceiling=PSI_13 - 1)
        assert calls == []


# The rings check_structure is compared on at chunk sizes 1, 3 and 7.
CHUNKED_RINGS = [ZnRing(n) for n in range(2, 301)] + [
    TruncatedPolyRing(p, k) for p, top in ((2, 8), (3, 5), (5, 3)) for k in range(1, top + 1)
]


@pytest.fixture(scope="module")
def whole_chunk_structures():
    return [check_structure(ring) for ring in CHUNKED_RINGS]


class TestStructureChunks:
    @pytest.mark.parametrize("chunk_rows", [1, 3, 7])
    def test_verdicts_equal_whole_chunk(self, chunk_rows, whole_chunk_structures, monkeypatch):
        results = []
        for ring in CHUNKED_RINGS:
            force_chunk_rows(monkeypatch, chunk_rows)
            results.append(check_structure(ring))
        assert results == whole_chunk_structures

    # Z_27 is local: its zero-divisors 0, 3, ..., 24 form a clique.  Rows 0,
    # 12 and 24 sit in its first, a middle and (at 3 and 7 rows a chunk) its
    # last chunk; row 26 is last at every chunk size.
    @pytest.mark.parametrize("chunk_rows", [1, 3, 7])
    @pytest.mark.parametrize("row", [0, 12, 26])
    def test_one_flipped_unit_bit_is_flagged(self, chunk_rows, row, monkeypatch):
        force_chunk_rows(monkeypatch, chunk_rows)
        edit_rows(monkeypatch, UNIT, {row: 1 << (row + 5) % 27})
        r = check_structure(ZnRing(27))
        assert not r.duality_ok and not r.degrees_ok
        assert r.zdiv_complete

    @pytest.mark.parametrize("chunk_rows", [1, 3, 7])
    @pytest.mark.parametrize("row", [0, 12, 24])
    def test_one_missing_zero_divisor_pair_is_flagged(self, chunk_rows, row, monkeypatch):
        force_chunk_rows(monkeypatch, chunk_rows)
        edit_rows(monkeypatch, TOTAL, {row: 1 << (row + 9) % 27})
        r = check_structure(ZnRing(27))
        assert not r.zdiv_complete

    def test_zero_divisor_row_with_self_loop_is_flagged(self, monkeypatch):
        # row 3 holds every zero-divisor, itself included
        edit_rows(monkeypatch, TOTAL, {3: 1 << 3})
        assert not check_structure(ZnRing(27)).zdiv_complete

    # Vertex 1 of Z_27, a unit, gets a self-loop in both graphs, and its edge
    # to 2 (1 + 2 = 3, a zero-divisor) moves from the total graph to the unit
    # graph.  Each row is still the other's complement and the total degree
    # is unchanged, but the unit row of 1 holds 19 vertices where 17 are
    # predicted; only the disjointness half of the partition test sends the
    # chunk to the checks that count them.
    @pytest.mark.parametrize("chunk_rows", [1, 3, 7, None])
    def test_self_loop_in_both_graphs_is_flagged(self, chunk_rows, monkeypatch):
        if chunk_rows is not None:
            force_chunk_rows(monkeypatch, chunk_rows)
        edit = (1 << 1) | (1 << 2)
        edit_rows(monkeypatch, TOTAL, {1: edit})
        edit_rows(monkeypatch, UNIT, {1: edit})
        r = check_structure(ZnRing(27))
        assert r.duality_ok and not r.degrees_ok and r.zdiv_complete


# Z_n up to 60 and every F_p[x]/(x^k) of at most 64 elements.
SMALL_RINGS = [ZnRing(n) for n in range(2, 61)] + [
    TruncatedPolyRing(p, k) for p, top in ((2, 6), (3, 3), (5, 2), (7, 2)) for k in range(1, top + 1)
]


@functools.cache
def held_rows(ring, kind):
    return tuple(held_graph(ring, kind)[0].rows)


def literal_structure(ring, total_edits, unit_edits):
    """check_structure's three facts, read bit by bit off the ring's held
    rows with the edits XORed in."""
    n, units = ring.order, ring.unit_mask()
    t_rows, u_rows = (
        [row ^ edits.get(x, 0) for x, row in enumerate(held_rows(ring, kind))]
        for kind, edits in ((TOTAL, total_edits), (UNIT, unit_edits))
    )

    def bit(mask, y):
        return (mask >> y) & 1

    zeros = [x for x in range(n) if not bit(units, x)]
    predicted = graphs.predicted_degrees(ring, TOTAL), graphs.predicted_degrees(ring, UNIT)
    return verify.StructureResult(
        ring=ring.name,
        n=n,
        is_local=ring.is_local,
        # every zero-divisor's total row holds every other zero-divisor and not itself
        zdiv_complete=all(bit(t_rows[x], y) == (y != x) for x in zeros for y in zeros),
        degrees_ok=all(
            sum(bit(rows[x], y) for y in range(n)) == pair[bit(units, x)]
            for rows, pair in zip((t_rows, u_rows), predicted)
            for x in range(n)
        ),
        # y is in exactly one row of x when y != x, and in both or neither when y == x
        duality_ok=all(
            bit(u_rows[x], y) == bit(t_rows[x], y) ^ (y != x) for x in range(n) for y in range(n)
        ),
    )


@st.composite
def ring_edits(draw):
    """A ring from SMALL_RINGS and XOR edits, inside its n bits, to its total
    and unit rows.  The edit mask of row x is a random mask, one random bit
    or the bit of one of x's neighbours in the total graph, with x's own
    self bit flipped or not.  A paired edit XORs one mask into both rows of
    a vertex: each row stays the other's complement, and the rows stay a
    partition of the other vertices unless the mask holds the self bit.
    Half the cases have paired edits alone, so that duality holds."""
    ring = draw(st.sampled_from(SMALL_RINGS))
    n = ring.order
    total_rows = held_rows(ring, TOTAL)

    def mask(x):
        neighbours = [y for y in range(n) if (total_rows[x] >> y) & 1]
        one = st.integers(0, n - 1) | (st.sampled_from(neighbours) if neighbours else st.nothing())
        return st.integers(0, (1 << n) - 1) | one.map((1).__lshift__)

    def edits():
        vertices = draw(st.lists(st.integers(0, n - 1), max_size=3, unique=True))
        return {x: draw(mask(x)) ^ (draw(st.booleans()) << x) for x in vertices}

    total, unit = (edits(), edits()) if draw(st.booleans()) else ({}, {})
    paired = edits()
    for x, edit in paired.items():
        total[x] = total.get(x, 0) ^ edit
        unit[x] = unit.get(x, 0) ^ edit
    return ring, total, unit


class TestStructureReference:
    # check_structure against literal_structure, with chunk boundaries inside
    # the graphs or (None) the default single chunk
    @given(case=ring_edits(), chunk_rows=st.sampled_from([1, 3, 7, None]))
    @settings(max_examples=300, deadline=None)
    def test_edited_rows_match_literal_reference(self, case, chunk_rows):
        ring, total_edits, unit_edits = case
        with pytest.MonkeyPatch.context() as mp:
            if chunk_rows is not None:
                force_chunk_rows(mp, chunk_rows)
            edit_rows(mp, TOTAL, total_edits)
            edit_rows(mp, UNIT, unit_edits)
            result = check_structure(ring)
        assert result == literal_structure(ring, total_edits, unit_edits)


# Runs on rings at or near the default ceiling, where one graph is up to
# 32 MB of rows.  Z_16384's unit graph has no row holding its own bit,
# Z_15015's graphs mix rows that do and rows that do not,
# F_2[x]/(x^14)'s unit rows are its block rows themselves, and Z_16381's
# total graph is read whole twice to dump its 8190 edges.  Z_65536, under a
# raised ceiling, has 2^16 vertices, where a list of every row's degree took
# about 2.3 MB; the oracle keeps no list per vertex, and check_structure
# keeps only its two chunks of rows, their offset masks and a byte of flags
# a vertex.
CEILING_RUNS = {
    "verify_case": lambda: verify_case(ZnRing(16384), TOTAL),
    "check_structure": lambda: check_structure(ZnRing(16384)),
    "verify_case_unit_z16384": lambda: verify_case(ZnRing(16384), UNIT),
    "verify_case_total_z15015": lambda: verify_case(ZnRing(15015), TOTAL),
    "verify_case_unit_z15015": lambda: verify_case(ZnRing(15015), UNIT),
    "check_structure_f2_x14": lambda: check_structure(TruncatedPolyRing(2, 14)),
    "dump_total_z16381": lambda: dump_edge_list(ZnRing(16381), TOTAL),
    "verify_case_total_z65536": lambda: verify_case(ZnRing(65536), TOTAL, ceiling=65536),
    "check_structure_z65536": lambda: check_structure(ZnRing(65536), ceiling=65536),
}


def dump_edge_list(ring, kind):
    with open(os.devnull, "w", encoding="utf-8") as fh:
        write_edge_list(row_source(ring, kind), fh)


@functools.cache
def ceiling_peak(run):
    """The tracemalloc peak, in bytes, of CEILING_RUNS[run]."""
    tracemalloc.start()
    try:
        CEILING_RUNS[run]()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak


class TestMemory:
    # 2^28 / 16 bytes is half of one graph of 2^14 rows of 2^14 bits held
    # in memory
    @pytest.mark.parametrize("run", CEILING_RUNS)
    def test_ceiling_ring_holds_no_graph(self, run):
        assert ceiling_peak(run) < 16384**2 // 16

    # At 2^14 a chunk of rows is 2^22 bits (512 KB) and check_structure holds
    # two side by side; 2 MB is a per-core L2 cache.
    @pytest.mark.parametrize("run", CEILING_RUNS)
    def test_ceiling_ring_peak_below_two_megabytes(self, run):
        assert ceiling_peak(run) < 2 << 20


class TestIdentity:
    def test_small_sweep_all_zero(self):
        cases = list(identity_cases(20, circulant_max=20))
        assert cases
        assert all(c.residual_zero for c in cases)
        assert all(c.circulant_match for c in cases if c.circulant_checked)

    def test_ceiling_checked_before_any_case(self, monkeypatch):
        calls = []

        def residual(*args):
            calls.append(args)
            raise AssertionError("residual evaluated before the ceiling check")

        monkeypatch.setattr(verify.cf, "complement_identity_residual", residual)
        with pytest.raises(CeilingExceededError, match="Z_20000 has 20000 elements"):
            identity_cases(20000, circulant_max=20000)
        # the largest circulant is min(circulant_max, max_n)
        with pytest.raises(CeilingExceededError, match="Z_16385 has 16385 elements"):
            identity_cases(16385, circulant_max=10**6)
        assert calls == []

    def test_max_n_bounded_before_any_case(self, monkeypatch):
        calls = []

        def residual(*args):
            calls.append(args)
            raise AssertionError("residual evaluated before the max_n bound")

        monkeypatch.setattr(verify.cf, "complement_identity_residual", residual)
        assert IDENTITY_MAX_N >= 200  # criterion 7's range
        # raised by the call itself, with the stream never read
        for circulant_max in (None, 0, IDENTITY_MAX_N + 1):
            with pytest.raises(ValueError, match=f"max_n <= {IDENTITY_MAX_N}, got"):
                identity_cases(IDENTITY_MAX_N + 1, circulant_max=circulant_max)
        assert calls == []

    def test_negative_circulant_max_refused_before_any_case(self, monkeypatch):
        calls = []

        def residual(*args):
            calls.append(args)
            raise AssertionError("residual evaluated before circulant_max was checked")

        monkeypatch.setattr(verify.cf, "complement_identity_residual", residual)
        for circulant_max in (-1, -3):
            with pytest.raises(ValueError, match=f"at least 0, got {circulant_max}"):
                identity_cases(5, circulant_max=circulant_max)
        assert calls == []

    def test_infeasible_pairs_skipped(self):
        cases = list(identity_cases(7, circulant_max=0))
        assert all((c.n * c.k) % 2 == 0 for c in cases)
        assert not any(c.circulant_checked for c in cases)

    def test_regular_circulant_degrees(self):
        # every feasible (n, k) with n <= 40: a simple graph, k-regular
        for n in range(1, 41):
            for k in range(0, n, 1 + n % 2):
                g = held(regular_circulant(n, k))
                g.validate()
                assert set(g.degrees) == {k}

    def test_regular_circulant_rejects_odd_product(self):
        with pytest.raises(ValueError):
            regular_circulant(5, 3)

    @pytest.mark.parametrize("n, k", [(4, 5), (6, 6), (5, -2)])
    def test_regular_circulant_rejects_degree_out_of_range(self, n, k):
        with pytest.raises(ValueError, match=f"degree {k} out of range for {n} vertices"):
            regular_circulant(n, k)


class TestErrata:
    def test_all_three_formulas_detected(self):
        cases = []
        cases.extend(sweep("ppow", 30, kinds=(UNIT,)).cases)
        cases.extend(sweep("p2q", 50, kinds=(UNIT,)).cases)
        cases.extend(sweep("local", 16, kinds=(UNIT,)).cases)
        entries = {e.formula: e for e in errata_report(cases)}
        assert set(entries) == {FORMULA_UNIT_PPOW, FORMULA_UNIT_P2Q_EDGES, FORMULA_UNIT_LOCAL}
        # smallest counterexamples within these sweeps
        assert entries[FORMULA_UNIT_PPOW].n == 3
        assert entries[FORMULA_UNIT_P2Q_EDGES].n == 45
        assert entries[FORMULA_UNIT_LOCAL].n == 5
        for e in entries.values():
            assert e.printed_value != e.oracle_value

    def test_no_entries_when_printed_matches(self):
        # the even family has no printed/corrected split at all
        assert errata_report(sweep("even", 20, kinds=(TOTAL, UNIT)).cases) == []


class TestResultTypes:
    """The result types are immutable namedtuples whose reprs the benchmark
    digests hold."""

    def test_structure_repr(self):
        assert repr(check_structure(ZnRing(12))) == (
            "StructureResult(ring='Z_12', n=12, is_local=False, zdiv_complete=False,"
            " degrees_ok=True, duality_ok=True)"
        )

    def test_errata_repr_and_asdict(self):
        [entry] = errata_report(sweep("p2q", 50, kinds=(UNIT,)).cases)
        fields = dict(
            formula=FORMULA_UNIT_P2Q_EDGES,
            printed_expression="|E| = p^2*(p-1)*(q-1)*(p^2*q - 1)/2",
            ring="Z_45",
            n=45,
            kind="unit",
            printed_value="28224*sqrt(2) + 360*sqrt(1105)",
            oracle_value="3936*sqrt(2) + 360*sqrt(1105)",
        )
        assert entry._asdict() == fields
        assert repr(entry) == "ErrataEntry(" + ", ".join(
            f"{k}={v!r}" for k, v in fields.items()) + ")"

    def test_case_result_pickle_round_trip(self):
        case = verify_case(ZnRing(45), UNIT)
        back = pickle.loads(pickle.dumps(case))
        assert type(back) is CaseResult and back == case
        assert [type(v) for v in back.variants] == [VariantResult, VariantResult]
        assert back.ok == case.ok and repr(back) == repr(case)

    def test_fields_are_read_only(self):
        result = sweep("pq", 40)
        case = result.cases[0]
        for obj, name in ((result, "cases"), (case, "micros"), (case.variants[0], "variant"),
                          (check_structure(ZnRing(9)), "n"), (next(identity_cases(4)), "k")):
            with pytest.raises(AttributeError):
                setattr(obj, name, None)


class TestReports:
    def test_csv_shape(self):
        result = sweep("pq", 40, kinds=(TOTAL,))
        buf = io.StringIO()
        write_sweep_csv(result, buf)
        lines = buf.getvalue().splitlines()
        assert lines[0].startswith("# generated-at: ")
        assert lines[1] == ("n,ring,kind,family,variant,alpha,beta,gamma,edges,"
                            "closed_exact,oracle_exact,match,micros")
        row = lines[2].split(",")
        assert row[0] == "15" and row[1] == "Z_15" and row[2] == "total"
        assert row[4] == "unique" and row[11] == "true"
        assert row[12].isdigit()

    def test_exact_fields_round_trip(self):
        result = sweep("ppow", 30, kinds=(UNIT,))
        buf = io.StringIO()
        write_sweep_csv(result, buf)
        for line in buf.getvalue().splitlines()[2:]:
            fields = line.split(",")
            closed, oracle = fields[9], fields[10]
            RadicalSum.parse(oracle)
            if closed:
                RadicalSum.parse(closed)

    def test_json_payload(self):
        result = sweep("pq", 40, kinds=(TOTAL,))
        payload = json.loads(json_report(result))
        assert payload["summary"]["cases"] == len(result.cases)
        assert payload["cases"][0]["ring"] == "Z_15"
        assert payload["cases"][0]["variants"][0]["match"] is True
        assert payload["errata"] == []

    def test_csv_rows_are_the_json_records(self):
        # unique and printed/corrected cases on both graphs, plus oracle-only Z_105
        cases = sweep("ppow", 30, kinds=(TOTAL, UNIT)).cases + tuple(
            verify_case(ZnRing(105), kind) for kind in (TOTAL, UNIT)
        )
        result = SweepResult("mixed", 105, (TOTAL, UNIT), cases)
        csv_buf, json_buf = io.StringIO(), io.StringIO()
        write_sweep_csv(result, csv_buf)
        write_sweep_json(result, json_buf)
        header, *lines = csv_buf.getvalue().splitlines()[1:]
        assert header == ",".join(SWEEP_COLUMNS)
        csv_rows = [dict(zip(SWEEP_COLUMNS, line.split(","))) for line in lines]

        def cell(value):  # "true"/"false" for booleans, as in JSON
            if value is None:
                return ""
            return json.dumps(value) if isinstance(value, bool) else str(value)

        expected = []
        for record in json.loads(json_buf.getvalue())["cases"]:
            variants = record["variants"] or [
                {"variant": "oracle", "closed_exact": None, "match": "na"}
            ]
            for v in variants:
                fields = {**record, **record["oracle_partition"], **v}
                expected.append({col: cell(fields[col]) for col in SWEEP_COLUMNS})
        assert csv_rows == expected
        assert {row["variant"] for row in csv_rows} == {UNIQUE, PRINTED, CORRECTED, "oracle"}
        assert sum(row["match"] == "false" for row in csv_rows) > 0

    def test_each_writer_renders_each_value_once(self, monkeypatch):
        result = sweep("pq", 60, kinds=(TOTAL, UNIT))
        rendered = []
        render = RadicalSum.render
        monkeypatch.setattr(RadicalSum, "render",
                            lambda self: rendered.append(self) or render(self))
        values = sum(1 + len(c.variants) for c in result.cases)
        texts = []
        for write in (write_sweep_json, write_sweep_csv, write_sweep_json):
            buf = io.StringIO()
            write(result, buf)
            assert len(rendered) == values
            rendered.clear()
            texts.append(buf.getvalue())
        # the CSV rows leave the records as the JSON report reads them
        assert canonical_json_body(texts[2]) == canonical_json_body(texts[0])

    def test_canonical_bodies_strip_volatile_fields(self):
        result = sweep("pq", 40, kinds=(TOTAL,))
        buf1, buf2 = io.StringIO(), io.StringIO()
        write_sweep_csv(result, buf1)
        write_sweep_csv(result, buf2)
        assert canonical_csv_body(buf1.getvalue()) == canonical_csv_body(buf2.getvalue())
        text = json_report(result)
        assert "generated_at" in text and "generated_at" not in canonical_json_body(text)

    def test_writes_per_report_bounded_per_record(self):
        class Writes(io.StringIO):
            calls = 0

            def write(self, text):
                self.calls += 1
                return super().write(text)

        result = sweep("pq", 60, kinds=(TOTAL, UNIT))
        rows = sum(len(c.variants) or 1 for c in result.cases)
        texts = {}
        for write, records, end in ((write_sweep_json, len(result.cases), "}\n"),
                                    (write_sweep_csv, rows, "\n")):
            buf = Writes()
            write(result, buf)
            # one write per case record or CSV row, and a few for the rest
            assert records < buf.calls <= records + 16
            assert buf.getvalue().endswith(end)
            texts[write] = buf.getvalue()
        assert json.loads(texts[write_sweep_json])["cases"] == list(
            map(verify.case_record, result.cases))

    def test_canonical_csv_keeps_structure_columns(self):
        buf = io.StringIO()
        write_report(buf, "csv", STRUCTURE_COLUMNS, map(structure_record, structure_cases(4)))
        assert canonical_csv_body(buf.getvalue()) == (
            "n,ring,local,zdiv_complete,degrees_ok,duality_ok\n"
            "2,Z_2,true,true,true,true\n"
            "3,Z_3,true,true,true,true\n"
            "4,Z_4,true,true,true,true\n"
        )


# ----------------------------------------------------------------------
# Streamed reports

# JSON values: scalars (non-ASCII text included) nested in lists and dicts,
# empty ones included.
json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=4), inner, max_size=4),
    max_leaves=16,
)


class TestWriteJson:
    @given(payload=st.dictionaries(st.text(max_size=6), json_values, max_size=5),
           as_iterators=st.lists(st.booleans(), min_size=5, max_size=5))
    @example(payload={"cases": [{"n": 2, "v": [1, {}]}, [], [[]]], "errata": [], "é": None},
             as_iterators=[True] * 5)
    @example(payload={}, as_iterators=[False] * 5)
    def test_equals_json_dumps(self, payload, as_iterators):
        given_payload = {
            key: iter(value) if isinstance(value, list) and as_iter else value
            for (key, value), as_iter in zip(sorted(payload.items()), as_iterators)
        }
        buf = io.StringIO()
        write_json(buf, given_payload)
        assert buf.getvalue() == json.dumps(payload, indent=2, sort_keys=True) + "\n"

    def test_reads_the_values_in_key_order(self):
        # a sweep's errata and summary are complete once its cases are read
        read = []

        def items(key):
            read.append(key)
            yield key

        buf = io.StringIO()
        write_json(buf, {"b": items("b"), "a": items("a")})
        assert read == ["a", "b"] and json.loads(buf.getvalue()) == {"a": ["a"], "b": ["b"]}

    @given(value=json_values)
    @example(value=[True, 1, False, 0, None])  # bool before int
    @example(value={"b": {}, "a": [[]]})  # empty containers, and key order
    @example(value="é\x00\"\\")
    @example(value=[float("nan"), float("-inf"), -0.0, 1e16])
    @example(value=({"k": (1, "v")},))  # tuples are arrays
    def test_text_equals_json_dumps_at_any_indent(self, value):
        expected = json.dumps(value, indent=2, sort_keys=True)
        assert verify._json_text(value, "\n") == expected
        assert verify._json_text(value, "\n    ") == expected.replace("\n", "\n    ")

    def test_leaves_no_cyclic_garbage(self):
        # the writer builds no closures, so a record leaves no cycles to collect
        cases = list(sweep_cases("even", 400, (TOTAL, UNIT)))
        write_sweep(io.StringIO(), "json", "even", 400, (TOTAL, UNIT), cases)
        gc.collect()
        gc.disable()
        try:
            write_sweep(io.StringIO(), "json", "even", 400, (TOTAL, UNIT), cases)
            unreachable = gc.collect()
        finally:
            gc.enable()
        assert unreachable < 50


# The golden sweeps (tests/test_golden.py), both graphs.
GOLDEN_SWEEPS = [("even", 40), ("ppow", 130), ("pq", 120), ("p2q", 200),
                 ("local", 64), ("localzn", 64), ("localpoly", 64)]


def held_summary(result) -> dict:
    """A sweep's summary read off its held cases, as a list of variants."""
    variants = [v for c in result.cases for v in c.variants]
    failed = sum(v.failed for v in variants)
    return {
        "family": result.family,
        "max_n": result.max_n,
        "kinds": list(result.kinds),
        "cases": len(result.cases),
        "variant_rows": len(variants),
        "failed_rows": failed,
        "printed_mismatch_rows": sum(not v.match for v in variants) - failed,
        "out_of_hypothesis_outcomes": {
            f"{c.ring}:{c.kind}": c.ok for c in result.cases if c.family.endswith("_pgtq")
        },
    }


def held_errata(cases) -> list[dict]:
    """The first printed mismatch of each formula among the sorted cases."""
    found = {}
    for case in sorted(cases, key=lambda c: (c.n, c.ring, c.kind)):
        for v in case.variants:
            if not v.match and not v.failed:
                label, expression = verify.ERRATA[case.family.removesuffix("_pgtq")]
                found.setdefault(label, {
                    "formula": label, "printed_expression": expression, "ring": case.ring,
                    "n": case.n, "kind": case.kind, "printed_value": v.closed_value.render(),
                    "oracle_value": case.oracle_value.render(),
                })
    return [found[label] for label in sorted(found)]


class TestStreamedSweep:
    @pytest.mark.parametrize("workers", [1, 3])
    @pytest.mark.parametrize("family, max_n", GOLDEN_SWEEPS)
    @pytest.mark.usefixtures("small_batches")
    def test_folds_equal_the_held_summary_and_errata(self, family, max_n, workers):
        kinds = (TOTAL, UNIT)
        held = sweep(family, max_n, kinds)
        buf = io.StringIO()
        ok = write_sweep(buf, "json", family, max_n, kinds,
                         sweep_cases(family, max_n, kinds, workers=workers))
        report = json.loads(buf.getvalue())
        assert report["summary"] == held_summary(held)
        assert report["errata"] == held_errata(held.cases)
        assert ok == all(c.ok for c in held.cases)
        assert canonical_json_body(buf.getvalue()) == canonical_json_body(json_report(held))

    def test_errata_cite_the_smallest_case_in_any_order(self):
        cases = sweep("ppow", 130, kinds=(TOTAL, UNIT)).cases + sweep(
            "p2q", 200, kinds=(UNIT,)).cases
        entries = errata_report(reversed(cases))
        assert entries == errata_report(cases)
        assert [e._asdict() for e in entries] == held_errata(cases)
        assert {e.formula: e.ring for e in entries} == {
            FORMULA_UNIT_PPOW: "Z_3", FORMULA_UNIT_P2Q_EDGES: "Z_45"}

    @pytest.mark.parametrize("workers", [1, 3])
    @pytest.mark.usefixtures("small_batches")
    def test_local_streams_f_before_z_at_each_n(self, workers):
        # F_p[x]/(x^k) sorts before Z_{p^a}, and the kinds are given out of order
        cases = list(sweep_cases("local", 64, (UNIT, TOTAL), workers=workers))
        keys = [(c.n, c.ring, c.kind) for c in cases]
        assert keys == sorted(keys)
        assert keys[:4] == [(2, "F_2[x]/(x^1)", TOTAL), (2, "F_2[x]/(x^1)", UNIT),
                            (2, "Z_2", TOTAL), (2, "Z_2", UNIT)]
        held = sweep("local", 64, (UNIT, TOTAL), workers=workers).cases
        assert [(c.n, c.ring, c.kind) for c in held] == keys

    def test_cases_run_as_they_are_read(self, monkeypatch):
        calls = count_calls(monkeypatch, "verify_case")
        cases = sweep_cases("pq", 100, (TOTAL, UNIT))
        assert calls == []
        first = next(cases)
        # Z_15's total case, and nothing past it
        assert (first.ring, first.kind) == ("Z_15", TOTAL) and len(calls) == 1

    def test_closing_the_stream_stops_the_pool(self):
        # the first case comes after one small batch, not the whole sweep
        # (0.1 s against 4 s on a 2-vCPU VM), and closing waits only for
        # the few batches already running (0.05 to 0.1 s there)
        before = set(multiprocessing.active_children())
        start = time.perf_counter()
        cases = sweep_cases("even", 3000, (TOTAL, UNIT), workers=2)
        assert next(cases).ring == "Z_2"
        assert time.perf_counter() - start < 1
        assert len(set(multiprocessing.active_children()) - before) == 2
        start = time.perf_counter()
        cases.close()  # the batches not yet started are cancelled
        assert time.perf_counter() - start < 0.3
        assert set(multiprocessing.active_children()) == before
