"""Sweep ring families, compare closed forms against brute force, check
structural facts, and serialize deterministic reports.

A sweep never aborts on a mismatch: mismatches are findings, recorded and
carried into the errata report.  Reports are written one record at a time,
and are byte-reproducible except for the VOLATILE fields (the generated-at
header and the per-case micros timing); the canonical_* helpers strip those
by name so runs can be compared.
"""

from __future__ import annotations

import io
import json
import time
from collections import deque, namedtuple
from collections.abc import Iterator
from itertools import compress, islice

from . import closed_forms as cf
from . import rings
from .closed_forms import (
    ERRATA,
    FORMULA_UNIT_P2Q_EDGES,  # re-exported: perfbench reads it as verify.FORMULA_UNIT_P2Q_EDGES
    LOCAL,
    PGTQ,
)
from .graphs import (
    DEFAULT_CEILING,
    FLIP_FLAGS,
    TOTAL,
    UNIT,
    CirculantRows,
    EdgePartition,
    OffsetMasks,
    check_ceiling,
    edge_partition_of,
    full_lifts,
    predicted_degrees,
    row_chunks,
    row_source,
    vertex_flags,
)
from .rings import (
    EVEN,
    ODD_P2Q,
    ODD_PQ,
    ODD_PRIME_POWER,
    FiniteRing,
    TruncatedPolyRing,
    ZnRing,
    classify,
)
from .sombor import degree_pair_counts, sombor_of

# Sweep families: the four Z_n modulus families, and the local rings (Z_{p^a}
# and F_p[x]/(x^k) together, or either alone).
LOCALZN = "localzn"
LOCALPOLY = "localpoly"
FAMILIES = (EVEN, ODD_PRIME_POWER, ODD_PQ, ODD_P2Q, LOCAL, LOCALZN, LOCALPOLY)

# Most worker processes a sweep may start: under the fork start method the
# pool starts all of them at its first task.  61 is the limit that
# ProcessPoolExecutor itself enforces on Windows.
MAX_WORKERS = 61


class EmptySweepError(ValueError):
    """The requested family/bound combination contains no cases."""


class VariantResult(namedtuple(
    "VariantResult", "variant closed_value closed_partition value_match partition_match"
)):
    """One closed-form variant (unique, printed or corrected) against the
    oracle: its RadicalSum value, its EdgePartition or None, and whether
    each matched (partition_match None when the form gives no partition)."""

    __slots__ = ()

    @property
    def match(self) -> bool:
        if self.partition_match is False:
            return False
        return self.value_match

    @property
    def failed(self) -> bool:
        """The verdict rule: a unique or corrected form that disagrees with
        the oracle fails; a printed one that disagrees is an erratum finding."""
        return not self.match and self.variant != cf.PRINTED


class CaseResult(namedtuple(
    "CaseResult", "ring n kind family oracle_value oracle_partition variants micros"
)):
    """One ring and graph kind: the oracle's RadicalSum and EdgePartition,
    a VariantResult per applicable closed form, and the case's time."""

    __slots__ = ()

    @property
    def ok(self) -> bool:
        """True when no variant failed (VariantResult.failed)."""
        return not any(v.failed for v in self.variants)


def verify_case(
    ring: FiniteRing,
    kind: str,
    *,
    use_local_forms: bool = False,
    ceiling: int = DEFAULT_CEILING,
) -> CaseResult:
    """Run the brute-force oracle over the graph's row source, evaluate every
    applicable closed-form variant, and record exact-match flags.

    Rings whose family has no closed form come back oracle-only (no
    variants).  use_local_forms switches a local Z_n to the local-ring
    formulas instead of its Z_n family formulas.
    """
    start = time.perf_counter()
    source = row_source(ring, kind, ceiling=ceiling)
    table = degree_pair_counts(source, source.units)
    oracle_value = sombor_of(table)
    oracle_partition = edge_partition_of(table)
    family_tag, forms = cf.ring_forms(ring, kind, use_local_forms)

    variants = tuple(
        VariantResult(
            variant=v,
            closed_value=value,
            closed_partition=part,
            value_match=(value == oracle_value),
            partition_match=None if part is None else (part == oracle_partition),
        )
        for v, value, part in forms
    )
    micros = int((time.perf_counter() - start) * 1e6)
    return CaseResult(
        ring=ring.name,
        n=ring.order,
        kind=kind,
        family=family_tag,
        oracle_value=oracle_value,
        oracle_partition=oracle_partition,
        variants=variants,
        micros=micros,
    )


# ----------------------------------------------------------------------
# Sweeps

def _family_rings(family: str, max_n: int,
                  _min_n: int = 2) -> Iterator[tuple[FiniteRing, bool]]:
    """(ring, use_local_forms) for every ring of the family with order in
    _min_n..max_n, in report order: ascending n, and at a prime power
    F_p[x]/(x^k) before Z_{p^a}, as their names sort.  Each n is factored
    outside factorize's cache, which only the rings built enter."""
    if family not in FAMILIES:
        raise ValueError(f"unknown family {family!r}; expected one of {FAMILIES}")
    for mod in map(rings._modulus, range(_min_n, max_n + 1)):
        if family in (LOCAL, LOCALZN, LOCALPOLY):
            if mod.is_prime_power:
                if family != LOCALZN:
                    yield TruncatedPolyRing(*mod.factors[0]), True
                if family != LOCALPOLY:
                    yield ZnRing(mod.n), True
        elif classify(mod).kind == family:
            yield ZnRing(mod.n), False


def _run_case_spec(case_spec: tuple) -> CaseResult:
    ring, use_local, kind, ceiling = case_spec
    return verify_case(ring, kind, use_local_forms=use_local, ceiling=ceiling)


def _run_batch(batch: list) -> list[CaseResult]:
    return list(map(_run_case_spec, batch))


# A held sweep: its CaseResults in report order (n, ring, kind).
SweepResult = namedtuple("SweepResult", "family max_n kinds cases")


def sweep_cases(
    family: str,
    max_n: int,
    kinds=(TOTAL,),
    *,
    workers: int = 1,
    ceiling: int = DEFAULT_CEILING,
) -> Iterator[CaseResult]:
    """The cases of every in-family ring of order <= max_n, for each graph
    kind, run as they are read.  They come in report order (n, ring, kind)
    as they are made: _family_rings gives the rings in that order, and the
    kinds are taken sorted.

    The arguments are checked at the call, before any case runs: the kinds,
    the worker count, the family, every ring against the ceiling, and that
    the sweep is not empty.  The ceiling check reads only orders above the
    ceiling and refuses the first ring there; then the sweep is empty when
    kinds is, or when the family has no ring up to max_n, read from n = 2
    up to its first ring.  Under workers > 1 the pool holds at most
    2 * workers batches of _SPEC_BATCH specs at a time (_run_cases).
    """
    for kind in kinds:
        if kind not in (TOTAL, UNIT):
            raise ValueError(f"unknown graph kind {kind!r}")
    if not 1 <= workers <= MAX_WORKERS:
        raise ValueError(f"workers must be in 1..{MAX_WORKERS}, got {workers}")
    past = next(_family_rings(family, max_n, _min_n=max(ceiling + 1, 2)), None)
    if past:
        check_ceiling(past[0].order, past[0].name, ceiling)
    if not kinds or next(_family_rings(family, max_n), None) is None:
        raise EmptySweepError(f"no {family} cases with n <= {max_n}")
    specs = (
        (ring, use_local, kind, ceiling)
        for ring, use_local in _family_rings(family, max_n)
        for kind in sorted(kinds)
    )
    return _run_cases(specs, workers)


# Case specs a sweep runs at a time: a serial sweep makes them in one loop
# (about 4 ms of perfbench sweep-serial's 0.8 s faster than one between every
# two cases, on a 2-vCPU VM), and the pool runs each batch as one task.
_SPEC_BATCH = 64


def _run_cases(specs, workers: int) -> Iterator[CaseResult]:
    """The CaseResult of each spec, in spec order.  Under workers > 1 at most
    2 * workers batches are in the pool at a time: a batch's cases are
    yielded once it is done, and the next batch is sent in its place, so the
    specs are read as the cases are, and a sweep holds O(workers) batches."""
    batches = iter(lambda: list(islice(specs, _SPEC_BATCH)), [])
    if workers == 1:
        for batch in batches:
            yield from map(_run_case_spec, batch)
        return
    # imported here so that a serial run never loads the pool machinery
    from concurrent.futures import ProcessPoolExecutor

    pool = ProcessPoolExecutor(max_workers=workers)
    try:
        window = deque(pool.submit(_run_batch, b) for b in islice(batches, 2 * workers))
        while window:
            cases = window.popleft().result()
            window.extend(pool.submit(_run_batch, b) for b in islice(batches, 1))
            yield from cases
    finally:  # a stream closed early cancels the batches not yet started
        pool.shutdown(cancel_futures=True)


def sweep(
    family: str,
    max_n: int,
    kinds=(TOTAL,),
    *,
    workers: int = 1,
    ceiling: int = DEFAULT_CEILING,
) -> SweepResult:
    """sweep_cases, held: every in-family ring of order <= max_n, for each
    graph kind, in report order (n, ring, kind), so any worker count yields
    the same report.  Every ring is checked against the ceiling before any
    case runs."""
    cases = sweep_cases(family, max_n, kinds, workers=workers, ceiling=ceiling)
    return SweepResult(family, max_n, tuple(kinds), tuple(cases))


# ----------------------------------------------------------------------
# Structural checks

class StructureResult(namedtuple(
    "StructureResult", "ring n is_local zdiv_complete degrees_ok duality_ok"
)):
    __slots__ = ()

    @property
    def consistent(self) -> bool:
        """Degrees and duality hold, and the zero-divisor clique appears
        exactly for local rings."""
        return self.degrees_ok and self.duality_ok and self.zdiv_complete == self.is_local


def check_structure(ring: FiniteRing, *, ceiling: int = DEFAULT_CEILING) -> StructureResult:
    """Three facts about a ring's graphs: is the zero-divisor-induced
    subgraph of the total graph complete, do both degree predictions hold,
    and is the unit graph exactly the complement of the total graph.  The
    two graphs' row sources are read side by side, one chunk of rows at a
    time (skewed_rows), and each fact is checked row by row.  Both sources
    come from graphs.row_source on one ring, so their chunks share a skew:
    those of a Z_n ring shorter than the graph come with skew 1, row j
    holding vertex y at bit y + j, and every chunk is tested as it comes,
    against masks moved up by j (graphs.OffsetMasks) and with row j's own
    vertex x at bit x + j.

    Each chunk first takes one partition test per row pair: the total and
    unit rows of x are disjoint and together hold every vertex but x.  When
    every pair in the chunk passes, duality holds there, each unit degree
    is n - 1 minus the total degree, and a zero-divisor's total row holds
    every other zero-divisor iff its unit row holds none, so a row needs one
    popcount and, for a zero-divisor, one AND.  A chunk that fails the test
    (an edge in both graphs or in neither, a self-loop, a stray bit) has
    the three facts checked one by one on its rows instead, on the same
    moved masks and self positions."""
    total = row_source(ring, TOTAL, ceiling=ceiling)
    unit = row_source(ring, UNIT, ceiling=ceiling)
    n, units = total.n, total.units
    full = (1 << n) - 1
    zm = full ^ units
    full_masks, zero_masks = full_lifts(n), OffsetMasks(zm)
    is_unit = vertex_flags(units, n)
    is_zero = is_unit.translate(FLIP_FLAGS)
    predicted = predicted_degrees(ring, TOTAL), predicted_degrees(ring, UNIT)
    duality = degrees = zdiv_complete = True
    for idx in row_chunks(n):
        (t_rows, skew), (u_rows, _) = total.skewed_rows(idx), unit.skewed_rows(idx)
        t_degrees = list(map(int.bit_count, t_rows))
        zeros = is_zero[idx.start:idx.stop]
        # row j's own vertex x sits at bit x + skew * j
        selves = range(idx.start, idx.stop + skew * len(idx), 1 + skew)
        lifts = full_masks.of(len(idx), skew)  # a list, or one mask repeated: read twice
        if all(
            not t & u and t | u == lift ^ (1 << x)
            for x, t, u, lift in zip(selves, t_rows, u_rows, lifts)
        ):
            u_degrees = [n - 1 - d for d in t_degrees]
            lifted = zero_masks.of(len(idx), skew, zeros)
            clique = not any(map(int.__and__, compress(u_rows, zeros), lifted))
        else:
            duality = duality and all(
                u == t ^ lift ^ (1 << x) for x, t, u, lift in zip(selves, t_rows, u_rows, lifts)
            )
            u_degrees = list(map(int.bit_count, u_rows))
            # each zero-divisor row holds every other zero-divisor and not itself
            clique = all(
                t & z == z ^ (1 << x)
                for x, t, z in zip(
                    compress(selves, zeros),
                    compress(t_rows, zeros),
                    zero_masks.of(len(idx), skew, zeros),
                )
            )
        flags = is_unit[idx.start:idx.stop]
        degrees = degrees and all(
            degs == list(map(pair.__getitem__, flags))
            for degs, pair in zip((t_degrees, u_degrees), predicted)
        )
        zdiv_complete = zdiv_complete and clique
        del t_rows, u_rows  # before the next chunk's rows are made
    return StructureResult(
        ring=ring.name,
        n=ring.order,
        is_local=ring.is_local,
        zdiv_complete=zdiv_complete,
        degrees_ok=degrees,
        duality_ok=duality,
    )


def structure_cases(max_n: int, *, ceiling: int = DEFAULT_CEILING) -> Iterator[StructureResult]:
    """check_structure for every Z_n with 2 <= n <= max_n, each run as it is
    read.  Checked at the call: the range is not empty, and the first Z_n
    above the ceiling is refused, named and not built (building factors n)."""
    if max_n < 2:
        raise EmptySweepError(f"no rings with n <= {max_n}")
    if max_n > ceiling:
        first = max(ceiling + 1, 2)
        check_ceiling(first, f"Z_{first}", ceiling)
    return (check_structure(ZnRing(n), ceiling=ceiling) for n in range(2, max_n + 1))


# ----------------------------------------------------------------------
# Complement identity

# Largest max_n identity_cases accepts.  It evaluates one residual for each
# of about max_n^2 / 4 (n, k) pairs, so its time grows as max_n^2: 400 takes
# about 2.2 s on a 2-vCPU VM.
IDENTITY_MAX_N = 400


class IdentityCase(namedtuple(
    "IdentityCase", "n k residual_zero circulant_checked circulant_match"
)):
    __slots__ = ()

    @property
    def ok(self) -> bool:
        return self.residual_zero and self.circulant_match is not False


def regular_circulant(n: int, k: int) -> CirculantRows:
    """A k-regular circulant on n vertices (0 <= k < n, n*k even): offsets
    1 to k // 2 either way, and n / 2 when k is odd."""
    if not 0 <= k <= n - 1:
        raise ValueError(f"degree {k} out of range for {n} vertices")
    if (n * k) % 2:
        raise ValueError(f"no {k}-regular graph on {n} vertices")
    near = (1 << (k // 2)) - 1
    return CirculantRows(n, (near << 1) | (near << (n - k // 2)) | ((k % 2) << (n // 2)))


def identity_cases(max_n: int, circulant_max: int | None = None) -> Iterator[IdentityCase]:
    """For every n <= max_n and feasible k, the case that checks that the
    complement identity residual is exactly zero and, for n up to
    circulant_max, that a k-regular circulant and its complement read
    through the oracle give both regular closed forms; each runs as it is
    read.  Checked at the call: max_n >= 3, circulant_max >= 0 (ValueError),
    the largest circulant, on min(circulant_max, max_n) vertices, within
    DEFAULT_CEILING, and then max_n <= IDENTITY_MAX_N (ValueError)."""
    if max_n < 3:
        raise EmptySweepError(f"identity sweep needs max_n >= 3, got {max_n}")
    if circulant_max is None:
        circulant_max = min(max_n, 100)
    if circulant_max < 0:
        raise ValueError(f"circulant_max must be at least 0, got {circulant_max}")
    largest = min(circulant_max, max_n)
    check_ceiling(largest, f"Z_{largest}", DEFAULT_CEILING)
    if max_n > IDENTITY_MAX_N:
        raise ValueError(f"identity sweep takes max_n <= {IDENTITY_MAX_N}, got {max_n}")
    return (_identity_case(n, k, n <= circulant_max)
            for n in range(3, max_n + 1) for k in range(n) if not (n * k) % 2)


def _identity_case(n: int, k: int, circulant: bool) -> IdentityCase:
    """The (n, k) case of identity_cases, with the circulant read or not."""
    residual = cf.complement_identity_residual(n, k)
    match = None
    if circulant:
        source = regular_circulant(n, k)
        match = (sombor_of(degree_pair_counts(source)) == cf.so_regular(n, k)
                 and sombor_of(degree_pair_counts(source.complemented()))
                 == cf.so_regular(n, n - k - 1))
    return IdentityCase(n, k, residual.is_zero, circulant, match)


# ----------------------------------------------------------------------
# Errata

ErrataEntry = namedtuple(
    "ErrataEntry", "formula printed_expression ring n kind printed_value oracle_value"
)


class SweepFold:
    """A sweep report's running totals, updated by add(case) as each case
    is written.  summary is the report's summary dict itself, its counts
    current after each add; errata() cites the smallest (n, ring, kind)
    counterexample seen so far of each printed formula."""

    __slots__ = ("summary", "_errata")

    def __init__(self, family, max_n, kinds):
        self.summary = {
            "family": family,
            "max_n": max_n,
            "kinds": list(kinds),
            "cases": 0,
            "variant_rows": 0,
            "failed_rows": 0,
            "printed_mismatch_rows": 0,
            "out_of_hypothesis_outcomes": {},
        }
        self._errata: dict[str, tuple] = {}  # label: (key, case, variant)

    def add(self, case: CaseResult) -> CaseResult:
        """Count case in, and return it."""
        summary = self.summary
        failed = 0
        for v in case.variants:
            if v.match:
                continue
            if v.failed:
                failed += 1
                continue
            summary["printed_mismatch_rows"] += 1
            label = ERRATA[case.family.removesuffix(PGTQ)][0]
            key = (case.n, case.ring, case.kind)
            if label not in self._errata or key < self._errata[label][0]:
                self._errata[label] = (key, case, v)
        summary["cases"] += 1
        summary["variant_rows"] += len(case.variants)
        summary["failed_rows"] += failed
        if case.family.endswith(PGTQ):
            summary["out_of_hypothesis_outcomes"][f"{case.ring}:{case.kind}"] = not failed
        return case

    def errata(self) -> Iterator[ErrataEntry]:
        """One entry per printed formula that mismatched the oracle (a
        variant that neither matched nor failed), by label.  A generator, so
        a report reads them when it reads it, after the cases they follow."""
        for label in sorted(self._errata):
            _, case, v = self._errata[label]
            yield ErrataEntry(
                formula=label,
                printed_expression=ERRATA[case.family.removesuffix(PGTQ)][1],
                ring=case.ring,
                n=case.n,
                kind=case.kind,
                printed_value=v.closed_value.render(),
                oracle_value=case.oracle_value.render(),
            )


def errata_report(cases) -> list[ErrataEntry]:
    """One entry per printed formula that mismatched the oracle somewhere in
    the supplied results (a variant that neither matched nor failed), citing
    the smallest counterexample.  Empty when every printed formula matched."""
    fold = SweepFold(None, None, ())
    for case in cases:
        fold.add(case)
    return list(fold.errata())


# ----------------------------------------------------------------------
# Report serialization

# Report fields that differ between runs of the same sweep.
VOLATILE = ("generated_at", "micros")

SWEEP_COLUMNS = (
    "n", "ring", "kind", "family", "variant", "alpha", "beta", "gamma", "edges",
    "closed_exact", "oracle_exact", "match", "micros",
)
STRUCTURE_COLUMNS = ("n", "ring", "local", "zdiv_complete", "degrees_ok", "duality_ok")
IDENTITY_COLUMNS = IdentityCase._fields


def _timestamp() -> str:
    import datetime  # here, so that importing the package does not load it

    return datetime.datetime.now(datetime.timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ")


def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)


def write_csv_rows(fh, header, rows):
    """The header line, then one line per row dict, in header column order."""
    fh.write(",".join(header) + "\n")
    for row in rows:
        fh.write(",".join(_cell(row[col]) for col in header) + "\n")


# json.dumps's own string escape (its C function where built) and its words
# for the floats that have no JSON literal
_ESCAPE = json.encoder.encode_basestring_ascii
_FLOAT_WORDS = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _json_text(value, indent: str) -> str:
    """json.dumps(value, indent=2, sort_keys=True) with indent ("\n" and the
    spaces of value's own line) after each of its newlines, written without
    json's encoder: with an indent that encoder is pure Python and leaves
    reference cycles behind on every call.  Dict keys are strings."""
    if isinstance(value, str):
        return _ESCAPE(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, float):
        text = float.__repr__(value)
        return _FLOAT_WORDS.get(text, text)
    inner = indent + "  "
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        items = [_json_text(item, inner) for item in value]
        return f"[{inner}{(',' + inner).join(items)}{indent}]"
    if isinstance(value, dict):
        if not value:
            return "{}"
        items = [f"{_ESCAPE(key)}: {_json_text(value[key], inner)}" for key in sorted(value)]
        return f"{{{inner}{(',' + inner).join(items)}{indent}}}"
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def write_json(fh, payload: dict):
    """Write json.dumps(payload, indent=2, sort_keys=True) + "\n", byte for
    byte, one top-level value at a time and each item of a list value on
    its own, so that a list value may be an iterator, read once and never
    held.  payload's keys are strings; its values are read in key order."""
    fh.write("{")
    sep = "\n  "
    for key in sorted(payload):
        value = payload[key]
        fh.write(f"{sep}{_ESCAPE(key)}: ")
        sep = ",\n  "
        if isinstance(value, (list, Iterator)):
            mark = "[\n    "
            for item in value:
                fh.write(mark + _json_text(item, "\n    "))
                mark = ",\n    "
            fh.write("[]" if mark == "[\n    " else "\n  ]")
        else:
            fh.write(_json_text(value, "\n  "))
    fh.write("\n}\n" if payload else "}\n")


def write_report(fh, fmt: str, header, rows):
    """A report in fmt "csv" or "json", written one row or record at a
    time.  CSV is a generated-at comment line and then write_csv_rows; JSON
    is {"cases": rows} plus generated_at, with sorted keys (write_json)."""
    if fmt == "csv":
        fh.write(f"# generated-at: {_timestamp()}\n")
        write_csv_rows(fh, header, rows)
    else:
        write_json(fh, {"generated_at": _timestamp(), "cases": rows})


def partition_payload(part: EdgePartition | None):
    if part is None:
        return None
    return {"alpha": part.alpha, "beta": part.beta, "gamma": part.gamma, "edges": part.total}


def case_record(c: CaseResult) -> dict:
    """One case's JSON report record, the one case schema of every report."""
    return {
        "n": c.n,
        "ring": c.ring,
        "kind": c.kind,
        "family": c.family,
        "oracle_exact": c.oracle_value.render(),
        "oracle_partition": partition_payload(c.oracle_partition),
        "variants": [
            {
                "variant": v.variant,
                "closed_exact": v.closed_value.render(),
                "closed_partition": partition_payload(v.closed_partition),
                "match": v.match,
            }
            for v in c.variants
        ],
        "micros": c.micros,
    }


# The one CSV row of a case with no closed form.
_ORACLE_ONLY = {"variant": "oracle", "closed_exact": None, "match": "na"}


def sweep_rows(records) -> Iterator[dict]:
    """The case records spread into one row per variant, with the oracle
    partition's fields as columns; an oracle-only case gets one row with
    variant "oracle" and match "na".  The records are left unchanged."""
    for record in records:
        base = {k: v for k, v in record.items() if k not in ("variants", "oracle_partition")}
        base.update(record["oracle_partition"])
        for v in record["variants"] or [_ORACLE_ONLY]:
            yield {**base, **v}


def write_sweep(fh, fmt: str, family, max_n, kinds, cases) -> bool:
    """The sweep report of cases, read once in report order (n, ring, kind)
    and written one record at a time: fmt "csv" is its rows (sweep_rows),
    "json" its payload of summary, cases and errata.  No record is held
    past its writing, so a report stopped part-way holds the records
    written so far.  True when no variant failed."""
    fold = SweepFold(family, max_n, kinds)
    records = map(case_record, map(fold.add, cases))
    if fmt == "csv":
        write_report(fh, "csv", SWEEP_COLUMNS, sweep_rows(records))
    else:
        # fold's summary and errata are complete once the records are read
        errata = map(ErrataEntry._asdict, fold.errata())
        write_json(fh, {"generated_at": _timestamp(), "summary": fold.summary,
                        "cases": records, "errata": errata})
    return not fold.summary["failed_rows"]


def write_sweep_csv(result: SweepResult, fh):
    write_sweep(fh, "csv", *result)


def write_sweep_json(result: SweepResult, fh):
    write_sweep(fh, "json", *result)


def structure_record(r: StructureResult) -> dict:
    """One StructureResult's report record: a CSV row, and a JSON record."""
    return {"n": r.n, "ring": r.ring, "local": r.is_local, "zdiv_complete": r.zdiv_complete,
            "degrees_ok": r.degrees_ok, "duality_ok": r.duality_ok}


def canonical_csv_body(text: str) -> str:
    """CSV report text minus the generated-at comment line and the VOLATILE
    columns, for determinism comparisons across runs and worker counts."""
    out = io.StringIO()
    keep = None
    for line in io.StringIO(text, newline=None):
        line = line.rstrip("\n")
        if not line or line.startswith("#"):
            continue
        fields = line.split(",")
        if keep is None:
            keep = [i for i, col in enumerate(fields) if col not in VOLATILE]
        out.write(",".join(fields[i] for i in keep) + "\n")
    return out.getvalue() or "\n"


def canonical_json_body(text: str) -> str:
    """JSON report minus the VOLATILE keys, at the top and in each case."""
    payload = json.loads(text)
    for record in (payload, *payload.get("cases", ())):
        for name in VOLATILE:
            record.pop(name, None)
    out = io.StringIO()
    write_json(out, payload)
    return out.getvalue()
