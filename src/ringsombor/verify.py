"""Sweep ring families, compare closed forms against brute force, check
structural facts, and serialize deterministic reports.

A sweep never aborts on a mismatch: mismatches are findings, recorded and
carried into the errata report.  Reports are byte-reproducible except for
the VOLATILE fields (the generated-at header and the per-case micros
timing); the canonical_* helpers strip those by name so runs can be
compared.
"""

from __future__ import annotations

import json
import time
from collections import namedtuple
from collections.abc import Iterator
from functools import cached_property
from itertools import compress

from . import closed_forms as cf
from .closed_forms import (  # the FORMULA_* labels are re-exported
    ERRATA,
    FORMULA_UNIT_LOCAL,
    FORMULA_UNIT_P2Q_EDGES,
    FORMULA_UNIT_PPOW,
    LOCAL,
    PGTQ,
)
from .graphs import (
    DEFAULT_CEILING,
    TOTAL,
    UNIT,
    CeilingExceededError,  # re-exported: callers catch it as verify.CeilingExceededError
    CirculantRows,
    EdgePartition,
    check_ceiling,
    edge_partition_of,
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
    moduli,
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

def _family_rings(family: str, max_n: int) -> Iterator[tuple[FiniteRing, bool]]:
    """(ring, use_local_forms) for every ring of the family with order <= max_n,
    in ascending order."""
    if family not in FAMILIES:
        raise ValueError(f"unknown family {family!r}; expected one of {FAMILIES}")
    for mod in moduli(max_n):
        if family in (LOCAL, LOCALZN, LOCALPOLY):
            if mod.is_prime_power:
                if family != LOCALPOLY:
                    yield ZnRing(mod.n), True
                if family != LOCALZN:
                    yield TruncatedPolyRing(*mod.factors[0]), True
        elif classify(mod).kind == family:
            yield ZnRing(mod.n), False


def _run_case_spec(case_spec: tuple) -> CaseResult:
    ring, use_local, kind, ceiling = case_spec
    return verify_case(ring, kind, use_local_forms=use_local, ceiling=ceiling)


class SweepResult(namedtuple("SweepResult", "family max_n kinds cases")):
    """A sweep's CaseResults, sorted by (n, ring, kind).  It has a
    __dict__, unlike the other result types, to hold records."""

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.cases)

    @cached_property
    def records(self) -> tuple[dict, ...]:
        """The cases' report records (case_record), built once and shared by
        the CSV rows and the JSON payload; readers must not change them."""
        return tuple(map(case_record, self.cases))

    def summary(self) -> dict:
        variants = [v for c in self.cases for v in c.variants]
        failed = sum(v.failed for v in variants)
        return {
            "family": self.family,
            "max_n": self.max_n,
            "kinds": list(self.kinds),
            "cases": len(self.cases),
            "variant_rows": len(variants),
            "failed_rows": failed,
            "printed_mismatch_rows": sum(not v.match for v in variants) - failed,
            "out_of_hypothesis_outcomes": {
                f"{c.ring}:{c.kind}": c.ok for c in self.cases if c.family.endswith(PGTQ)
            },
        }


def sweep(
    family: str,
    max_n: int,
    kinds=(TOTAL,),
    *,
    workers: int = 1,
    ceiling: int = DEFAULT_CEILING,
) -> SweepResult:
    """Verify every in-family ring of order <= max_n, for each graph kind.

    Case execution order is irrelevant: results are sorted by (n, ring,
    kind) before aggregation, so any worker count yields the same report.
    Every ring is checked against the ceiling before any case runs.
    """
    for kind in kinds:
        if kind not in (TOTAL, UNIT):
            raise ValueError(f"unknown graph kind {kind!r}")
    if not 1 <= workers <= MAX_WORKERS:
        raise ValueError(f"workers must be in 1..{MAX_WORKERS}, got {workers}")
    case_specs = []
    for ring, use_local in _family_rings(family, max_n):
        check_ceiling(ring.order, ring.name, ceiling)
        case_specs += [(ring, use_local, kind, ceiling) for kind in kinds]
    if not case_specs:
        raise EmptySweepError(f"no {family} cases with n <= {max_n}")
    if workers == 1:
        results = [_run_case_spec(cs) for cs in case_specs]
    else:
        # imported here so that a serial run never loads the pool machinery
        from concurrent.futures import ProcessPoolExecutor

        chunk = max(1, len(case_specs) // (workers * 4))
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_run_case_spec, case_specs, chunksize=chunk))
    results.sort(key=lambda c: (c.n, c.ring, c.kind))
    return SweepResult(family, max_n, tuple(kinds), tuple(results))


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
    time, and each fact is checked row by row.

    Each chunk first takes one partition test per row pair: the total and
    unit rows of x are disjoint and together hold every vertex but x.  When
    every pair in the chunk passes, duality holds there, each unit degree
    is n - 1 minus the total degree, and a zero-divisor's total row holds
    every other zero-divisor iff its unit row holds none, so a row needs one
    popcount and, for a zero-divisor, one AND.  A chunk that fails the test
    (an edge in both graphs or in neither, a self-loop, a stray bit) has
    the three facts checked one by one on its rows instead."""
    total = row_source(ring, TOTAL, ceiling=ceiling)
    unit = row_source(ring, UNIT, ceiling=ceiling)
    n, units = total.n, total.units
    full = (1 << n) - 1
    zm = full ^ units
    is_unit = vertex_flags(units, n)
    is_zero = vertex_flags(zm, n)
    predicted = predicted_degrees(ring, TOTAL), predicted_degrees(ring, UNIT)
    duality = degrees = zdiv_complete = True
    for idx in row_chunks(n):
        t_rows, u_rows = total.rows_of(idx), unit.rows_of(idx)
        t_degrees = list(map(int.bit_count, t_rows))
        zeros = is_zero[idx.start:idx.stop]
        if all(not t & u and t | u == full ^ (1 << x) for x, t, u in zip(idx, t_rows, u_rows)):
            u_degrees = [n - 1 - d for d in t_degrees]
            clique = not any(map(zm.__and__, compress(u_rows, zeros)))
        else:
            duality = duality and all(
                u == t ^ full ^ (1 << x) for x, t, u in zip(idx, t_rows, u_rows)
            )
            u_degrees = list(map(int.bit_count, u_rows))
            # each zero-divisor row holds every other zero-divisor and not itself
            clique = all(
                map(
                    int.__eq__,
                    map(zm.__and__, compress(t_rows, zeros)),
                    map(zm.__xor__, map((1).__lshift__, compress(idx, zeros))),
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


def structure_sweep(max_n: int, *, ceiling: int = DEFAULT_CEILING) -> list[StructureResult]:
    """check_structure for every Z_n with 2 <= n <= max_n; the first Z_n
    above the ceiling is refused before any check runs."""
    if max_n < 2:
        raise EmptySweepError(f"no rings with n <= {max_n}")
    if max_n > ceiling:
        # named, not built: building a ring factors its order
        first = max(ceiling + 1, 2)
        check_ceiling(first, f"Z_{first}", ceiling)
    return [check_structure(ZnRing(n), ceiling=ceiling) for n in range(2, max_n + 1)]


# ----------------------------------------------------------------------
# Complement identity

# Largest max_n identity_sweep accepts.  It evaluates one residual for each
# of about max_n^2 / 4 (n, k) pairs, so its time grows as max_n^2: 400 takes
# about 6 s.
IDENTITY_MAX_N = 400


class IdentityCase(namedtuple(
    "IdentityCase", "n k residual_zero circulant_checked circulant_match"
)):
    __slots__ = ()

    @property
    def ok(self) -> bool:
        return self.residual_zero and self.circulant_match is not False


def regular_circulant(n: int, k: int) -> CirculantRows:
    """A k-regular circulant on n vertices (n*k must be even): offsets 1 to
    k // 2 either way, and n / 2 when k is odd."""
    if (n * k) % 2:
        raise ValueError(f"no {k}-regular graph on {n} vertices")
    near = (1 << (k // 2)) - 1
    return CirculantRows(n, (near << 1) | (near << (n - k // 2)) | ((k % 2) << (n // 2)))


def identity_sweep(max_n: int, circulant_max: int | None = None) -> list[IdentityCase]:
    """For every n <= max_n and feasible k, check that the complement
    identity residual is exactly zero; for n up to circulant_max also read
    a k-regular circulant and its complement through the oracle and confirm
    both regular closed forms.  Before any case runs, circulant_max must be
    at least 0 (ValueError), the largest circulant, on
    min(circulant_max, max_n) vertices, is checked against DEFAULT_CEILING,
    and then max_n against IDENTITY_MAX_N (ValueError above it)."""
    if max_n < 3:
        raise EmptySweepError(f"identity sweep needs max_n >= 3, got {max_n}")
    if circulant_max is None:
        circulant_max = min(max_n, 100)
    if circulant_max < 0:
        raise ValueError(f"circulant_max must be at least 0, got {circulant_max}")
    largest = min(circulant_max, max_n)
    if largest > DEFAULT_CEILING:
        check_ceiling(largest, f"Z_{largest}", DEFAULT_CEILING)
    if max_n > IDENTITY_MAX_N:
        raise ValueError(f"identity sweep takes max_n <= {IDENTITY_MAX_N}, got {max_n}")
    out = []
    for n in range(3, max_n + 1):
        for k in range(n):
            if (n * k) % 2:
                continue
            residual = cf.complement_identity_residual(n, k)
            checked = n <= circulant_max
            match = None
            if checked:
                source = regular_circulant(n, k)
                match = (
                    sombor_of(degree_pair_counts(source)) == cf.so_regular(n, k)
                    and sombor_of(degree_pair_counts(source.complemented()))
                    == cf.so_regular(n, n - k - 1)
                )
            out.append(
                IdentityCase(
                    n=n,
                    k=k,
                    residual_zero=residual.is_zero,
                    circulant_checked=checked,
                    circulant_match=match,
                )
            )
    return out


# ----------------------------------------------------------------------
# Errata

ErrataEntry = namedtuple(
    "ErrataEntry", "formula printed_expression ring n kind printed_value oracle_value"
)


def errata_report(cases) -> list[ErrataEntry]:
    """One entry per printed formula that mismatched the oracle somewhere in
    the supplied results (a variant that neither matched nor failed), citing
    the smallest counterexample.  Empty when every printed formula matched."""
    found: dict[str, ErrataEntry] = {}
    for case in sorted(cases, key=lambda c: (c.n, c.ring, c.kind)):
        for v in case.variants:
            if v.match or v.failed:
                continue
            label, expression = ERRATA[case.family.removesuffix(PGTQ)]
            if label not in found:
                found[label] = ErrataEntry(
                    formula=label,
                    printed_expression=expression,
                    ring=case.ring,
                    n=case.n,
                    kind=case.kind,
                    printed_value=v.closed_value.render(),
                    oracle_value=case.oracle_value.render(),
                )
    return [found[label] for label in sorted(found)]


# ----------------------------------------------------------------------
# Report serialization

# Report fields that differ between runs of the same sweep.
VOLATILE = ("generated_at", "micros")

SWEEP_COLUMNS = (
    "n", "ring", "kind", "family", "variant", "alpha", "beta", "gamma", "edges",
    "closed_exact", "oracle_exact", "match", "micros",
)
STRUCTURE_COLUMNS = ("n", "ring", "local", "zdiv_complete", "degrees_ok", "duality_ok")
IDENTITY_COLUMNS = ("n", "k", "residual_zero", "circulant_checked", "circulant_match")


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


def write_report(fh, fmt: str, header, rows, payload: dict | None = None):
    """A report in fmt "csv" or "json".  CSV is a generated-at comment line
    and then write_csv_rows; JSON is payload (by default {"cases": rows})
    plus generated_at, with sorted keys."""
    if fmt == "csv":
        fh.write(f"# generated-at: {_timestamp()}\n")
        write_csv_rows(fh, header, rows)
    else:
        body = {"cases": rows} if payload is None else payload
        fh.write(json.dumps({"generated_at": _timestamp(), **body}, indent=2, sort_keys=True)
                 + "\n")


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


def sweep_rows(records) -> list[dict]:
    """The case records spread into one row per variant, with the oracle
    partition's fields as columns; an oracle-only case gets one row with
    variant "oracle" and match "na".  The records are left unchanged."""
    rows = []
    for record in records:
        base = {k: v for k, v in record.items() if k not in ("variants", "oracle_partition")}
        base.update(record["oracle_partition"])
        rows += [{**base, **v} for v in record["variants"] or [_ORACLE_ONLY]]
    return rows


def sweep_payload(result: SweepResult) -> dict:
    return {
        "summary": result.summary(),
        "cases": list(result.records),
        "errata": [e._asdict() for e in errata_report(result.cases)],
    }


def write_sweep_csv(result: SweepResult, fh):
    write_report(fh, "csv", SWEEP_COLUMNS, sweep_rows(result.records))


def write_sweep_json(result: SweepResult, fh):
    write_report(fh, "json", SWEEP_COLUMNS, None, sweep_payload(result))


def structure_rows(results) -> list[dict]:
    return [
        {"n": r.n, "ring": r.ring, "local": r.is_local, "zdiv_complete": r.zdiv_complete,
         "degrees_ok": r.degrees_ok, "duality_ok": r.duality_ok}
        for r in sorted(results, key=lambda r: (r.n, r.ring))
    ]


def identity_rows(results) -> list[dict]:
    return [r._asdict() for r in results]


def canonical_csv_body(text: str) -> str:
    """CSV report text minus the generated-at comment line and the VOLATILE
    columns, for determinism comparisons across runs and worker counts."""
    lines = [line.split(",") for line in text.splitlines() if line and not line.startswith("#")]
    keep = [i for i, col in enumerate(lines[0] if lines else ()) if col not in VOLATILE]
    return "\n".join(",".join(fields[i] for i in keep) for fields in lines) + "\n"


def canonical_json_body(text: str) -> str:
    """JSON report minus the VOLATILE keys, at the top and in each case."""
    payload = json.loads(text)
    for record in (payload, *payload.get("cases", ())):
        for name in VOLATILE:
            record.pop(name, None)
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"
