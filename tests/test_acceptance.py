"""Acceptance suite: every criterion exact at desk scale, one line each.

All Sombor comparisons are exact RadicalSum equality (zero tolerance); edge
partitions compare componentwise.  Run with -s to watch the PASS lines.
"""

import io
import random
from fractions import Fraction

from ringsombor.closed_forms import CORRECTED, PRINTED
from ringsombor.graphs import TOTAL, UNIT
from ringsombor.radicals import RadicalSum, radical_normalize
from ringsombor.rings import TruncatedPolyRing, ZnRing, primes_up_to
from ringsombor.verify import (
    canonical_csv_body,
    canonical_json_body,
    check_structure,
    identity_cases,
    structure_cases,
    sweep,
    write_sweep_csv,
    write_sweep_json,
)


def report(name, ok, detail=""):
    print(f"[{'PASS' if ok else 'FAIL'}] {name}" + (f": {detail}" if detail else ""))
    assert ok, f"{name} failed: {detail}"


def variants_by_name(case):
    return {v.variant: v for v in case.variants}


def test_criterion_1_even_family():
    result = sweep("even", 2000, kinds=(TOTAL, UNIT))
    bad = [c for c in result.cases if not c.ok]
    report("even family n <= 2000, exact oracle equality both kinds",
           not bad, f"{len(result.cases)} cases")


def test_criterion_2_odd_prime_powers():
    result = sweep("ppow", 2187, kinds=(TOTAL, UNIT))
    bad = [c for c in result.cases if not c.ok]
    z5 = next(c for c in result.cases if c.n == 5 and c.kind == UNIT)
    printed = variants_by_name(z5)[PRINTED]
    oracle_ok = z5.oracle_value == RadicalSum({1: 20, 2: 12})
    printed_ok = (not printed.match
                  and printed.closed_value == RadicalSum({1: 20, 2: Fraction(33, 2)}))
    report("odd prime powers p^a <= 2187: unique/corrected exact, printed off at n=5",
           not bad and oracle_ok and printed_ok,
           f"{len(result.cases)} cases")


def test_criterion_3_pq_family():
    result = sweep("pq", 3000, kinds=(TOTAL, UNIT))
    bad = [c for c in result.cases if not c.ok]
    partition_checked = all(
        v.partition_match is True for c in result.cases for v in c.variants
    )
    by_key = {(c.n, c.kind): c for c in result.cases}
    t15 = by_key[(15, TOTAL)]
    u15 = by_key[(15, UNIT)]
    spots = (
        (t15.oracle_partition.alpha, t15.oracle_partition.beta, t15.oracle_partition.gamma)
        == (13, 16, 20)
        and t15.oracle_value == RadicalSum({2: 218, 85: 16})
        and (u15.oracle_partition.alpha, u15.oracle_partition.beta, u15.oracle_partition.gamma)
        == (8, 40, 8)
        and u15.oracle_value == RadicalSum({2: 120, 113: 40})
    )
    report("pq family pq <= 3000: partitions and Sombor values exact",
           not bad and partition_checked and spots,
           f"{len(result.cases)} cases")


def test_criterion_4_p2q_family():
    result = sweep("p2q", 5000, kinds=(TOTAL, UNIT))
    in_hyp = [c for c in result.cases if c.family == "p2q"]
    extension = [c for c in result.cases if c.family == "p2q_pgtq"]
    bad = [c for c in in_hyp if not c.ok]
    u45 = next(c for c in in_hyp if c.n == 45 and c.kind == UNIT)
    by_variant = variants_by_name(u45)
    edges_ok = (
        u45.oracle_partition.total == 528
        and by_variant[CORRECTED].closed_partition.total == 528
        and by_variant[CORRECTED].match
        and by_variant[PRINTED].closed_partition.total == 1584
        and not by_variant[PRINTED].match
    )
    ext_matches = sum(1 for c in extension if c.ok)
    ns = sorted({c.n for c in extension})
    assert 75 in ns and 147 in ns
    print(f"      p>q extension: {ext_matches}/{len(extension)} cases also match "
          f"(orders {ns[:6]}...)")
    report("p^2*q family <= 5000 (p<q): partition+Sombor exact, printed |E| off at 45",
           not bad and edges_ok, f"{len(in_hyp)} in-hypothesis cases")


def test_criterion_5_local_rings():
    zn = sweep("localzn", 2048, kinds=(TOTAL, UNIT))
    poly = sweep("localpoly", 729, kinds=(TOTAL, UNIT))
    bad = [c for c in (*zn.cases, *poly.cases) if not c.ok]
    z9 = next(c for c in zn.cases if c.n == 9 and c.kind == UNIT and c.ring == "Z_9")
    printed = variants_by_name(z9)[PRINTED]
    z9_ok = (
        printed.closed_value == RadicalSum({5: 54})
        and not printed.match
        and z9.oracle_value == RadicalSum({61: 18, 2: 30})
    )
    report("local rings Z_{p^a} <= 2048 and F_p[x]/(x^k) <= 729: exact both 2-cases",
           not bad and z9_ok,
           f"{len(zn.cases)} + {len(poly.cases)} cases")


def test_criterion_6_structure_suite():
    results = list(structure_cases(500))
    degrees = all(r.degrees_ok for r in results)
    duality = all(r.duality_ok for r in results)
    clique_iff_prime_power = all(r.zdiv_complete == r.is_local for r in results)

    local_rings = []
    for p in primes_up_to(2048):
        n = p
        while n <= 2048:
            local_rings.append(ZnRing(n))
            n *= p
    for p in primes_up_to(729):
        k = 1
        while p**k <= 729:
            local_rings.append(TruncatedPolyRing(p, k))
            k += 1
    local_complete = all(check_structure(r).zdiv_complete for r in local_rings)

    report("structure n <= 500: degrees, duality, zero-divisor clique iff local",
           degrees and duality and clique_iff_prime_power and local_complete,
           f"{len(results)} moduli + {len(local_rings)} local rings")


def test_criterion_7_complement_identity():
    cases = list(identity_cases(200, circulant_max=100))
    residuals = all(c.residual_zero for c in cases)
    checked = [c for c in cases if c.circulant_checked]
    circulants = all(c.circulant_match for c in checked)
    report("complement identity: residual 0 for n <= 200, circulant oracle n <= 100",
           residuals and circulants,
           f"{len(cases)} (n,k) pairs, {len(checked)} circulant-verified")


def test_criterion_8_determinism_and_round_trip():
    seq = sweep("pq", 400, kinds=(TOTAL, UNIT), workers=1)
    par = sweep("pq", 400, kinds=(TOTAL, UNIT), workers=8)
    bodies = {}
    for write, canonical in ((write_sweep_csv, canonical_csv_body),
                             (write_sweep_json, canonical_json_body)):
        buf_seq, buf_par = io.StringIO(), io.StringIO()
        write(seq, buf_seq)
        write(par, buf_par)
        bodies[write] = canonical(buf_seq.getvalue()) == canonical(buf_par.getvalue())
    csv_same, json_same = bodies[write_sweep_csv], bodies[write_sweep_json]

    rng = random.Random(1234)
    squarefree = [s for s in range(1, 500) if radical_normalize(s)[0] == 1]
    trips = 0
    for _ in range(10_000):
        terms = {}
        for s in rng.sample(squarefree, rng.randint(0, 4)):
            num = rng.randint(-10**9, 10**9)
            if num:
                terms[s] = Fraction(num, rng.randint(1, 10**4))
        value = RadicalSum(terms)
        if RadicalSum.parse(value.render()) == value:
            trips += 1
    report("determinism: 1 vs 8 workers byte-identical bodies; 10^4 text round-trips",
           csv_same and json_same and trips == 10_000,
           f"{trips} round-trips")
