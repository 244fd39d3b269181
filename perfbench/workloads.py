"""Workload inputs and measured phases.

Inputs depend only on the workload, the seed and the size, and are made
with this file's own number theory, so generating them touches none of the
package's caches.  Each measured phase returns its wall time split into
back-to-back chunks, one latency per case, the checks it ran and a digest of
its canonical output.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import io
import itertools
import json
import math
import random
import time

WORKLOADS = ("sweep-serial", "closed-forms", "large-ring")

# Workloads whose inputs, and so outputs, do not depend on the seed (the
# seed only orders large-ring's rings, and its digest is order-free).
SEED_FREE = ("sweep-serial", "large-ring")

# sweep: the acceptance families (even <= 2000, pq <= 3000, p^2*q <= 5000),
# scaled down so that one repetition takes about 2.5 s on a 2-vCPU VM.
SIZES = {
    "full": {
        "sweep": (("even", 800), ("pq", 1200), ("p2q", 2000)),
        "moduli": 120,
        # one ring per kind with order in [2^13, 2^14]: even, odd prime
        # power, pq, p^2*q, an odd modulus with no closed form, and
        # F_2[x]/(x^13)
        "large": (("zn", 12014), ("zn", 14641), ("zn", 15591), ("zn", 13189),
                  ("zn", 15015), ("poly", 2, 13)),
    },
    "toy": {
        "sweep": (("even", 40), ("pq", 60), ("p2q", 100)),
        "moduli": 4,
        "large": (("zn", 30), ("zn", 25), ("zn", 15), ("zn", 45), ("zn", 105), ("poly", 2, 3)),
    },
}

# closed-forms moduli: above the default 2^14 ceiling by a factor of two,
# and no higher than 10^9 (see README.md for why it stops there).
QUERY_LO, QUERY_HI = 2**15, 10**9

QUERY_KINDS = ("even", "ppow", "pq", "p2q")

# closed-forms times the reference kernel after every this many queries.
CALIBRATE_EVERY = 20


# ----------------------------------------------------------------------
# Number theory for input generation

def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin for n < 3.3e24."""
    if n < 2:
        return False
    bases = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
    for p in bases:
        if n % p == 0:
            return n == p
    d, r = n - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in bases:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _log_uniform(rng: random.Random, lo: int, hi: int) -> int:
    return min(hi, max(lo, int(math.exp(rng.uniform(math.log(lo), math.log(hi + 1))))))


def _prime_in(rng: random.Random, lo: int, hi: int) -> int | None:
    """A prime in [lo, hi], log-uniform; None when the interval has none."""
    if lo > hi:
        return None
    start = _log_uniform(rng, lo, hi)
    for x in itertools.chain(range(start, hi + 1), range(start - 1, lo - 1, -1)):
        if _is_prime(x):
            return x
    return None


# ----------------------------------------------------------------------
# Inputs

def make_inputs(workload: str, seed: int, size: str):
    cfg = SIZES[size]
    if workload == "sweep-serial":
        return cfg["sweep"]
    rng = random.Random(f"{workload}:{seed}")
    if workload == "closed-forms":
        # A fixed panel: query costs are so heavy-tailed that a fresh draw
        # per seed moved run_s by 30% (README.md).  The seed sets the order.
        panel = _moduli(random.Random("closed-forms panel"), cfg["moduli"])
        rng.shuffle(panel)
        return [(n, rng.sample(("total", "unit"), 2)) for n in panel]
    if workload == "large-ring":
        panel = list(cfg["large"])
        rng.shuffle(panel)
        return panel
    raise ValueError(f"unknown workload {workload!r}")


def _moduli(rng: random.Random, count: int) -> list[int]:
    """count moduli, the kinds in turn.  Within each kind the log of n is
    stratified: the j-th modulus of a kind is drawn from the j-th of equal
    slices of [log 2^15, log 10^9], so the panel covers the range evenly."""
    per_kind = -(-count // len(QUERY_KINDS))
    out = []
    for i in range(count):
        kind, j = QUERY_KINDS[i % len(QUERY_KINDS)], i // len(QUERY_KINDS)
        out.append(_modulus(rng, kind, j, per_kind))
    return out


def _modulus(rng: random.Random, kind: str, j: int, strata: int) -> int:
    """A modulus of the kind whose size lies in the j-th stratum."""
    lo_log, hi_log = math.log(QUERY_LO + 1), math.log(QUERY_HI)
    width = (hi_log - lo_log) / strata
    lo = math.ceil(math.exp(lo_log + j * width))
    hi = min(QUERY_HI, math.floor(math.exp(lo_log + (j + 1) * width)))
    if kind == "even":
        return 2 * _log_uniform(rng, -(-lo // 2), hi // 2)
    if kind == "ppow":
        for a in (1 + j % 3, 1):  # exponent 1 fills strata with no prime square or cube
            p = _prime_in(rng, max(3, math.ceil(lo ** (1 / a))), math.floor(hi ** (1 / a)))
            if p is not None and lo <= p**a <= hi:
                return p**a
        raise ValueError(f"no odd prime power in [{lo}, {hi}]")
    while True:
        target = _log_uniform(rng, lo, hi)
        if kind == "pq":
            p = _prime_in(rng, 3, math.isqrt(target))
            q = _prime_in(rng, max(p + 1, -(-lo // p)), hi // p)
            if q is not None:
                return p * q
        else:  # p2q with p < q
            p = _prime_in(rng, 3, round(target ** (1 / 3)))
            q = _prime_in(rng, max(p + 1, -(-lo // (p * p))), hi // (p * p))
            if q is not None:
                return p * p * q


# ----------------------------------------------------------------------
# Reference kernel

# Fixed operands for the reference kernel: 48 rows of 1024 bits and 12
# masks, from a fixed generator, like the adjacency rows the oracle ANDs
# and counts.
_REF_GEN = random.Random("perfbench reference kernel")
_REF_ROWS = tuple(_REF_GEN.getrandbits(1024) for _ in range(48))
_REF_MASKS = tuple(_REF_GEN.getrandbits(1024) for _ in range(12))
_REF_ROUNDS = 8


def reference_s() -> float:
    """Time one run of a fixed pure-Python kernel that uses nothing from the
    package: bigint AND and bit counts into a dict keyed by tuples, as the
    oracle does, then trial division, as radical normalisation does.  Its
    work never changes, so its time tracks how fast the host runs Python at
    that moment.  The collector is off, so the program's heap does not
    change it."""
    enabled = gc.isenabled()
    gc.disable()
    start = time.perf_counter()
    counts: dict[tuple[int, int], int] = {}
    for r in range(_REF_ROUNDS):
        for v, row in enumerate(_REF_ROWS):
            for d, mask in enumerate(_REF_MASKS):
                c = (row & mask).bit_count()
                key = ((v + r) & 7, d)
                counts[key] = counts.get(key, 0) + c
    m, k, factors = 999_999_000_001 * 7 + sum(counts.values()) % 2, 2, []
    while k * k <= m and k < 30_000:
        while m % k == 0:
            m //= k
            factors.append(k)
        k += 1
    elapsed = time.perf_counter() - start
    if enabled:
        gc.enable()
    return elapsed


# ----------------------------------------------------------------------
# Measured phases

def _sha(parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part.encode())
        h.update(b"\0")
    return h.hexdigest()


class Laps:
    """Back-to-back timed chunks that together make up a measured phase.
    Every repetition of a workload yields the same chunk sequence, so the
    run's time can be taken chunk by chunk over repetitions.  Between
    chunks, calibrate() times the reference kernel; that time is in no
    chunk, and the chunks between two calibrations are scaled by the host
    speed the two show (run.py)."""

    def __init__(self):
        self.chunks: list[float] = []
        self.cases: list[int] = []  # indices of the chunks that are one case each
        self.ref_s: list[float] = []
        self.ref_at: list[int] = []  # the chunk count at each calibration
        self.calibrate()

    def calibrate(self):
        self.ref_s.append(reference_s())
        self.ref_at.append(len(self.chunks))
        self.last = time.perf_counter()

    def lap(self, case: bool = False) -> float:
        now = time.perf_counter()
        self.chunks.append(now - self.last)
        self.last = now
        if case:
            self.cases.append(len(self.chunks) - 1)
        return self.chunks[-1]

    def split(self, parts):
        """Replace the last chunk by parts, each one case, and the rest."""
        wall = self.chunks.pop()
        first = len(self.chunks)
        self.chunks += [*parts, wall - sum(parts)]
        self.cases += range(first, first + len(parts))

    def result(self, checks, digest_parts) -> dict:
        if self.ref_at[-1] != len(self.chunks):
            self.calibrate()
        return {
            "run_s": sum(self.chunks),
            "chunk_s": self.chunks,
            "case_chunks": self.cases,
            "ref_s": self.ref_s,
            "ref_at": self.ref_at,
            "checks": checks,
            "digest": _sha(digest_parts),
        }


def _render_sweeps(vf, families, workers: int, laps: Laps | None):
    """verify.sweep over each family on both graphs, with the CSV and JSON
    reports rendered.  Under laps, a serial sweep is split into its cases'
    own times and the rest of the sweep."""
    kinds = ("total", "unit")
    rendered = []
    for family, max_n in families:
        result = vf.sweep(family, max_n, kinds, workers=workers)
        if laps is not None:
            laps.lap()
            laps.split([c.micros / 1e6 for c in result.cases])
            laps.calibrate()
        csv_fh, json_fh = io.StringIO(), io.StringIO()
        vf.write_sweep_csv(result, csv_fh)
        vf.write_sweep_json(result, json_fh)
        if laps is not None:
            laps.lap()
            laps.calibrate()
        rendered.append((result, csv_fh.getvalue(), json_fh.getvalue()))
    return rendered


def _canonical_bodies(vf, rendered) -> list[str]:
    bodies = []
    for _, csv_text, json_text in rendered:
        bodies += [vf.canonical_csv_body(csv_text), vf.canonical_json_body(json_text)]
    return bodies


def run_sweeps(mods, families, tracer) -> dict:
    vf = mods["verify"]
    tracer.active = True
    laps = Laps()
    rendered = _render_sweeps(vf, families, 1, laps)
    tracer.active = False
    bodies = _canonical_bodies(vf, rendered)

    cases = [c for result, _, _ in rendered for c in result.cases]
    checks = [(f"case {c.ring} {c.kind} ok", c.ok) for c in cases]
    p2q = [r for r, _, _ in rendered if r.family == "p2q"][0]
    cited = [e.ring for e in vf.errata_report(p2q.cases) if e.formula == vf.FORMULA_UNIT_P2Q_EDGES]
    checks.append((f"p2q errata cites Z_45 (got {cited})", cited == ["Z_45"]))
    return laps.result(checks, bodies)


def pool_check(mods, families, workers: int, serial: dict) -> dict:
    """The same sweeps through verify's process pool, untimed by the run:
    their canonical bodies must be byte-identical to the serial ones.
    Returns the pool's efficiency, sum of case micros / (wall * workers)."""
    start = time.perf_counter()
    rendered = _render_sweeps(mods["verify"], families, workers, None)
    wall = time.perf_counter() - start
    same = _sha(_canonical_bodies(mods["verify"], rendered)) == serial["digest"]
    serial["checks"].append((f"workers={workers} bodies byte-identical to workers=1", same))
    micros_s = sum(c.micros for result, _, _ in rendered for c in result.cases) / 1e6
    return {"efficiency": micros_s / (wall * workers), "micros_sum_s": micros_s}


def run_closed_queries(mods, queries, tracer) -> dict:
    """One client in a closed loop: each cli.main call starts when the
    previous one has returned."""
    cli = mods["cli"]
    parse = mods["radicals"].RadicalSum.parse
    outputs = []
    tracer.active = True
    laps = Laps()
    for n, kinds in queries:
        for kind in kinds:
            argv = ["compute", "--ring", "zn", "--n", str(n), "--graph", kind,
                    "--mode", "closed", "--format", "json"]
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = cli.main(argv)
            laps.lap(case=True)
            if len(laps.chunks) % CALIBRATE_EVERY == 0:
                laps.calibrate()
            outputs.append((n, kind, code, out.getvalue()))
    tracer.active = False

    checks = []
    for n, kind, code, text in outputs:
        ok = code == 0
        if ok:
            exact = json.loads(text)["closed_exact"]
            ok = parse(exact).render() == exact
        checks.append((f"closed query Z_{n} {kind} exits 0 and round-trips", ok))
    return laps.result(checks, (text for _, _, _, text in outputs))


def run_large_rings(mods, panel, tracer) -> dict:
    """verify_case on both graphs, then check_structure, for each ring near
    the oracle's 2^14 ceiling.  Each call is one chunk; the verify_case
    calls are the cases."""
    rings, vf = mods["rings"], mods["verify"]
    outputs = []
    tracer.active = True
    laps = Laps()
    for spec in panel:
        local = spec[0] == "poly"
        ring = rings.TruncatedPolyRing(*spec[1:]) if local else rings.ZnRing(spec[1])
        for kind in ("total", "unit"):
            outputs.append(vf.verify_case(ring, kind, use_local_forms=local))
            laps.lap(case=True)
            laps.calibrate()
        outputs.append(vf.check_structure(ring))
        laps.lap()
        laps.calibrate()
    tracer.active = False

    checks, parts = [], []
    for out in outputs:
        if isinstance(out, vf.StructureResult):
            checks.append((f"structure of {out.ring} consistent", out.consistent))
            parts.append(repr(out))
        else:
            checks.append((f"case {out.ring} {out.kind} ok", out.ok))
            variants = [(v.variant, v.closed_value.render(), v.match) for v in out.variants]
            parts.append(repr((out.ring, out.kind, out.family, out.oracle_value.render(),
                               out.oracle_partition, variants)))
    return laps.result(checks, sorted(parts))


PHASES = {"sweep-serial": run_sweeps, "closed-forms": run_closed_queries,
          "large-ring": run_large_rings}
