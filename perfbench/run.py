"""ringsombor benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --smoke
    python3 perfbench/run.py --record-digests

Run from the root of a checkout.  Each repetition of a workload runs in a
fresh interpreter (perfbench/rep.py), so every repetition starts with cold
lru caches.  A run makes a number of repetitions fixed by the workload and
--seconds.  Each repetition times a fixed reference kernel between its
chunks of work and scales every time it measures by how fast the host ran
that kernel around it.  Every repetition runs the same inputs, so times
are taken chunk by chunk and case by case over repetitions, as medians,
and the other metrics as medians too.  With --trace 1 untraced and traced
repetitions alternate: the untraced ones are the base of
trace.overhead_ratio, the traced ones give the per-layer metrics.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  See perfbench/README.md for the workloads,
the metrics and what each layer metric should move.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import statistics
import subprocess
import sys
import time

import workloads as wl

HERE = os.path.dirname(os.path.abspath(__file__))
DIGESTS = os.path.join(HERE, "digests.json")

# Seconds one repetition takes on the 2-vCPU development VM at its usual
# speed, start-up included.  A run makes round(--seconds / REP_SECONDS)
# repetitions, or half as many pairs of untraced and traced ones.  The count
# does not depend on how fast the repetitions go, so every commit's times are
# taken over the same number of samples.
REP_SECONDS = {"sweep-serial": 4.0, "closed-forms": 2.6, "large-ring": 5.2}
MIN_REPS = 2

# The reference kernel's time (workloads.reference_s) on the development VM
# at its usual speed.  Every time a repetition measures is scaled by
# REF_NOMINAL_S / the kernel's time around it, so it reads as seconds on
# that VM at that speed (README.md).
REF_NOMINAL_S = 0.008
STEADY = 0.2  # the most two bracketing kernel times may differ by, as a share
MAX_RUN_S = 170  # a run, repetitions included, ends within this or fails
DIGEST_SEEDS = range(32)  # the seeds whose output digests digests.json holds

LAYER_TIMES = (
    "graphs.build", "graphs.degrees", "graphs.partition", "sombor.pair_counts",
    "sombor.assemble", "rings.factorize", "rings.unit_mask", "radicals.normalize",
    "closed_forms.eval", "cli.parse", "verify.report",
)


@functools.cache
def benchmark_spec() -> dict:
    """BENCHMARK.json: the metric names and units this benchmark emits."""
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


class BenchError(Exception):
    """A repetition could not run; no result is printed."""


def pool_workers() -> int:
    """Workers for the sweep's pool check: nproc, but at least two so that
    the process pool is used, and at most four."""
    return max(2, min(4, os.cpu_count() or 1))


def git_commit() -> str:
    """The checked-out commit; "unknown" outside a git repository."""
    if not os.path.exists(".git"):
        return "unknown"
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def run_rep(workload: str, seed: int, size: str, traced: bool, rep: int,
            timeout: float = MAX_RUN_S) -> dict:
    """One repetition in a fresh interpreter.  The first untraced sweep
    repetition of a run also runs the pool check."""
    pool = pool_workers() if workload == "sweep-serial" and rep == 0 and not traced else 0
    cfg = {"workload": workload, "seed": seed, "size": size, "traced": traced,
           "pool_workers": pool, "rep": rep}
    cfg["spawned"] = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "rep.py"), json.dumps(cfg)],
            capture_output=True, text=True, timeout=max(1.0, timeout),
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{workload} repetition timed out after {exc.timeout} s") from exc
    if proc.returncode != 0:
        raise BenchError(f"{workload} repetition exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def chunk_speeds(rep: dict) -> tuple[list[float], list[bool]]:
    """The host speed during each chunk of the repetition, REF_NOMINAL_S
    over the mean of the two reference-kernel times that bracket it, and
    whether the speed held steady there: the two differ by at most STEADY."""
    ref, at = rep["ref_s"], rep["ref_at"]
    speeds, steady = [], []
    for i in range(len(at) - 1):
        a, b = ref[i], ref[i + 1]
        speeds += [2 * REF_NOMINAL_S / (a + b)] * (at[i + 1] - at[i])
        steady += [abs(a - b) <= STEADY * min(a, b)] * (at[i + 1] - at[i])
    return speeds, steady


def normalised(rep: dict) -> dict:
    """The repetition with every time it measured scaled by the host speed:
    each chunk by the speed around it; setup_s by the speed the first
    calibration showed; layer times by the repetition's mean speed."""
    speeds, steady = chunk_speeds(rep)
    chunk_s = [t * k for t, k in zip(rep["chunk_s"], speeds)]
    run_s = sum(chunk_s)
    out = dict(rep, chunk_s=chunk_s, steady=steady, run_s=run_s,
               setup_s=rep["setup_s"] * REF_NOMINAL_S / rep["ref_s"][0],
               speed=run_s / rep["run_s"])
    if "layers" in rep:
        out["layers"] = {layer: t * out["speed"] for layer, t in rep["layers"].items()}
    return out


def percentile(values, q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def tail_quantile(n: int) -> float:
    """The highest percentile, in steps of 0.1, with at least ten of n
    samples beyond it; the maximum when that would fall below the median
    (fewer than twenty samples)."""
    return math.floor(1000 * (1 - 10 / n)) / 1000 if n >= 20 else 1.0


def repetitions(workload: str, seconds: float, trace: bool) -> int:
    """Untraced repetitions in a run; with trace, each has a traced twin."""
    count = round(seconds / REP_SECONDS[workload])
    return max(MIN_REPS, count // 2 if trace else count)


def measure(workload: str, seed: int, seconds: float, trace: bool, size: str) -> tuple[list, list]:
    """The run's repetitions: (untraced, traced)."""
    plain, traced = [], []
    deadline = time.monotonic() + MAX_RUN_S
    for rep in range(repetitions(workload, seconds, trace)):
        plain.append(run_rep(workload, seed, size, False, rep, deadline - time.monotonic()))
        if trace:
            traced.append(run_rep(workload, seed, size, True, rep, deadline - time.monotonic()))
    return plain, traced


def chunk_times(reps: list, chunks=None) -> list[float]:
    """Each chunk's time over the run's normalised repetitions: the median
    over those in which the host speed held steady around it, or over all
    of them when it held in none."""
    out = []
    for c in range(len(reps[0]["chunk_s"])) if chunks is None else chunks:
        steady = [r["chunk_s"][c] for r in reps if r["steady"][c]]
        out.append(statistics.median(steady or [r["chunk_s"][c] for r in reps]))
    return out


def phase_s(reps: list) -> float:
    """The measured phase's time, taken chunk by chunk over repetitions."""
    return sum(chunk_times(reps))


def end_to_end(plain: list) -> tuple[dict, float]:
    """Run time chunk by chunk; a case's latency is taken over repetitions
    the same way (every repetition runs the same cases), and the case
    latencies are summarised as their median and tail."""
    per_case = chunk_times(plain, plain[0]["case_chunks"])
    q = tail_quantile(len(per_case))
    run_s = phase_s(plain)
    values = {
        "setup_s": statistics.median(r["setup_s"] for r in plain),
        "run_s": run_s,
        "cases_per_s": len(per_case) / run_s,
        "case_ms_p50": statistics.median(per_case) * 1e3,
        "case_ms_tail": percentile(per_case, q) * 1e3,
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in plain),
    }
    return values, q


def per_layer(plain: list, traced: list) -> dict:
    med = statistics.median
    pool = plain[0]["pool"]

    def ratio(hits, misses):
        return hits / (hits + misses) if hits + misses else 0.0

    values = {
        f"{layer}_s": med(r["layers"].get(layer, 0.0) for r in traced) for layer in LAYER_TIMES
    }
    values.update({
        "graphs.row_bytes": med(r["row_bytes"] for r in traced),
        "rings.factorize_hit_ratio": med(ratio(*r["cache"]["factorize"]) for r in traced),
        "radicals.normalize_calls": med(sum(r["cache"]["normalize"]) for r in traced),
        "radicals.normalize_hit_ratio": med(ratio(*r["cache"]["normalize"]) for r in traced),
        "verify.pool_efficiency": pool["efficiency"] if pool else 0.0,
        "verify.case_micros_sum_s": pool["micros_sum_s"] if pool else 0.0,
        "trace.overhead_ratio": phase_s(traced) / phase_s(plain),
        "trace.coverage": med(r["coverage"] for r in traced),
    })
    return values


def recorded_digest(workload: str, seed: int) -> str | None:
    """The digest recorded for the workload and seed; None for a seed
    outside DIGEST_SEEDS.  A workload in workloads.SEED_FREE has one
    digest for every seed, under "any"."""
    with open(DIGESTS, encoding="utf-8") as fh:
        table = json.load(fh)[workload]
    if "any" in table:
        return table["any"]
    return table[str(seed)] if seed in DIGEST_SEEDS else None


def run_workload(workload: str, seed: int, seconds: float, trace: bool, size: str = "full") -> dict:
    raw_plain, raw_traced = measure(workload, seed, seconds, trace, size)
    plain, traced = [normalised(r) for r in raw_plain], [normalised(r) for r in raw_traced]
    reps = plain + traced
    failures = sorted({f for r in reps for f in r["failures"]})
    attempted = sum(r["checks"] for r in reps)
    failed = sum(len(r["failures"]) for r in reps)
    digests = {r["digest"] for r in reps}
    expected = recorded_digest(workload, seed) if size == "full" else None
    attempted += 1
    if len(digests) != 1 or (expected is not None and digests != {expected}):
        failed += 1
        failures.append(f"canonical output digest {sorted(digests)} != recorded {expected}")

    spec = benchmark_spec()
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    e2e, tail_q = end_to_end(plain)
    values = per_layer(plain, traced) if trace else e2e
    stamp = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
        "size": size, "python": plain[0]["python"], "nproc": os.cpu_count(),
        "workers": 1, "pool_check_workers": pool_workers() if plain[0]["pool"] else 0,
        "cache_hits_misses": plain[0]["cache"],
        "ceiling": plain[0]["ceiling"],
        "commit": git_commit(), "repetitions": len(plain), "traced_repetitions": len(traced),
        "wall_run_s_per_repetition": [round(r["run_s"], 4) for r in raw_plain],
        "host_speed_per_repetition": [round(r["speed"], 4) for r in plain],
        "cases_per_repetition": len(plain[0]["case_chunks"]), "tail_percentile": round(tail_q * 100, 1),
        "digest": sorted(digests), "digest_recorded": expected,
        "failed_ratio": failed / attempted, "failures": failures[:20],
    }
    return {
        "stamp": stamp,
        "result": {
            "correct": failed == 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()},
        },
    }


def print_human(run: dict):
    stamp, result = run["stamp"], run["result"]
    print("# " + json.dumps(stamp, sort_keys=True))
    for name, m in result["metrics"].items():
        print(f"{stamp['workload']:>13}  {name:<30} {m['value']:>16.6g} {m['unit']}")
    print(f"{stamp['workload']:>13}  {'failed_ratio':<30} {stamp['failed_ratio']:>16.6g} ratio"
          f"  ({result['failed']}/{result['attempted']})")


def smoke() -> int:
    """Every workload at toy size, untraced and traced: every metric that
    BENCHMARK.json names is emitted with its unit and a finite value."""
    problems = []
    for workload in wl.WORKLOADS:
        for trace, group in ((False, "end_to_end"), (True, "per_layer")):
            run = run_workload(workload, 1, 0, trace, size="toy")
            print_human(run)
            metrics = run["result"]["metrics"]
            if not run["result"]["correct"]:
                problems.append(f"{workload}: {run['stamp']['failures']}")
            for m in benchmark_spec()[group]:
                got = metrics.get(m["name"])
                if got is None or got["unit"] != m["unit"] or not math.isfinite(got["value"]):
                    problems.append(f"{workload} trace={int(trace)}: {m['name']} -> {got}")
            extra = set(metrics) - {m["name"] for m in benchmark_spec()[group]}
            if extra:
                problems.append(f"{workload} trace={int(trace)}: unlisted metrics {sorted(extra)}")
    for p in problems:
        print("SMOKE FAIL:", p)
    print("smoke ok" if not problems else f"smoke failed: {len(problems)} problem(s)")
    return 0 if not problems else 1


def record_digests() -> int:
    """Write the canonical-output digest of each workload for every seed in
    DIGEST_SEEDS."""
    table = {workload: {} for workload in wl.WORKLOADS}
    for workload in wl.WORKLOADS:
        seeds = DIGEST_SEEDS[:1] if workload in wl.SEED_FREE else DIGEST_SEEDS
        for seed in seeds:
            rep = run_rep(workload, seed, "full", False, 0)
            if rep["failures"]:
                print(f"{workload} seed {seed} failed: {rep['failures']}", file=sys.stderr)
                return 1
            key = "any" if workload in wl.SEED_FREE else str(seed)
            table[workload][key] = rep["digest"]
            print(workload, key, rep["digest"], flush=True)
    with open(DIGESTS, "w", encoding="utf-8") as fh:
        json.dump(table, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=(*wl.WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="toy-size self-test")
    parser.add_argument("--record-digests", action="store_true",
                        help="re-record digests.json for seeds 0-31")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join("src", "ringsombor", "__init__.py")):
        print("error: run from the root of a ringsombor checkout (no src/ringsombor here)",
              file=sys.stderr)
        return 2
    try:
        if args.smoke:
            return smoke()
        if args.record_digests:
            return record_digests()
        if args.workload is None:
            parser.error("--workload is required")
        if args.workload == "all":
            runs = {w: run_workload(w, args.seed, args.seconds, bool(args.trace))
                    for w in wl.WORKLOADS}
            for run in runs.values():
                print_human(run)
            print(json.dumps({w: run["result"] for w, run in runs.items()}))
            return 0 if all(run["result"]["correct"] for run in runs.values()) else 1
        run = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print_human(run)
    print(json.dumps(run["result"]))
    return 0 if run["result"]["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
