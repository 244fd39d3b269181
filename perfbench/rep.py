"""One benchmark repetition, run in a fresh interpreter so that the package's
lru caches start cold.

    python3 perfbench/rep.py '<json config>'

The config names the workload, seed, input size, whether to trace, the
pool size for the sweep's pool check (0 for none), and the CLOCK_MONOTONIC
reading taken just before this process was started.  The last line of
standard output is a JSON object with the repetition's measurements.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time


def main() -> int:
    cfg = json.loads(sys.argv[1])
    sys.path.insert(0, os.path.join(os.getcwd(), "src"))
    from ringsombor import cli, closed_forms, graphs, radicals, rings, sombor, verify

    import tracer as tr
    import workloads as wl

    mods = {
        "rings": rings, "graphs": graphs, "sombor": sombor,
        "radicals": radicals, "closed_forms": closed_forms, "verify": verify, "cli": cli,
    }
    workload = cfg["workload"]
    inputs = wl.make_inputs(workload, cfg["seed"], cfg["size"])
    setup_s = time.monotonic() - cfg["spawned"]

    tracer = tr.install(mods) if cfg["traced"] else tr.Tracer()
    cache_before = tr.cache_counts(mods)
    out = wl.PHASES[workload](mods, inputs, tracer)
    cache_after = tr.cache_counts(mods)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if cfg["pool_workers"]:
        out["pool"] = wl.pool_check(mods, inputs, cfg["pool_workers"], out)
    result = {
        "setup_s": setup_s,
        "run_s": out["run_s"],
        "chunk_s": out["chunk_s"],
        "case_chunks": out["case_chunks"],
        "ref_s": out["ref_s"],
        "ref_at": out["ref_at"],
        "failures": [name for name, ok in out["checks"] if not ok],
        "checks": len(out["checks"]),
        "digest": out["digest"],
        "peak_rss_mb": peak_rss_mb,
        "pool": out.get("pool"),
        "cache": {k: [a - b for a, b in zip(cache_after[k], cache_before[k])] for k in cache_after},
        "ceiling": verify.DEFAULT_CEILING,
        "python": sys.version.split()[0],
    }
    if cfg["traced"]:
        result.update(_layers(tr, tracer, out, cfg))
    print(json.dumps(result))
    return 0


def _layers(tr, tracer, out, cfg) -> dict:
    """Per-layer self times, counts and ratios of a traced repetition."""
    run_id = f"{cfg['workload']}-seed{cfg['seed']}-rep{cfg['rep']}"
    tr.write_spans(os.path.join(".perfbench_out", f"{run_id}.spans.jsonl.gz"), run_id, tracer.spans)
    return {
        "layers": tr.self_times(tracer.spans),
        "row_bytes": tracer.row_bytes,
        "coverage": tr.covered_time(tracer.spans) / out["run_s"],
    }


if __name__ == "__main__":
    sys.exit(main())
