"""One benchmark pass in a fresh process: generate inputs, run the items in
order, check each output and print one JSON result line.

    python3 perfbench/worker.py --workload NAME --seed N --trace 0|1 --workdir DIR
    python3 perfbench/worker.py ... --setup-only

``run.py`` starts this script; the ``ready`` field it prints is a
``time.monotonic()`` reading taken once the imports and inputs are done, so
the parent can time set-up from the moment it started the process.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import math
import os
import platform
import resource
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402


def blas_context() -> list[dict]:
    """Version string and thread count of every OpenBLAS loaded by the process."""
    found = []
    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = sorted({line.split()[-1] for line in fh
                       if "openblas" in line.lower() and ".so" in line})
    for path in libs:
        lib = ctypes.CDLL(path)
        entry = {"library": Path(path).name}
        for suffix in ("64_", ""):
            get_config = getattr(lib, f"scipy_openblas_get_config{suffix}", None)
            get_threads = getattr(lib, f"scipy_openblas_get_num_threads{suffix}", None)
            if get_config is not None and get_threads is not None:
                get_config.restype = ctypes.c_char_p
                get_threads.restype = ctypes.c_int
                entry["config"] = get_config().decode()
                entry["threads"] = get_threads()
                break
        found.append(entry)
    return found


def run_items(items, tracer: tracing.Tracer | None) -> list[dict]:
    """Run the items in order; a traced run restores densecode afterwards."""
    if tracer is not None:
        tracer.install()
    results = []
    try:
        for i, (name, run) in enumerate(items):
            start = time.perf_counter()
            try:
                if tracer is None:
                    outcome = run()
                else:
                    with tracer.span("bench.item", i):
                        outcome = run()
            except Exception:  # an item that raises counts as failed; the pass goes on
                detail = traceback.format_exc()
                print(f"item {name} raised:\n{detail}", file=sys.stderr)
                outcome = workloads.Outcome(None, math.inf, False, detail.splitlines()[-1])
            results.append({
                "name": name,
                "seconds": time.perf_counter() - start,
                "capacity_bits": outcome.capacity_bits,
                "dev": outcome.dev,
                "ok": bool(outcome.ok),
                "detail": outcome.detail,
            })
    finally:
        if tracer is not None:
            tracer.restore()
    return results


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    pass_items = workloads.build(args.workload, args.seed, args.workdir)
    ready = time.monotonic()
    if args.setup_only:
        print(json.dumps({"ready": ready}))
        return 0
    tracer = tracing.Tracer() if args.trace else None
    items = run_items(pass_items, tracer)
    solves = [r["capacity_bits"] for r in items if r["capacity_bits"] is not None]
    result = {
        "ready": ready,
        "items": items,
        "wall_s": sum(r["seconds"] for r in items),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "capacity_bits": math.fsum(solves),
        "max_dev": max(r["dev"] for r in items),
        "context": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "blas": blas_context(),
            "nproc": os.cpu_count(),
            "affinity_cpus": len(os.sched_getaffinity(0)),
        },
    }
    if tracer is not None:
        result["layers"] = tracer.metrics()
        tracer.save(args.workdir / "spans.npz")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
