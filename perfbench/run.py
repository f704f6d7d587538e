"""densecode benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload scenarios|hierarchy|channels \\
        --seed N --seconds S --trace 0|1

Run it from the root of a checkout.  Every pass runs in a fresh process
(``worker.py``); the parent times set-up from process start, repeats whole
passes until at least ``--seconds`` of items have been measured, and prints
as its last line one JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``.  With ``--trace 0`` the metrics are the end-to-end ones;
with ``--trace 1`` one untraced and one traced pass of the same seed run, and
the metrics are the per-layer ones of the traced pass plus the tracing
overhead.  See README.md for every metric and workload.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracing

ROOT = Path(__file__).resolve().parents[1]
HERE = Path(__file__).resolve().parent
OUT = ROOT / ".perfbench_out"
WORKLOADS = ("scenarios", "hierarchy", "channels")

SETUP_SAMPLES = 5      # set-up times per run; the median is reported
# One BLAS thread per library.  At the default of one per core, a worker
# thread of OpenBLAS spins through nearly the whole pass on these small
# matrices, so a pass keeps a second core busy and its time depends on
# whatever else the machine runs.  See README.md.
WORKER_ENV = dict(os.environ, OPENBLAS_NUM_THREADS="1")
RUN_LIMIT_S = 170.0    # a run must end within 180 s

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB",
                    "capacity_bits": "bits"}


class BenchError(Exception):
    """The benchmark could not produce a result."""


def src_lines() -> int:
    return sum(len(p.read_text(encoding="utf-8").splitlines())
               for p in sorted((ROOT / "src").rglob("*.py")))


def worker(workload: str, seed: int, trace: int, deadline: float,
           setup_only: bool = False) -> dict:
    """Run one worker process that must end by ``deadline`` (monotonic time);
    returns its result with ``setup_s`` added."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--trace", str(trace),
           "--workdir", str(OUT / f"{workload}-{seed}")]
    if setup_only:
        cmd.append("--setup-only")
    started = time.monotonic()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=WORKER_ENV, capture_output=True,
                              text=True, timeout=max(deadline - started, 1.0))
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker did not finish within {RUN_LIMIT_S} s of the run") from exc
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker exited with status {proc.returncode}")
    result = json.loads(lines[-1])
    result["setup_s"] = result["ready"] - started
    return result


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def run(workload: str, seed: int, seconds: float, trace: int) -> dict:
    deadline = time.monotonic() + RUN_LIMIT_S
    passes = []
    if trace:
        passes = [worker(workload, seed, 0, deadline), worker(workload, seed, 1, deadline)]
    else:
        measured = 0.0
        while not passes or measured < seconds:
            last = time.monotonic()
            passes.append(worker(workload, seed, 0, deadline))
            measured += passes[-1]["wall_s"]
            # Stop early rather than start a pass that would overrun the run.
            if time.monotonic() + (time.monotonic() - last) > deadline:
                break
    setups = [p["setup_s"] for p in passes]
    while not trace and len(setups) < SETUP_SAMPLES:
        setups.append(worker(workload, seed, 0, deadline, setup_only=True)["setup_s"])

    items = [item for p in passes for item in p["items"]]
    failed = sum(not item["ok"] for item in items)
    # Passes of one seed must agree bit for bit, traced or not.
    consistent = all(p["capacity_bits"] == passes[0]["capacity_bits"]
                     and p["max_dev"] == passes[0]["max_dev"] for p in passes)
    if trace:
        untraced, traced = passes
        layers = dict(traced["layers"])
        layers["max_dev"] = traced["max_dev"]
        layers["trace.wall_s"] = traced["wall_s"]
        layers["trace.overhead_s"] = traced["wall_s"] - untraced["wall_s"]
        metrics = {name: metric(layers[name], unit)
                   for name, (unit, _) in tracing.LAYER_METRICS.items()}
    else:
        values = {
            "wall_s": statistics.median(p["wall_s"] for p in passes),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
            "capacity_bits": passes[0]["capacity_bits"],
        }
        metrics = {name: metric(values[name], unit)
                   for name, unit in END_TO_END_UNITS.items()}

    # max_dev and failed_frac are reported here rather than as gated metrics;
    # see README.md.
    ungated = {"max_dev": metric(max(p["max_dev"] for p in passes), "abs"),
               "failed_frac": metric(failed / len(items), "ratio")}
    context = dict(passes[0]["context"], seed=seed, workload=workload,
                   trace=trace, src_lines=src_lines(), passes=len(passes),
                   setup_samples=setups, pass_wall_s=[p["wall_s"] for p in passes],
                   ungated=ungated, consistent=consistent)
    return {
        "context": context,
        "items": items,
        "result": {
            "correct": failed == 0 and consistent,
            "attempted": len(items),
            "failed": failed,
            "metrics": metrics,
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "densecode" / "__init__.py").is_file():
        print(f"error: no densecode sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        report = run(args.workload, args.seed, args.seconds, args.trace)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    OUT.mkdir(exist_ok=True)
    (OUT / f"{args.workload}-{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(report, indent=2))
    print(json.dumps({"context": report["context"]}))
    for item in report["items"]:
        print(json.dumps({"item": item}))
    print(json.dumps(report["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
