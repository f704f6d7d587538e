"""Checks of the benchmark's own machinery, on small inputs.

    PYTHONPATH=src python -m pytest -q perfbench/test_tracing.py

Tracing must not change results, must put back every attribute it wrapped,
and must report exactly the metrics BENCHMARK.json declares.
"""

import importlib
import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from densecode.capacity import OptimizerConfig  # noqa: E402


def small_items(workdir: Path):
    """A cut-down pass touching every hook: CLI, unitary and Kraus solves."""
    scenario = workloads._cli_item(
        {"scenario": "depolarizing", "seed": 5, "optimizer": {"restarts": 2, "max_iters": 10},
         "state": {"d": 2, "copies": 1}, "channel": {"p": 0.3}},
        workdir / "depolarizing.json",
    )
    cfg = OptimizerConfig(restarts=2, max_iters=10, seed=5)
    hierarchy = workloads._hierarchy(5, workdir, cfg)
    return [("depolarizing", scenario), *hierarchy[:3]]


def hooked_attributes():
    return {(module, attr): getattr(importlib.import_module(module), attr)
            for module, attr, _ in tracing.HOOKS}


def test_traced_results_are_bit_identical(tmp_path):
    plain = worker.run_items(small_items(tmp_path), None)
    tracer = tracing.Tracer()
    traced = worker.run_items(small_items(tmp_path), tracer)
    assert all(r["ok"] for r in plain)
    assert [(r["capacity_bits"], r["dev"]) for r in traced] == [
        (r["capacity_bits"], r["dev"]) for r in plain]

    layers = tracer.metrics()
    assert layers["capacity.lbfgs.calls"] > 0
    assert layers["capacity.neldermead.nfev"] > 0
    assert layers["capacity.encode.calls"] > 0
    assert layers["channels.apply_pauli.calls"] >= layers["capacity.objective.calls"] > 0
    assert layers["cli.self_s"] > 0
    # Layer self times partition the traced items' time.
    items = sum(r["seconds"] for r in traced)
    self_total = sum(layers[f"{layer}.self_s"] for layer in tracing.LAYERS)
    assert self_total == pytest.approx(items, rel=1e-3)
    assert layers["trace.self_sum_gap_s"] < 1e-9


def test_restore_puts_back_every_attribute(tmp_path):
    before = hooked_attributes()
    tracer = tracing.Tracer()

    def check_wrapped():
        now = hooked_attributes()
        assert all(now[key] is not before[key] for key in before)
        raise RuntimeError("item failure")

    results = worker.run_items([("wrapped", check_wrapped)], tracer)
    assert results[0]["ok"] is False and "item failure" in results[0]["detail"]
    after = hooked_attributes()
    assert all(after[key] is before[key] for key in before)


def test_metric_names_match_benchmark_json():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == (
        tracing.LAYER_METRICS)
    # hierarchy is left out of BENCHMARK.json and runs by hand; see README.md.
    assert [w["name"] for w in spec["workloads"]] == ["scenarios", "channels"]
    assert run.WORKLOADS == workloads.WORKLOADS
