"""The benchmark runs against the densecode API, so a src change can break it.

``perfbench/tracing.py`` replaces each attribute in its ``HOOKS`` table with
a timing wrapper, and ``Tracer.install`` fails on a name that is gone, so a
renamed or deleted hooked function breaks every traced benchmark run.  The
hook test reads the table without installing anything.

``perfbench/workloads.py`` builds the benchmark items, and each checks its
own output; the item test runs every item of every workload once, untimed.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
TRACING = PERFBENCH / "tracing.py"


def load_hooks():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.HOOKS


@pytest.mark.parametrize("module_name, attr, span", load_hooks())
def test_hooked_attribute_resolves(module_name, attr, span):
    module = importlib.import_module(module_name)
    assert callable(getattr(module, attr, None)), f"{module_name}.{attr} for {span}"


def load_workloads():
    name = "perfbench_workloads"
    if name not in sys.modules:
        spec = importlib.util.spec_from_file_location(name, PERFBENCH / "workloads.py")
        module = importlib.util.module_from_spec(spec)
        # The module's dataclass looks its module up in sys.modules.
        sys.modules[name] = module
        spec.loader.exec_module(module)
    return sys.modules[name]


@pytest.mark.parametrize("workload", load_workloads().WORKLOADS)
def test_benchmark_items_pass(workload, tmp_path):
    outcomes = {name: run() for name, run in load_workloads().build(workload, 1, tmp_path)}
    assert {name: o for name, o in outcomes.items() if not o.ok} == {}
