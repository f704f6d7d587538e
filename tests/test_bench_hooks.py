"""The benchmark tracer wraps densecode functions by (module, attribute).

``perfbench/tracing.py`` replaces each attribute in its ``HOOKS`` table with
a timing wrapper, and ``Tracer.install`` fails on a name that is gone, so a
renamed or deleted hooked function breaks every traced benchmark run.  This
test reads the table without installing anything.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_hooks():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.HOOKS


@pytest.mark.parametrize("module_name, attr, span", load_hooks())
def test_hooked_attribute_resolves(module_name, attr, span):
    module = importlib.import_module(module_name)
    assert callable(getattr(module, attr, None)), f"{module_name}.{attr} for {span}"
