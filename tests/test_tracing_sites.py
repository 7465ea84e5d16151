"""The benchmark's span wrappers patch brwlab names where they are called.

``perfbench/tracing.py`` replaces ``module.name`` for every pair in its
``SITES`` and ``GENERATOR_SITES``; a pair that no longer resolves (say,
after a module stops importing ``grow_tree``) breaks every traced run.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _tracing_module():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


_tracing = _tracing_module()
PAIRS = sorted(
    {(site[0], site[1]) for site in _tracing.SITES + _tracing.GENERATOR_SITES}
)


@pytest.mark.parametrize("module_name, attr", PAIRS)
def test_traced_call_site_resolves(module_name, attr):
    module = importlib.import_module(module_name)
    assert callable(getattr(module, attr, None)), f"{module_name}.{attr} is gone"
