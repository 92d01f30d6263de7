"""The benchmark's tracer must find every function and method it names.

Tracer.install skips a name it cannot find, so a renamed or deleted
target would silently read 0 in its per-layer metric.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = _tracing()


@pytest.mark.parametrize("group, module, name", tracing.FUNCTIONS)
def test_traced_function_exists(group, module, name):
    mod = importlib.import_module(f"weakarith.{module}")
    assert callable(vars(mod).get(name)), f"{group}: weakarith.{module}.{name} is gone"


@pytest.mark.parametrize("group, module, cls_name, method", tracing.METHODS)
def test_traced_method_exists(group, module, cls_name, method):
    mod = importlib.import_module(f"weakarith.{module}")
    if cls_name is not None:
        classes = [vars(mod).get(cls_name)]
    else:
        classes = [v for v in vars(mod).values()
                   if isinstance(v, type) and v.__module__ == mod.__name__]
    assert any(cls is not None and method in vars(cls) for cls in classes), \
        f"{group}: no class in weakarith.{module} defines {method}"
