"""The benchmark's tracer wraps named ``citree`` functions and methods; each
name it lists must exist, or a traced benchmark run fails at install time."""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _targets():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return [(name, home, attr) for name, (home, attrs) in module.TARGETS.items()
            for attr in attrs]


@pytest.mark.parametrize("name, home, attr", _targets())
def test_trace_target_exists(name, home, attr):
    module = importlib.import_module("citree." + home)
    if "." in attr:
        cls_name, meth = attr.split(".")
        assert callable(vars(getattr(module, cls_name)).get(meth)), f"{name}: {attr}"
    else:
        assert callable(getattr(module, attr, None)), f"{name}: {attr}"
