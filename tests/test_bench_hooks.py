"""The benchmark's tracer wraps graphdiv functions by name; every name it
lists must exist, or a traced benchmark run fails at install time."""

import importlib
import importlib.util
import os

import pytest

SPANS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                     "bench", "spans.py")


def _wrapped():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans.WRAPPED


@pytest.mark.parametrize("module_name, attr, _record", _wrapped())
def test_traced_function_exists(module_name, attr, _record):
    owner = importlib.import_module(f"graphdiv.{module_name}")
    for part in attr.split("."):
        assert hasattr(owner, part), f"graphdiv.{module_name}.{attr} is gone"
        owner = getattr(owner, part)
    assert callable(owner)
