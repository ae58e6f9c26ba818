"""The benchmark's tracer binds its wrappers by name, so a renamed or deleted
traced function would break only a traced benchmark run; this keeps every
traced name resolving to a function of the package."""

import importlib
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_every_traced_name_resolves(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracer = importlib.import_module("tracer")
    assert tracer.TARGETS
    for module_name, func_name, _ in tracer.TARGETS:
        module = importlib.import_module(f"gridcubes.{module_name}")
        assert callable(getattr(module, func_name, None)), f"{module_name}.{func_name}"
