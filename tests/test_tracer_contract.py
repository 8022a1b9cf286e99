"""The names the benchmark tracer (bench/tracer.py) wraps must exist where it
looks for them: every module it lists imports, and every traced method is
defined in its class's own body, since the tracer reads ``cls.__dict__``
and an inherited method would be missing there."""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER_PATH = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("convalg_bench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


TRACER = load_tracer()


@pytest.mark.parametrize("module", TRACER.MODULES)
def test_traced_module_imports(module):
    importlib.import_module(f"convalg.{module}")


@pytest.mark.parametrize(
    "module,cls_name,method",
    [
        (m, cls_name, meth)
        for m, classes in TRACER.METHODS.items()
        for cls_name, methods in classes.items()
        for meth in methods
    ],
)
def test_traced_method_in_own_class_body(module, cls_name, method):
    cls = getattr(importlib.import_module(f"convalg.{module}"), cls_name)
    assert method in cls.__dict__, f"{cls_name}.{method} is inherited, not defined in {cls_name}"
