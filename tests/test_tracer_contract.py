"""The names the benchmark tracer (bench/tracer.py) wraps must exist where it
looks for them: every module it lists imports, and every traced method is
defined in its class's own body, since the tracer reads ``cls.__dict__``
and an inherited method would be missing there. The span names its
per-layer metrics read must be names it wraps: a metric sums
``table.get(name, 0)``, so a renamed function would silently read 0."""

import ast
import importlib
import importlib.util
import inspect
import subprocess
import sys
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


def layer_metric_literals():
    """Every string in a list literal of ``layer_metrics``, plus each span
    name it passes to ``raised.get``."""
    tree = ast.parse(TRACER_PATH.read_text())
    fn = next(n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == "layer_metrics")
    names = set()
    for node in ast.walk(fn):
        if isinstance(node, ast.List):
            names.update(e.value for e in node.elts if isinstance(e, ast.Constant))
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "get"
            and isinstance(node.func.value, ast.Name)
            and node.func.value.id == "raised"
        ):
            names.add(node.args[0].value)
    return names


def traced_span_names():
    """The span names :meth:`Tracer.install` opens: each public function
    defined in a traced module, and each listed method."""
    names = set()
    for m in TRACER.MODULES:
        mod = importlib.import_module(f"convalg.{m}")
        names.update(
            f"{m}.{attr}"
            for attr, obj in vars(mod).items()
            if inspect.isfunction(obj)
            and obj.__module__ == mod.__name__
            and not attr.startswith("_")
        )
    names.update(
        f"{m}.{cls_name}.{meth}"
        for m, classes in TRACER.METHODS.items()
        for cls_name, methods in classes.items()
        for meth in methods
    )
    return names


def test_layer_metric_span_names_are_traced():
    literals = layer_metric_literals()
    assert {"type2.sup_left", "type2.sample_to_grid", "terms.holds_in"} <= literals
    assert len(literals) >= 23
    missing = sorted(literals - traced_span_names())
    assert not missing, f"layer_metrics reads spans no traced function opens: {missing}"


# bench/run.py's own check of the wrappers, run where bench/run.py runs it:
# after tracer.install() in a fresh process, since install rebinds names in
# every convalg module. -B keeps bench/ free of bytecode.
SELF_TEST = """
import sys
sys.path.insert(0, sys.argv[1])
import run
W = run.load_workloads()
import tracer
t = tracer.Tracer()
t.install()
problems = run.self_test(W, t)
print(problems)
sys.exit(1 if problems else 0)
"""


def test_benchmark_tracer_self_test_passes():
    # pins one apply and one conv_op or rel_image per table entry
    bench = TRACER_PATH.parent
    done = subprocess.run(
        [sys.executable, "-B", "-c", SELF_TEST, str(bench)],
        capture_output=True, text=True, timeout=120,
    )
    assert (done.returncode, done.stdout, done.stderr) == (0, "[]\n", "")


# bench/run.py's repeat check on the seed-0 etale job list: one untraced pass,
# then two traced passes whose call and raise counts must be equal. An LRU memo
# that evicts sees the same misses in every full pass, which that check cannot
# tell from no eviction, so the traced passes must also construct no subobject:
# the untraced pass left each one remembered by its bundle.
REPEAT = """
import sys
sys.path.insert(0, sys.argv[1])
import run
W = run.load_workloads()
jobs = W.build("etale", 0, None)
untraced = run.run_passes(W, jobs, 0, 1)
import tracer
t = tracer.Tracer()
t.install()
traced = run.run_passes(W, jobs, 0, run.MIN_TRACED_PASSES, t)
_, repeat_ok = run.traced_metrics(tracer, t, untraced, traced)
built = [p.aggregates[0].get("etale.EtaleSubobject.__post_init__", 0) for p in traced]
print(len(traced), repeat_ok, built, [p.failures for p in untraced + traced])
"""


def test_etale_call_counts_repeat_between_traced_passes():
    bench = TRACER_PATH.parent
    done = subprocess.run(
        [sys.executable, "-B", "-c", REPEAT, str(bench)],
        capture_output=True, text=True, timeout=300,
    )
    assert (done.returncode, done.stdout, done.stderr) == (0, "2 True [0, 0] [[], [], []]\n", "")


# The same repeat check on the seed-0 equations job list. Each equation
# compiles its program on first use, so the untraced pass compiles every
# program the job list holds and the traced passes compile none: they call
# term_variables, which only a compile reaches, not once.
EQUATIONS_REPEAT = """
import sys
sys.path.insert(0, sys.argv[1])
import run
W = run.load_workloads()
jobs = W.build("equations", 0, None)
untraced = run.run_passes(W, jobs, 0, 1)
import tracer
t = tracer.Tracer()
t.install()
traced = run.run_passes(W, jobs, 0, run.MIN_TRACED_PASSES, t)
_, repeat_ok = run.traced_metrics(tracer, t, untraced, traced)
compiled = [p.aggregates[0].get("terms.term_variables", 0) for p in traced]
decided = [p.aggregates[0].get("terms.holds_in", 0) > 0 for p in traced]
print(len(traced), repeat_ok, compiled, decided, [p.failures for p in untraced + traced])
"""


def test_equations_call_counts_repeat_between_traced_passes():
    bench = TRACER_PATH.parent
    done = subprocess.run(
        [sys.executable, "-B", "-c", EQUATIONS_REPEAT, str(bench)],
        capture_output=True, text=True, timeout=300,
    )
    assert (done.returncode, done.stdout, done.stderr) == (
        0, "2 True [0, 0] [True, True] [[], [], []]\n", "")


# The same repeat check on the seed-0 type2 job list; both traced passes must
# reach the closed forms' merge through join and meet.
TYPE2_REPEAT = """
import sys
sys.path.insert(0, sys.argv[1])
import run
W = run.load_workloads()
jobs = W.build("type2", 0, None)
untraced = run.run_passes(W, jobs, 0, 1)
import tracer
t = tracer.Tracer()
t.install()
traced = run.run_passes(W, jobs, 0, run.MIN_TRACED_PASSES, t)
_, repeat_ok = run.traced_metrics(tracer, t, untraced, traced)
merged = [[p.aggregates[0].get(f"type2.t2_{op}", 0) > 0 for op in ("join", "meet")] for p in traced]
print(len(traced), repeat_ok, merged, [p.failures for p in untraced + traced])
"""


def test_type2_call_counts_repeat_between_traced_passes():
    bench = TRACER_PATH.parent
    done = subprocess.run(
        [sys.executable, "-B", "-c", TYPE2_REPEAT, str(bench)],
        capture_output=True, text=True, timeout=300,
    )
    assert (done.returncode, done.stdout, done.stderr) == (
        0, "2 True [[True, True], [True, True]] [[], [], []]\n", "")
