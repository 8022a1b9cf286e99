"""Span tracing of the convalg layers, installed from outside the package.

:meth:`Tracer.install` wraps every public module-level function of each
convalg module, plus the class methods listed in :data:`METHODS`, and
rebinds every name that refers to a wrapped function in every convalg
module (the package re-exports functions and modules import each other's,
so ``conv_op`` alone is bound in five namespaces). Each call becomes a
span on a stack: its self time is its duration minus the time its child
spans cover, and the root span is the harness itself. Spans are
aggregated as they close, per span name and per (parent, child) edge, so
a traced run of millions of calls keeps constant memory.

Counts are exact. Self times include the wrappers' own cost, which falls
mostly on the callers of hot small functions (``conv_op`` pays for the
lattice ``meet`` spans it opens), so compare self times only between
traced runs.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time

MODULES = (
    "lattice", "relstruct", "convolution", "complexalg", "etale",
    "terms", "type2", "formats", "cli",
)

# Methods traced besides the module-level functions: lattice operations,
# validating constructors and the algebra interface of the equation
# checker. Value-type accessors stay untraced; their cost is their
# caller's self time.
METHODS = {
    "lattice": {
        "FiniteTopology": ("__post_init__",),
        "FiniteLattice": ("__init__", "join_all", "meet_all", "join", "meet", "impl", "neg"),
        "OpenSetLattice": ("__init__", "join_all", "meet_all", "join", "meet", "impl"),
        "ChainLattice": ("__init__", "join_all", "meet_all", "join", "meet", "impl", "negation"),
    },
    "relstruct": {"RelationalStructure": ("__post_init__",)},
    "convolution": {"LatticeMap": ("__post_init__",)},
    "etale": {"EtaleSubobject": ("__post_init__",)},
    "terms": {
        "ConvolutionAlgebra": ("apply", "elements"),
        "ComplexAlgebra": ("apply", "elements"),
    },
}

HARNESS = "harness"


class Tracer:
    """Aggregated spans: calls, self time and raised exceptions per name."""

    def __init__(self):
        self.calls = {}
        self.self_s = {}
        self.raised = {}
        self.edges = {}
        self.stack = [[HARNESS, 0.0]]  # [span name, time covered by children]
        self.originals = {}  # span name -> wrapped function
        self._t0 = None

    # ------------------------------------------------------------ spans

    def start(self):
        """Open the root span; everything until :meth:`stop` is accounted."""
        self.stack[:] = [[HARNESS, 0.0]]
        self._t0 = time.perf_counter()

    def stop(self):
        total = time.perf_counter() - self._t0
        root = self.stack[0]
        self.self_s[HARNESS] = self.self_s.get(HARNESS, 0.0) + total - root[1]
        self.calls[HARNESS] = self.calls.get(HARNESS, 0) + 1
        return total

    def snapshot(self):
        return dict(self.calls), dict(self.self_s), {k: dict(v) for k, v in self.raised.items()}

    def reset(self):
        self.calls.clear()
        self.self_s.clear()
        self.raised.clear()
        self.edges.clear()

    def _wrap(self, fn, name):
        stack = self.stack
        calls, self_s, edges, raised = self.calls, self.self_s, self.edges, self.raised
        clock = time.perf_counter

        def close(frame, t0):
            dur = clock() - t0
            stack.pop()
            parent = stack[-1]
            parent[1] += dur
            calls[name] = calls.get(name, 0) + 1
            self_s[name] = self_s.get(name, 0.0) + dur - frame[1]
            edge = (parent[0], name)
            edges[edge] = edges.get(edge, 0) + 1

        def fail(exc):
            per = raised.setdefault(name, {})
            kind = type(exc).__name__
            per[kind] = per.get(kind, 0) + 1

        if inspect.isgeneratorfunction(fn):
            # one span per resumption, so consumer time between items is
            # not charged to the generator
            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                it = fn(*args, **kwargs)
                while True:
                    frame = [name, 0.0]
                    stack.append(frame)
                    t0 = clock()
                    try:
                        item = next(it)
                    except StopIteration:
                        close(frame, t0)
                        return
                    except Exception as exc:
                        fail(exc)
                        close(frame, t0)
                        raise
                    close(frame, t0)
                    yield item

            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [name, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            except Exception as exc:
                fail(exc)
                raise
            finally:
                close(frame, t0)

        return wrapper

    # ---------------------------------------------------------- install

    def install(self):
        """Wrap the layers and rebind every name that refers to a wrapped function."""
        pkg = sys.modules["convalg"]
        mods = {m: sys.modules[f"convalg.{m}"] for m in MODULES}
        namespaces = [vars(pkg)] + [vars(mod) for mod in mods.values()]
        replace = {}
        for m, mod in mods.items():
            for attr, obj in list(vars(mod).items()):
                if (
                    inspect.isfunction(obj)
                    and obj.__module__ == mod.__name__
                    and not attr.startswith("_")
                ):
                    name = f"{m}.{attr}"
                    replace[id(obj)] = self._wrap(obj, name)
                    self.originals[name] = obj
            for cls_name, methods in METHODS.get(m, {}).items():
                cls = getattr(mod, cls_name)
                for meth in methods:
                    fn = cls.__dict__[meth]
                    name = f"{m}.{cls_name}.{meth}"
                    setattr(cls, meth, self._wrap(fn, name))
                    self.originals[name] = fn
        for ns in namespaces:
            for attr, obj in list(ns.items()):
                if id(obj) in replace and inspect.isfunction(obj):
                    ns[attr] = replace[id(obj)]

    def unwrapped_bindings(self, extra_namespaces=()):
        """Names in convalg modules (and the given namespaces) that still
        refer to a function this tracer wrapped; empty after :meth:`install`."""
        wrapped = {id(fn) for fn in self.originals.values()}
        namespaces = [("convalg", vars(sys.modules["convalg"]))]
        for m in MODULES:
            mod = sys.modules[f"convalg.{m}"]
            namespaces.append((mod.__name__, vars(mod)))
            for obj in vars(mod).values():
                if inspect.isclass(obj) and obj.__module__ == mod.__name__:
                    namespaces.append((f"{mod.__name__}.{obj.__name__}", obj.__dict__))
        namespaces.extend(extra_namespaces)
        return sorted(
            f"{where}.{attr}"
            for where, ns in namespaces
            for attr, obj in ns.items()
            if id(obj) in wrapped
        )


# ------------------------------------------------------ per-layer metrics


def _sum(table, names):
    return sum(table.get(n, 0) for n in names)


def _names(tracer, predicate):
    return [n for n in tracer.originals if predicate(n)]


def layer_metrics(tracer, calls, self_s, raised):
    """The per-layer metrics of BENCHMARK.json from one pass's aggregates."""
    def s(names):
        return _sum(self_s, names)

    def c(names):
        return _sum(calls, names)

    def method(m, meth):
        return _names(tracer, lambda n: n.startswith(f"{m}.") and n.endswith(f".{meth}")
                      and n.count(".") == 2)

    def module_fn(m, prefix):
        return _names(tracer, lambda n: n.startswith(f"{m}.{prefix}") and n.count(".") == 1)

    conv = ["convolution.conv_op"]
    out = {
        "convolution.conv_op.calls": (c(conv), "count"),
        "convolution.conv_op.self_s": (s(conv), "s"),
        "convolution.conv_op.us_per_call": (1e6 * s(conv) / c(conv) if c(conv) else 0.0, "us"),
        "convolution.LatticeMap.constructed": (c(["convolution.LatticeMap.__post_init__"]), "count"),
        "convolution.LatticeMap.self_s": (s(["convolution.LatticeMap.__post_init__"]), "s"),
        "convolution.enumerate_maps.self_s": (s(["convolution.enumerate_maps"]), "s"),
        "convolution.pointwise.self_s": (s(module_fn("convolution", "pointwise_")), "s"),
        "lattice.meet.calls": (c(method("lattice", "meet")), "count"),
        "lattice.join.calls": (c(method("lattice", "join")), "count"),
        "lattice.impl.calls": (c(method("lattice", "impl")), "count"),
        "lattice.check_heyting_laws.self_s": (s(["lattice.check_heyting_laws"]), "s"),
        "complexalg.rel_image.calls": (c(["complexalg.rel_image"]), "count"),
        "complexalg.rel_image.self_s": (s(["complexalg.rel_image"]), "s"),
        "complexalg.characteristic_iso.self_s": (s(["complexalg.characteristic_iso"]), "s"),
        "etale.phi.calls": (c(["etale.phi"]), "count"),
        "etale.phi.self_s": (s(["etale.phi"]), "s"),
        "etale.fiberwise_rel_image.self_s": (s(["etale.fiberwise_rel_image"]), "s"),
        "etale.per_fiber_rel_image.self_s": (s(["etale.per_fiber_rel_image"]), "s"),
        "etale.sub_ops.self_s": (s(module_fn("etale", "sub_")), "s"),
        "etale.verify_main_iso.self_s": (s(["etale.verify_main_iso"]), "s"),
        "terms.holds_in.calls": (c(["terms.holds_in"]), "count"),
        "terms.holds_in.self_s": (s(["terms.holds_in"]), "s"),
        "terms.ConvolutionAlgebra.apply.calls": (c(["terms.ConvolutionAlgebra.apply"]), "count"),
        "terms.ComplexAlgebra.apply.calls": (c(["terms.ComplexAlgebra.apply"]), "count"),
        "terms.eval_term.calls": (c(["terms.eval_term"]), "count"),
        "terms.capacity_skips": (
            raised.get("terms.holds_in", {}).get("CapacityError", 0), "count"),
        "type2.grid_conv_oracle.calls": (c(["type2.grid_conv_oracle"]), "count"),
        "type2.grid_conv_oracle.self_s": (s(["type2.grid_conv_oracle"]), "s"),
        "type2.closed.self_s": (
            s(["type2.t2_join", "type2.t2_meet", "type2.t2_neg", "type2.sup_left", "type2.sup_right"]),
            "s"),
        "type2.sample_to_grid.self_s": (s(["type2.sample_to_grid"]), "s"),
        "type2.random_grid_step.self_s": (s(["type2.random_grid_step"]), "s"),
        "formats.parse.self_s": (s(module_fn("formats", "parse_")), "s"),
        "formats.format.self_s": (s(module_fn("formats", "format_")), "s"),
        "relstruct.RelationalStructure.self_s": (
            s(["relstruct.RelationalStructure.__post_init__"]), "s"),
        "cli.main.self_s": (s(_names(tracer, lambda n: n.startswith("cli."))), "s"),
    }
    for m in MODULES:
        out[f"layer.{m}.self_s"] = (s(_names(tracer, lambda n, m=m: n.startswith(f"{m}."))), "s")
    out["layer.harness.self_s"] = (s([HARNESS]), "s")
    return out
