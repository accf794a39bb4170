"""Per-layer tracing for the pi1lab benchmark, installed from outside the package.

``Tracer.install()`` replaces the public functions and methods of every
pi1lab module with wrappers that record, per name, the call count, the
inclusive time and the self time (inclusive time minus the time of the
wrapped calls made directly inside it). A handful of per-point helpers are
only counted, because a span around each of them would cost more than the
work it measures. Spans are aggregated as they close instead of being kept,
because the demo alone makes more than a million wrapped calls.

Only calls that cross a module boundary through a module attribute are
seen: ``kernels.on_segment`` called from ``geometry`` is a kernel call, an
``orient`` made inside the kernel implementation is not.

The counts depend only on the work done, so two traced runs of the same
requests give identical counts; the times do not.
"""
from __future__ import annotations

import importlib
import inspect
import time

LAYERS = ("kernels", "geometry", "exactnum", "spaces", "loops", "words", "pi1", "dsl", "report", "svg", "cli")

# Called once per point or per kernel operand; counted, not timed.
COUNT_ONLY = {"geometry.Point2.quad", "geometry.Segment.quads", "geometry.point", "geometry.rat"}

# Private helpers whose work the per-layer metrics count. Their time stays
# in the enclosing public span of the same module. A helper that a later
# version of the package no longer has is skipped and its counter reads 0.
PRIVATE_COUNTED = {
    "spaces": ("_pair_intersection_violations",),
    "loops": ("_first_violation",),
}
PRIVATE_SPANS = {"spaces.SpaceHandle": ("_verify_against_cache",)}

POINT_QUERIES = ("spaces.SpaceHandle.membership", "spaces.SpaceHandle.edges_containing")
KERNEL_OPS = ("on_segment", "seg_intersect", "point_dist_sq", "lerp", "foot_param")


class Tracer:
    def __init__(self):
        self.stats = {}  # name -> [calls, inclusive_s, self_s, depth]
        self.stack = []  # open spans: [name, time spent in direct child spans]
        self.request = 0
        self.point_keys = set()
        self.circle_lookups = 0
        self.pairs_verified = 0
        self.breakpoints_analyzed = 0
        self.decompose_in_classify_y = 0
        self.discreteness_trials = 0
        self.discreteness_attempts = 0
        self.max_operand_bits = 0
        self.missing = []

    # -- wrappers --------------------------------------------------------------

    def _stat(self, name):
        return self.stats.setdefault(name, [0, 0.0, 0.0, 0])

    def _span(self, name, fn, hook=None):
        st = self._stat(name)
        stack = self.stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            if hook is not None:
                hook(args, kwargs)
            frame = [name, 0.0]
            stack.append(frame)
            st[3] += 1
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                st[3] -= 1
                stack.pop()
                st[0] += 1
                st[1] += dt
                st[2] += dt - frame[1]
                if stack:
                    stack[-1][1] += dt

        return wrapper

    def _counter(self, name, fn, hook=None):
        st = self._stat(name)

        def wrapper(*args, **kwargs):
            st[0] += 1
            if hook is not None:
                hook(args, kwargs)
            return fn(*args, **kwargs)

        return wrapper

    # -- hooks for the derived per-layer counters --------------------------------

    def _hooks(self):
        stats = self.stats

        def depth(name):
            return stats.get(name, (0, 0, 0, 0))[3]

        def point_query(args, kwargs):
            q = args[1] if len(args) > 1 else kwargs["q"]
            self.point_keys.add((self.request, q))

        def circle(args, kwargs):
            if self.stack and self.stack[-1][0] in POINT_QUERIES:
                self.circle_lookups += 1

        def pair(args, kwargs):
            self.pairs_verified += 1

        def first_violation(args, kwargs):
            self.breakpoints_analyzed += len(args[0].path.breakpoints)

        def decompose(args, kwargs):
            if depth("pi1.classify_y"):
                self.decompose_in_classify_y += 1

        def sup_distance(args, kwargs):
            if depth("pi1.probe_discreteness_x"):
                self.discreteness_attempts += 1

        def discreteness(args, kwargs):
            self.discreteness_trials += args[1] if len(args) > 1 else kwargs["trials"]

        def kernel(args, kwargs):
            top = self.max_operand_bits
            for a in args:
                for v in a if type(a) is tuple else (a,):
                    if type(v) is int:
                        b = v.bit_length()
                        if b > top:
                            top = b
            self.max_operand_bits = top

        hooks = {name: point_query for name in POINT_QUERIES}
        hooks.update(
            {
                "spaces.SpaceHandle.circle": circle,
                "spaces._pair_intersection_violations": pair,
                "loops._first_violation": first_violation,
                "loops.decompose": decompose,
                "geometry.sup_distance": sup_distance,
                "pi1.probe_discreteness_x": discreteness,
            }
        )
        return hooks, kernel

    # -- installation ----------------------------------------------------------

    def install(self):
        """Wrap every public function and method of the pi1lab layers."""
        hooks, kernel_hook = self._hooks()
        package = importlib.import_module("pi1lab")
        modules = {layer: importlib.import_module(f"pi1lab.{layer}") for layer in LAYERS}
        replaced = {}  # id(original) -> wrapper, for module-level functions
        for layer, mod in modules.items():
            for attr, obj in list(vars(mod).items()):
                if layer == "kernels":
                    if callable(obj) and not inspect.isclass(obj):
                        name = f"kernels.{attr}"
                        setattr(mod, attr, self._span(name, obj, kernel_hook))
                    continue
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    if attr.startswith("_") and attr not in PRIVATE_COUNTED.get(layer, ()):
                        continue
                    name = f"{layer}.{attr}"
                    if attr.startswith("_") or name in COUNT_ONLY:
                        wrapper = self._counter(name, obj, hooks.get(name))
                    else:
                        wrapper = self._span(name, obj, hooks.get(name))
                    replaced[id(obj)] = (obj, wrapper)
                elif inspect.isclass(obj) and obj.__module__ == mod.__name__ and not attr.startswith("_"):
                    self._wrap_class(f"{layer}.{attr}", obj, hooks)
            for attr in PRIVATE_COUNTED.get(layer, ()):
                if attr not in vars(mod):
                    self.missing.append(f"{layer}.{attr}")
        # Modules bind each other's functions by name at import, so every
        # binding of a wrapped function is replaced, not only its home one.
        for mod in (package, *modules.values()):
            for attr, obj in list(vars(mod).items()):
                hit = replaced.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(mod, attr, hit[1])

    def _wrap_class(self, prefix, cls, hooks):
        private = PRIVATE_SPANS.get(prefix, ())
        for attr in private:
            if attr not in vars(cls):
                self.missing.append(f"{prefix}.{attr}")
        for attr, obj in list(vars(cls).items()):
            if not inspect.isfunction(obj):
                continue
            if attr.startswith("_") and attr not in private:
                continue
            name = f"{prefix}.{attr}"
            make = self._counter if name in COUNT_ONLY else self._span
            setattr(cls, attr, make(name, obj, hooks.get(name)))

    # -- results ---------------------------------------------------------------

    def counters(self):
        """Every wrapped name with its calls and times, plus the derived counts."""
        out = {
            name: {"calls": st[0], "self_s": st[2], "inclusive_s": st[1]}
            for name, st in sorted(self.stats.items())
            if st[0]
        }
        out["derived"] = {
            "point_queries_distinct": len(self.point_keys),
            "circle_lookups_in_point_queries": self.circle_lookups,
            "pairs_verified": self.pairs_verified,
            "breakpoints_analyzed": self.breakpoints_analyzed,
            "decompose_in_classify_y": self.decompose_in_classify_y,
            "discreteness_trials": self.discreteness_trials,
            "discreteness_attempts": self.discreteness_attempts,
            "kernel_max_operand_bits": self.max_operand_bits,
        }
        return out

    def per_layer(self):
        """The per-layer metrics named in BENCHMARK.json, as (value, unit) pairs."""
        st = self.stats

        def calls(name):
            return st.get(name, (0,))[0]

        def self_s(*names):
            return sum(st[n][2] for n in names if n in st)

        def incl_s(name):
            return st[name][1] if name in st else 0.0

        def ratio(a, b):
            return a / b if b else 0.0

        queries = sum(calls(n) for n in POINT_QUERIES)
        kernel_names = [n for n in st if n.startswith("kernels.")]
        m = {
            "spaces.point_queries": (queries, "count"),
            "spaces.point_queries_distinct": (len(self.point_keys), "count"),
            "spaces.point_query_reuse": (ratio(queries, len(self.point_keys)), "ratio"),
            "spaces.point_query.self_s": (self_s(*POINT_QUERIES), "s"),
            "spaces.circle_lookups_per_query": (ratio(self.circle_lookups, queries), "ratio"),
            "spaces.circles_built": (calls("spaces.build_circle"), "count"),
            "spaces.pairs_verified": (self.pairs_verified, "count"),
            "spaces.circle_verify.self_s": (self_s("spaces.SpaceHandle._verify_against_cache"), "s"),
            "spaces.verify_disjointness.self_s": (self_s("spaces.verify_disjointness"), "s"),
            "spaces.hausdorff_convergence.self_s": (self_s("spaces.hausdorff_convergence"), "s"),
        }
        for fn in ("validate", "decompose", "winding_degree"):
            m[f"loops.{fn}.calls"] = (calls(f"loops.{fn}"), "count")
            m[f"loops.{fn}.self_s"] = (self_s(f"loops.{fn}"), "s")
        m["loops.breakpoints_analyzed"] = (self.breakpoints_analyzed, "count")
        for fn in ("classify_y", "classify_x"):
            m[f"pi1.{fn}.calls"] = (calls(f"pi1.{fn}"), "count")
            m[f"pi1.{fn}.self_s"] = (self_s(f"pi1.{fn}"), "s")
        for fn in ("collapse_with_certificate", "choose_n", "stability_radius"):
            m[f"pi1.{fn}.self_s"] = (self_s(f"pi1.{fn}"), "s")
        m["pi1.decompose_per_classify"] = (
            ratio(self.decompose_in_classify_y, calls("pi1.classify_y")),
            "ratio",
        )
        m["pi1.discreteness.attempts_per_trial"] = (
            ratio(self.discreteness_attempts, self.discreteness_trials),
            "ratio",
        )
        for probe in ("isomorphism_roundtrip", "discreteness_x", "nondiscreteness_y", "slsc_y"):
            m[f"pi1.probe_{probe}.s"] = (incl_s(f"pi1.probe_{probe}"), "s")
        m["geometry.point_quad.calls"] = (calls("geometry.Point2.quad"), "count")
        for label, name in (
            ("segment_contains", "geometry.Segment.contains"),
            ("segments_intersect", "geometry.segments_intersect"),
            ("sup_distance", "geometry.sup_distance"),
        ):
            m[f"geometry.{label}.calls"] = (calls(name), "count")
            m[f"geometry.{label}.self_s"] = (self_s(name), "s")
        m["geometry.hausdorff_distance_sq.self_s"] = (self_s("geometry.hausdorff_distance_sq"), "s")
        m["kernels.calls"] = (sum(calls(n) for n in kernel_names), "count")
        m["kernels.self_s"] = (self_s(*kernel_names), "s")
        for op in KERNEL_OPS:
            m[f"kernels.{op}.calls"] = (calls(f"kernels.{op}"), "count")
        m["kernels.max_operand_bits"] = (self.max_operand_bits, "bits")
        m["exactnum.sqrt_decimal.calls"] = (calls("exactnum.sqrt_decimal"), "count")
        m["exactnum.sqrt_decimal.self_s"] = (self_s("exactnum.sqrt_decimal"), "s")
        m["words.reduce_letters.calls"] = (calls("words.reduce_letters"), "count")
        m["dsl.parse.self_s"] = (self_s("dsl.parse"), "s")
        m["report.render.self_s"] = (self_s("report.ProbeReport.render"), "s")
        m["svg.write_scene.self_s"] = (self_s("svg.write_scene"), "s")
        return m
