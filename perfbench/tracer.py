"""Per-layer tracing of the dualdepth package, installed from outside.

The tracer replaces each listed function at every module binding that
refers to it (``depth.cofactor_direction`` and ``geometry.cofactor_direction``
are the same object, so both bindings get the one wrapper).  Each wrapper
records a span (name, start, duration, parent span, job id) and adds to
the function's call count, total time and self time, where self time is the
span's duration minus the time of the wrapped spans nested in it.

A function that the code no longer has is reported as absent and traced as
zero; renaming or deleting a kernel never crashes the run.  Nothing is
installed unless ``install`` is called, so untraced runs execute the
package unmodified.
"""

from __future__ import annotations

import json
import sys
import time

# Functions whose calls and self time are recorded, as "<module>.<name>".
# The public entry points the CLI calls are wrapped too, so that the CLI's
# own self time excludes the solver work under it.
TRACED = (
    "cli.main",
    "io.parse_instance",
    "io.write_instance",
    "generators.gen_instance",
    "geometry.int_det",
    "geometry.solve_int_square",
    "geometry.cofactor_direction",
    "geometry.check_general_position",
    "geometry.fraction_rank",
    "geometry.fraction_nullspace",
    "geometry.project_onto",
    "depth.max_depth_point",
    "depth._sign_table",
    "depth.hemisphere_depth",
    "depth.dual_depth",
    "depth.tukey_depth",
    "depth._max_strict",
    "depth.discrete_centerpoint",
    "depth.center_fixed_point",
    "lp.maximize",
    "lp._pivot",
    "tverberg.form_simplex",
    "tverberg.common_interior_point",
    "tverberg.dual_tverberg_plane",
    "tverberg.dual_tverberg_search",
    "tverberg.colorful_dual_tverberg_search",
    "measures.sample_flats",
    "measures._ray_fractions",
    "measures._halfflat_min_fraction",
    "measures.search_center_sampled",
    "measures.verify_dual_cpt_measure",
    "measures.verify_dual_ctr",
)

# Counters computed from a wrapped function's arguments and result:
# counter name -> (function, hook(args, kwargs, result) -> increment).
COUNTERS = {
    "measures.flats_drawn": ("measures.sample_flats", lambda a, k, r: len(r)),
    "measures.ray_tests": ("measures._ray_fractions", lambda a, k, r: len(a[0]) * len(r)),
    "tverberg.lp_accepted": (
        "tverberg.common_interior_point",
        lambda a, k, r: int(r is not None and r[1] > 0),
    ),
    "generators.regenerations": (
        "generators.gen_instance",
        lambda a, k, r: r.metadata["regenerations"],
    ),
}

PACKAGE = "dualdepth"

# Spans beyond this many are aggregated but not kept individually; the
# innermost kernels are called millions of times in a traced run.
SPAN_CAP = 50_000


class Tracer:
    def __init__(self):
        self.stats = {name: [0, 0.0, 0.0] for name in TRACED}  # calls, total s, self s
        self.counts = {name: 0 for name in COUNTERS}
        self.absent: list[str] = []
        self.spans: list[tuple] = []
        self.spans_dropped = 0
        self.job = None
        self.paused = False
        self._stack: list[list] = []  # [span id, child seconds]
        self._next_id = 0
        self._bindings = None

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        if self._bindings is None:
            self._bindings = self._find_bindings()
        for module, key, _, wrapper in self._bindings:
            setattr(module, key, wrapper)

    def uninstall(self) -> None:
        for module, key, original, _ in self._bindings or ():
            setattr(module, key, original)

    def _find_bindings(self) -> list[tuple]:
        """(module, attribute, original, wrapper) for every traced binding."""
        hooks: dict[str, list] = {}
        for counter, (target, hook) in COUNTERS.items():
            hooks.setdefault(target, []).append((counter, hook))
        modules = [
            m for name, m in list(sys.modules.items())
            if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
        ]
        bindings = []
        for qualname in TRACED:
            mod_name, _, attr = qualname.partition(".")
            module = sys.modules.get(f"{PACKAGE}.{mod_name}")
            original = getattr(module, attr, None) if module is not None else None
            if not callable(original):
                self.absent.append(qualname)
                continue
            wrapper = self._wrap(qualname, original, hooks.get(qualname, ()))
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        bindings.append((m, key, original, wrapper))
        for counter, (target, _) in COUNTERS.items():
            if target in self.absent:
                self.absent.append(counter)
        return bindings

    def _wrap(self, qualname, fn, hooks):
        stats = self.stats[qualname]
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if self.paused:
                return fn(*args, **kwargs)
            span_id = self._next_id
            self._next_id += 1
            parent = stack[-1][0] if stack else None
            frame = [span_id, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = clock() - start
                stack.pop()
                if stack:
                    stack[-1][1] += dur
                stats[0] += 1
                stats[1] += dur
                stats[2] += dur - frame[1]
                if len(self.spans) < SPAN_CAP:
                    self.spans.append((span_id, parent, self.job, qualname, start, dur))
                else:
                    self.spans_dropped += 1
            for counter, hook in hooks:
                if counter in self.absent:
                    continue
                try:
                    self.counts[counter] += hook(args, kwargs, result)
                except (TypeError, IndexError, KeyError, AttributeError):
                    # the function's signature changed under the hook
                    self.absent.append(counter)
                    self.counts[counter] = 0
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", qualname)
        return traced

    # -- results ------------------------------------------------------------

    def calls(self, qualname: str) -> int:
        return self.stats[qualname][0]

    def dump(self, path) -> None:
        """Write the aggregates and the kept spans as JSON."""
        with open(path, "w") as fh:
            json.dump({
                "absent": self.absent,
                "functions": {
                    name: {"calls": s[0], "total_ms": s[1] * 1e3, "self_ms": s[2] * 1e3}
                    for name, s in self.stats.items()
                },
                "counters": self.counts,
                "spans_dropped": self.spans_dropped,
                "span_fields": ["id", "parent", "job", "name", "start_s", "dur_s"],
                "spans": self.spans,
            }, fh)
