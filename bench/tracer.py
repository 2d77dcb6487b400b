"""In-memory span recorder that wraps delaywave functions from outside.

Each wrapper replaces a function at the place its caller looks it up (for
example ``delaywave.solver.step`` as called by ``run``), so nothing in the
package itself changes. A span records name, start, end, the span that was
open when it started, a per-scenario id and whether the call raised. Spans
stay in memory until ``dump`` writes them out.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import threading
import time

# (caller module, attribute, span name). Each caller module is patched on its
# own, since every module holds its own reference to the imported function.
WRAP_POINTS = (
    ("cli", "parse_config", "config.parse_config"),
    ("cli", "run_scenario", "scenario.run_scenario"),
    ("cli", "sweep", "scenario.sweep"),
    ("scenario", "run_scenario", "scenario.run_scenario"),
    ("scenario", "build_problem", "solver.build_problem"),
    ("scenario", "run", "solver.run"),
    ("scenario", "embedding_constant_for_gate", "analysis.embedding_constant_for_gate"),
    ("scenario", "embedding_constant_for_bound", "analysis.embedding_constant_for_bound"),
    ("scenario", "global_existence_gate", "analysis.global_existence_gate"),
    ("scenario", "blowup_lower_bound", "analysis.blowup_lower_bound"),
    ("scenario", "classify", "analysis.classify"),
    ("scenario", "fit_blowup_growth", "analysis.fit_blowup_growth"),
    ("scenario", "discrete_poincare_constant", "spaces.discrete_poincare_constant"),
    ("scenario", "trajectory_csv", "scenario.trajectory_csv"),
    ("solver", "validate_exponent_pair", "spaces.validate_exponent_pair"),
    ("solver", "build_kernel", "delay.build_kernel"),
    ("solver", "init_state", "solver.init_state"),
    ("solver", "step", "solver.step"),
    ("solver", "energy_report", "energetics.energy_report"),
)

CERTIFY_SPANS = ("analysis.embedding_constant_for_gate",
                 "analysis.embedding_constant_for_bound")
SCENARIO_SPAN = "scenario.run_scenario"


class Tracer:
    """Records spans from any thread; parents follow the calling thread."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []  # [id, name, start, end, parent, scenario, thread, error]
        self.counts = {}
        self.certify_calls = []  # [span name, input key]
        self._ids = itertools.count(1)
        self._scenarios = itertools.count(1)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main_stack = None

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
            if threading.current_thread() is threading.main_thread():
                self._main_stack = stack
        return stack

    def _parent(self, stack):
        """Innermost open span of this thread, else that of the main thread
        (a pool worker's span is caused by the span the main thread waits in)."""
        if stack:
            return stack[-1]
        main = self._main_stack
        if main:
            return main[-1]
        return (None, None)

    def add_count(self, name, amount):
        with self._lock:
            self.counts[name] = self.counts.get(name, 0) + amount

    def wrap(self, module, attr, name, observe=None):
        fn = getattr(module, attr)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if observe is not None:
                observe(tracer, args, kwargs)
            stack = tracer._stack()
            parent, scenario = tracer._parent(stack)
            span_id = next(tracer._ids)
            if name == SCENARIO_SPAN:
                scenario = next(tracer._scenarios)
            stack.append((span_id, scenario))
            error = False
            start = tracer.clock()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                error = True
                raise
            finally:
                end = tracer.clock()
                stack.pop()
                tracer.spans.append([span_id, name, start, end, parent, scenario,
                                     threading.get_ident(), error])

        setattr(module, attr, traced)

    def record(self, name, start, end):
        """Add a span measured by the caller (for example the package import)."""
        self.spans.append([next(self._ids), name, start, end, None, None,
                           threading.get_ident(), False])

    def dump(self, path, **extra):
        doc = {"spans": self.spans, "counts": self.counts,
               "certify_calls": self.certify_calls, **extra}
        with open(path, "w") as handle:
            json.dump(doc, handle)


def _observe_step(tracer, args, kwargs):
    tracer.add_count("solver.step.z_bytes", args[0].z.nbytes)


def _certify_observer(name):
    def observe(tracer, args, kwargs):
        grid, p1, p2 = args[:3]
        key = (tuple(grid.lengths), tuple(grid.counts), float(p1), float(p2),
               kwargs.get("seed"), kwargs.get("n_samples"), kwargs.get("safety"))
        with tracer._lock:
            tracer.certify_calls.append([name, repr(key)])
    return observe


def install(tracer, package):
    """Wrap every WRAP_POINTS entry of an imported ``delaywave`` package."""
    observers = {"solver.step": _observe_step}
    for span in CERTIFY_SPANS:
        observers[span] = _certify_observer(span)
    for module_name, attr, span in WRAP_POINTS:
        module = importlib.import_module(f"{package.__name__}.{module_name}")
        tracer.wrap(module, attr, span, observers.get(span))
