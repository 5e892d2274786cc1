"""Spans around calls into each layer of ``nhcreutz``, from outside it.

A module that does ``from .spectral import eig`` holds its own binding of
``eig``, so wrapping ``nhcreutz.spectral.eig`` alone would time nothing.
``Tracer.install`` therefore rebinds every module-level name in the
package that refers to a traced function, in the defining module too, so
that calls inside a module (``is_defective`` -> ``_defective_from``) are
seen as well. ``uninstall`` puts the original objects back.

A span's parent is the innermost open span of its thread; a span opened
in a sweep's worker thread, where no span is open, takes the innermost
open span of the thread that installed the tracer. A layer's self time
is its span minus the part of that interval its child spans cover.
"""

import functools
import statistics
import threading
import time

LAYERS = ("cli", "sweep", "model", "spectral", "degeneracy",
          "localization", "dynamics", "gauge")

TRACED = {
    "sweep": ("phase_diagram", "dipr_map", "mipr_map"),
    "model": ("build_realspace",),
    "spectral": ("eig", "obc_spectrum_via_chains", "pbc_dispersion",
                 "classify"),
    "degeneracy": ("classify_point", "jordan_structure", "is_defective",
                   "_defective_from"),
    "localization": ("mean_dipr",),
    "dynamics": ("propagate", "initial_state"),
    "gauge": ("gauge_report",),
}

# spans that count units of work: propagate(H, psi0, t_max, n_steps, ...)
_STEPS = {"dynamics.propagate": 3}


class Span:
    __slots__ = ("name", "start", "end", "parent", "steps")

    def __init__(self, name, parent, steps=0):
        self.name, self.parent, self.steps = name, parent, steps
        self.start = time.perf_counter()
        self.end = None


class Tracer:
    def __init__(self):
        self.spans = []
        self._local = threading.local()
        self._home = None
        self._undo = []

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name, steps=0):
        stack = self._stack()
        parent = stack[-1] if stack else \
            (self._home[-1] if self._home else None)
        span = Span(name, parent, steps)
        stack.append(span)
        self.spans.append(span)
        return span

    def close(self, span):
        span.end = time.perf_counter()
        self._stack().pop()

    def wrap(self, name, fn):
        steps_at = _STEPS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            steps = 0
            if steps_at is not None:
                steps = kwargs.get("n_steps", args[steps_at]
                                   if len(args) > steps_at else 0)
            span = self.open(name, steps)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(span)
        return traced

    def install(self, package):
        """Rebind the traced functions in every module of package."""
        self._home = self._stack()
        modules = [getattr(package, layer) for layer in LAYERS]
        for layer, names in TRACED.items():
            owner = getattr(package, layer)
            for fname in names:
                target = getattr(owner, fname)
                wrapper = self.wrap(f"{layer}.{fname}", target)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is target:
                            setattr(mod, attr, wrapper)
                            self._undo.append((mod, attr, value))

    def uninstall(self):
        for mod, attr, value in reversed(self._undo):
            setattr(mod, attr, value)
        self._undo.clear()
        self._home = None


def _covered(span, children):
    """Length of the union of the children's intervals inside span."""
    total, reach = 0.0, span.start
    for c in sorted(children, key=lambda c: c.start):
        lo, hi = max(c.start, reach), min(c.end, span.end)
        if hi > lo:
            total += hi - lo
            reach = hi
    return total


def self_times(spans):
    """Self time of every span, keyed by the span object."""
    children = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(id(s.parent), []).append(s)
    return {id(s): (s.end - s.start) - _covered(s, children.get(id(s), ()))
            for s in spans}


def _noop():
    pass


def wrapper_cost(calls=20000):
    """Seconds one span adds to a call, from a wrapped no-op."""
    tracer = Tracer()
    bare = _noop
    wrapped = tracer.wrap("noop", bare)
    costs = []
    for _ in range(5):
        t0 = time.perf_counter()
        for _ in range(calls):
            bare()
        t1 = time.perf_counter()
        for _ in range(calls):
            wrapped()
        t2 = time.perf_counter()
        costs.append(((t2 - t1) - (t1 - t0)) / calls)
        tracer.spans.clear()
    return max(statistics.median(costs), 0.0)


def summarize(spans):
    """Per-function and per-layer figures of one traced run.

    Returns (calls, total, self_by_layer, steps): span counts and inclusive
    seconds by span name, self seconds by layer, and propagate steps.
    """
    calls, total, steps = {}, {}, 0
    by_layer = dict.fromkeys(LAYERS, 0.0)
    own = self_times(spans)
    for s in spans:
        calls[s.name] = calls.get(s.name, 0) + 1
        total[s.name] = total.get(s.name, 0.0) + (s.end - s.start)
        steps += s.steps
        by_layer[s.name.split(".", 1)[0]] += own[id(s)]
    return calls, total, by_layer, steps
