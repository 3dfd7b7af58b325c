"""Spans and counters recorded around the public functions of awwlab.

The package itself carries no tracing. For a traced round, `install`
replaces every public function of the traced modules, and a few methods,
by a wrapper that records one span per call: name, start, end and the
span that was open when the call began. Functions imported by name into
another module (`from .atom import eigenframe`) are replaced there too,
so calls between modules are seen. Spans stay in memory; `Tracer.dump`
writes them out once the round has ended.
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict

import numpy as np

TRACED_MODULES = ("bath", "atom", "exact", "reduced", "spectral",
                  "asymptotics", "emission", "harness")

# (module, class, method, span name)
TRACED_METHODS = (
    ("reduced", "PropagatorTable", "__init__", "reduced.PropagatorTable"),
    ("reduced", "PropagatorTable", "at", "reduced.PropagatorTable.at"),
    ("reduced", "EffectiveGenerator", "__init__", "reduced.EffectiveGenerator"),
    ("reduced", "EffectiveGenerator", "__call__", "reduced.EffectiveGenerator.call"),
    ("atom", "AtomPath", "matrix", "atom.AtomPath.matrix"),
    ("exact", "Trajectory", "z_at", "exact.Trajectory.z_at"),
)

# public names that the modules leave out of __all__
EXTRA_FUNCTIONS = (("harness", "point_metrics"), ("harness", "write_trajectory_csv"))

# Spans that mark one eps point of a ladder; the stages below them are
# attributed to that eps for the cost exponents.
POINT_SPANS = {
    "harness.point_metrics": lambda args, kw: float(args[1]),
    "harness.run_simulate": lambda args, kw: float(args[0]["sim.eps"]),
}

COST_STAGES = ("exact.propagate_exact", "exact.discretize_bath",
               "reduced.volterra_solve", "reduced.EffectiveGenerator")

_TRAJ_ARRAYS = ("times", "z", "field", "norm_defect", "source_times", "source_vals")


class Tracer:
    """In-memory span store: parallel lists indexed by span id."""

    def __init__(self):
        self.names = []
        self.start = []
        self.end = []
        self.parent = []
        self.outer = []                # no open span of the same name at start
        self.point = []                # eps of the enclosing point span, or None
        self.counts = defaultdict(float)
        self._stack = []
        self._open = defaultdict(int)
        self._points = []

    def open(self, name, eps=None):
        idx = len(self.names)
        self.names.append(name)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.outer.append(self._open[name] == 0)
        self.point.append(self._points[-1] if self._points else None)
        self.end.append(None)
        self._stack.append(idx)
        self._open[name] += 1
        if eps is not None:
            self._points.append(eps)
        self.start.append(time.perf_counter())
        return idx

    def close(self, idx, is_point=False):
        self.end[idx] = time.perf_counter()
        self._stack.pop()
        self._open[self.names[idx]] -= 1
        if is_point:
            self._points.pop()

    def wrap(self, fn, name):
        point = POINT_SPANS.get(name)
        on_result = _RESULT_COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kw):
            idx = self.open(name, None if point is None else point(args, kw))
            try:
                result = fn(*args, **kw)
            finally:
                self.close(idx, point is not None)
            if on_result is not None:
                on_result(self.counts, result)
            return result

        return traced

    def summary(self):
        """Per name: calls, inclusive seconds and self seconds.

        Inclusive time counts only the outermost of nested spans of one
        name, so a recursive call is not counted twice. Self time is the
        span's duration less the durations of its direct children; spans
        of one thread nest, so children never overlap.
        """
        n = len(self.names)
        dur = np.array([self.end[i] - self.start[i] for i in range(n)])
        child = np.zeros(n)
        for i, p in enumerate(self.parent):
            if p >= 0:
                child[p] += dur[i]
        calls = defaultdict(int)
        incl = defaultdict(float)
        self_s = defaultdict(float)
        for i, name in enumerate(self.names):
            calls[name] += 1
            self_s[name] += dur[i] - child[i]
            if self.outer[i]:
                incl[name] += dur[i]
        return {name: {"calls": calls[name], "s": incl[name], "self_s": self_s[name]}
                for name in calls}

    def stage_time_per_point(self, stage):
        """{eps: inclusive seconds of `stage` under the point span of that eps}."""
        out = defaultdict(float)
        for i, name in enumerate(self.names):
            if name == stage and self.outer[i] and self.point[i] is not None:
                out[self.point[i]] += self.end[i] - self.start[i]
        return dict(out)

    def dump(self, path):
        names = sorted(set(self.names))
        index = {name: k for k, name in enumerate(names)}
        t0 = self.start[0] if self.start else 0.0
        spans = [[index[self.names[i]], round(self.start[i] - t0, 9),
                  round(self.end[i] - t0, 9), self.parent[i], self.point[i]]
                 for i in range(len(self.names))]
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start_s", "end_s", "parent", "point_eps"],
                       "names": names, "spans": spans,
                       "counts": dict(self.counts)}, fh)


def _count_volterra(counts, traj):
    counts["reduced.volterra.steps"] += len(traj.times) - 1


def _count_exact(counts, traj):
    counts["exact.nfev"] += traj.meta["nfev"]
    counts["exact.modes"] += traj.meta["modes"]
    nbytes = sum(getattr(traj, a).nbytes for a in _TRAJ_ARRAYS
                 if getattr(traj, a) is not None)
    counts["exact.trajectory_mb"] += nbytes / 2.0**20


_RESULT_COUNTERS = {
    "reduced.volterra_solve": _count_volterra,
    "exact.propagate_exact": _count_exact,
}


def install(tracer, package):
    """Wrap the traced functions and methods of `package` (the awwlab module).

    Returns the undecorated `bath.correlation_l1_norm`, whose lru_cache
    statistics give the cache misses.
    """
    modules = [getattr(package, m) for m in TRACED_MODULES]
    l1_norm = package.bath.correlation_l1_norm
    replaced = {}
    for mod in modules:
        prefix = mod.__name__.rsplit(".", 1)[-1]
        for name in mod.__all__:
            obj = getattr(mod, name)
            if callable(obj) and not isinstance(obj, type):
                replaced[id(obj)] = (obj, tracer.wrap(obj, f"{prefix}.{name}"))
    for mod_name, name in EXTRA_FUNCTIONS:
        obj = getattr(getattr(package, mod_name), name)
        replaced[id(obj)] = (obj, tracer.wrap(obj, f"{mod_name}.{name}"))
    for mod in [package] + modules:
        for attr, value in list(vars(mod).items()):
            hit = replaced.get(id(value))
            if hit is not None and hit[0] is value:
                setattr(mod, attr, hit[1])
    for mod_name, cls_name, meth, span in TRACED_METHODS:
        cls = getattr(getattr(package, mod_name), cls_name)
        setattr(cls, meth, tracer.wrap(getattr(cls, meth), span))
    return l1_norm
