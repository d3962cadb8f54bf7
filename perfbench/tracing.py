"""Outside-in span tracing of one pfoco run.

The tracer rebinds public functions at the names they are called
through (module globals and set-class methods), records one span per
call with its parent, and restores every original on exit.  Nothing
under ``src/`` is edited: the spans sit around calls *into* each module.

Spans stay in memory as four parallel lists (name, parent, start, end)
plus a per-span ``extra`` value taken from the call's arguments or
result (projection diagnostics, interval counts, output paths).  Self
time is a span's duration minus the durations of its direct children.
:func:`layer_metrics` folds the spans of one traced run into the
per-layer metrics the benchmark reports.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import math
import os
import sys
import time

import numpy as np

# (module, attribute, span name): every name a run is routed through.
_FUNCTIONS = (
    ("pfoco.harness", "build_schedule", "harness.build_schedule"),
    ("pfoco.harness", "run_learner", "harness.run_learner"),
    ("pfoco.harness", "interval_regret_report", "harness.interval_regret_report"),
    ("pfoco.harness", "write_trace_csv", "harness.write_trace_csv"),
    ("pfoco.learners", "cip_loo", "learners.cip_loo"),
    ("pfoco.learners", "cip_so", "learners.cip_so"),
    ("pfoco.projection", "separating_hyperplane_fw", "projection.separating_hyperplane_fw"),
    ("pfoco.projection", "so_query", "projection.so_query"),
    ("pfoco.frankwolfe", "loo_query", "frankwolfe.loo_query"),
)
_SET_CLASSES = ("Ball", "Box", "Simplex", "L1Ball", "Polytope", "SqueezedSetView")
_SET_METHODS = ("loo", "separate", "project")
_HARNESS = ("harness.build_schedule", "harness.run_learner", "harness.interval_regret_report", "harness.write_trace_csv")


def _cip_loo_extra(args, kwargs, res):
    from pfoco.frankwolfe import fw_stop_ceiling
    from pfoco.projection import cip_loo_outer_ceiling

    ceiling = math.ceil(cip_loo_outer_ceiling(res.input_dist_sq, res.eps)) * fw_stop_ceiling(res.set_R, res.eps)
    return (res.outer_iterations, res.loo_calls / ceiling)


def _cip_so_extra(args, kwargs, res):
    gain = res.delta * (res.r - res.delta_prime)
    return (res.so_calls, res.so_calls / (res.set_R**2 / gain**2 + 1.0))


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


# span name -> extra(args, kwargs, result), evaluated after the span closes
_EXTRAS = {
    "harness.build_schedule": lambda a, k, res: res.T,
    "harness.run_learner": lambda a, k, res: res,
    "harness.interval_regret_report": lambda a, k, res: len(_arg(a, k, 3, "intervals")),
    "harness.write_trace_csv": lambda a, k, res: _arg(a, k, 1, "path"),
    "learners.cip_loo": _cip_loo_extra,
    "learners.cip_so": _cip_so_extra,
    "projection.separating_hyperplane_fw": lambda a, k, res: res.iterations,
}


def targets():
    """(owner, attribute, span name) for every rebound name."""
    out = [(importlib.import_module(mod), attr, name) for mod, attr, name in _FUNCTIONS]
    geometry = importlib.import_module("pfoco.geometry")
    for cls_name in _SET_CLASSES:
        cls = getattr(geometry, cls_name)
        out += [(cls, meth, f"set.{meth}") for meth in _SET_METHODS if meth in vars(cls)]
    return out


class Tracer:
    """Span recorder; install with ``with tracer.installed(): ...``."""

    def __init__(self):
        self.names: list[str] = []
        self.parents: list[int] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.extra: dict[int, object] = {}
        self._stack = [-1]

    def clear(self) -> None:
        self.names.clear()
        self.parents.clear()
        self.starts.clear()
        self.ends.clear()
        self.extra.clear()

    def _wrap(self, name: str, fn):
        names, parents, starts, ends, stack, extra = (
            self.names,
            self.parents,
            self.starts,
            self.ends,
            self._stack,
            self.extra,
        )
        clock = time.perf_counter
        extract = _EXTRAS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(names)
            names.append(name)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(i)
            starts.append(clock())
            try:
                out = fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()
            if extract is not None:
                extra[i] = extract(args, kwargs, out)
            return out

        return traced

    @contextlib.contextmanager
    def installed(self):
        saved = []
        try:
            for owner, attr, name in targets():
                original = vars(owner)[attr]
                saved.append((owner, attr, original))
                setattr(owner, attr, self._wrap(name, original))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)
            self._stack[1:] = []


def unit(key: str) -> str:
    """Unit of a per-layer metric, from its name."""
    last = key.rsplit(".", 1)[-1]
    if last == "s" or last.endswith("_s"):
        return "s"
    if "us_per" in last:
        return "us"
    if last.endswith("bytes"):
        return "bytes"
    if last.endswith("frac") or last == "max":
        return "ratio"
    return "count"


def self_times(tracer: Tracer) -> np.ndarray:
    """Per-span duration minus the durations of its direct children."""
    dur = np.asarray(tracer.ends) - np.asarray(tracer.starts)
    child = np.zeros_like(dur)
    parents = np.asarray(tracer.parents, dtype=np.int64)
    has_parent = parents >= 0
    np.add.at(child, parents[has_parent], dur[has_parent])
    return dur - child


def trace_nbytes(trace) -> int:
    """Bytes held by a RunTrace: its arrays plus its projection records."""
    arrays = (trace.plays, trace.losses, trace.loo_cum, trace.so_cum, trace.block_index, trace.grad_norms)
    total = sum(a.nbytes for a in arrays if a is not None)
    for rec in trace.projections:
        fields = vars(rec)
        total += sys.getsizeof(rec) + sys.getsizeof(fields)
        for v in fields.values():
            total += sys.getsizeof(v)
            if isinstance(v, list):
                total += sum(sys.getsizeof(item) for item in v)
    return total


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer metrics of the spans recorded for one pfoco run."""
    names = tracer.names
    parents = tracer.parents
    dur = np.asarray(tracer.ends) - np.asarray(tracer.starts)
    own = self_times(tracer)
    # nearest harness-level ancestor (parents precede children)
    top: list[str] = []
    for i, name in enumerate(names):
        top.append(name if name in _HARNESS else (top[parents[i]] if parents[i] >= 0 else ""))

    def idx(pred):
        return [i for i, name in enumerate(names) if pred(i, name)]

    def outer_set(i, name, meth):
        p = parents[i]
        return name == f"set.{meth}" and (p < 0 or not names[p].startswith("set."))

    def total(ix, arr=dur):
        return float(arr[ix].sum()) if ix else 0.0

    def per(num, den, scale=1.0):
        return scale * num / den if den else 0.0

    m: dict[str, float] = {}
    sched = idx(lambda i, n: n == "harness.build_schedule")
    m["losses.schedule_s"] = total(sched)
    m["losses.rounds"] = float(sum(tracer.extra[i] for i in sched))

    learn = idx(lambda i, n: n == "harness.run_learner")
    rounds = sum(tracer.extra[i].T for i in learn)
    m["learners.loop_s"] = total(learn)
    m["learners.us_per_round"] = per(m["learners.loop_s"], rounds, 1e6)
    m["learners.self_s"] = total(learn, own)
    m["learners.self_us_per_round"] = per(m["learners.self_s"], rounds, 1e6)
    m["learners.trace_bytes"] = float(sum(trace_nbytes(tracer.extra[i]) for i in learn))

    so = idx(lambda i, n: n == "learners.cip_so")
    m["projection.cip_so.calls"] = float(len(so))
    m["projection.cip_so.s"] = total(so)
    m["projection.cip_so.self_s"] = total(so, own)
    m["projection.cip_so.active_frac"] = per(sum(tracer.extra[i][0] > 1 for i in so), len(so))

    loo = idx(lambda i, n: n == "learners.cip_loo")
    m["projection.cip_loo.calls"] = float(len(loo))
    m["projection.cip_loo.s"] = total(loo)
    m["projection.cip_loo.self_s"] = total(loo, own)
    m["projection.cip_loo.active_frac"] = per(sum(tracer.extra[i][0] > 0 for i in loo), len(loo))
    m["projection.cip_loo.outer_iters"] = float(sum(tracer.extra[i][0] for i in loo))
    m["projection.ceiling_frac.max"] = max((tracer.extra[i][1] for i in so + loo), default=0.0)

    fw = idx(lambda i, n: n == "projection.separating_hyperplane_fw")
    m["frankwolfe.fw.calls"] = float(len(fw))
    m["frankwolfe.fw.iters"] = float(sum(tracer.extra[i] for i in fw))
    m["frankwolfe.fw.self_s"] = total(fw, own)

    for phase, harness_name in (("learn", "harness.run_learner"), ("compare", "harness.interval_regret_report")):
        ix = idx(lambda i, n: outer_set(i, n, "loo") and top[i] == harness_name)
        m[f"geometry.loo.{phase}.calls"] = float(len(ix))
        m[f"geometry.loo.{phase}.s"] = total(ix)
        m[f"geometry.loo.{phase}.us_per_call"] = per(total(ix), len(ix), 1e6)

    seps = idx(lambda i, n: outer_set(i, n, "separate"))
    oracle = [i for i in seps if parents[i] >= 0 and names[parents[i]] == "projection.so_query"]
    m["geometry.separate.calls"] = float(len(oracle))
    m["geometry.separate.s"] = total(oracle)
    m["geometry.contains.calls"] = float(len(seps) - len(oracle))

    proj = idx(lambda i, n: outer_set(i, n, "project"))
    m["geometry.project.calls"] = float(len(proj))
    m["geometry.project.s"] = total(proj)

    comp = idx(lambda i, n: n == "harness.interval_regret_report")
    intervals = sum(tracer.extra[i] for i in comp)
    m["harness.compare.s"] = total(comp)
    m["harness.compare.self_s"] = total(comp, own)
    m["harness.compare.intervals"] = float(intervals)
    m["harness.compare.us_per_interval"] = per(m["harness.compare.s"], intervals, 1e6)

    io = idx(lambda i, n: n == "harness.write_trace_csv")
    m["harness.trace_io.write_s"] = total(io)
    m["harness.trace_io.bytes"] = float(sum(os.path.getsize(tracer.extra[i]) for i in io))
    return m
