"""Benchmark harness: configs, runs, regret evaluation, trace files.

A JSON config fully determines an experiment up to the seed list; the
same (config, seed) pair always reproduces byte-identical trace CSVs.
Schedules and play randomness draw from two independent streams spawned
from the seed, so the loss sequence is oblivious to the learner's
randomness by construction.

Regret is evaluated against certified comparators only, all intervals
of a report in one batched scan (``loo_many``/``project_many``, one
answer per interval):

* all-linear schedules: interval sums of coefficients via prefix sums,
  one (uncharged) LOO answer per interval -- exact minimizer.
* all-quadratic schedules with a common curvature: the interval
  objective is a single quadratic, so its constrained minimizer is the
  exact projection of the unconstrained one; a one-LOO duality-gap
  certificate is attached to every interval and checked against the
  comparator tolerance.

Schedules without a certified comparator (absolute deviations) are
refused by the evaluator rather than scored approximately.

Comparator work is analysis, not learning, so it is never charged
against the oracle budgets (same footing as exact projections).
"""

from __future__ import annotations

import csv
import dataclasses
import itertools
import json
import math
import os
from typing import Optional, Sequence

import numpy as np

from .geometry import Ball, Box, FeasibleSet, L1Ball, Polytope, Simplex
from .learners import LEARNERS, LearnerParams, RunTrace, theoretical_bounds
from .losses import (
    LossSchedule,
    make_iid_absdev_schedule,
    make_iid_linear_schedule,
    make_iid_quadratic_schedule,
    make_switching_linear_schedule,
    make_switching_quadratic_schedule,
)

OUT_DIR_ENV = "PFOCO_OUT_DIR"
EXHAUSTIVE_LIMIT = 512


class ConfigError(ValueError):
    """Invalid experiment configuration."""


def _check_keys(d: dict, where: str, required: tuple, optional: tuple = ()):
    if not isinstance(d, dict):
        raise ConfigError(f"{where} must be an object")
    unknown = sorted(set(d) - set(required) - set(optional))
    if unknown:
        raise ConfigError(f"unknown keys {unknown} in {where}")
    missing = sorted(set(required) - set(d))
    if missing:
        raise ConfigError(f"missing keys {missing} in {where}")


def _is_number(v) -> bool:
    """An int or a finite float (json.load parses NaN and Infinity), not a bool."""
    return isinstance(v, int) and not isinstance(v, bool) or isinstance(v, float) and math.isfinite(v)


def _is_numbers(v) -> bool:
    """A list of finite numbers (see :func:`_is_number`)."""
    return isinstance(v, list) and all(map(_is_number, v))


def _num(d: dict, key: str, where: str, default=None, minimum=None):
    v = d.get(key, default)
    if v is None and key not in d:
        raise ConfigError(f"{where}.{key} is required")
    if not _is_number(v):
        raise ConfigError(f"{where}.{key} must be a {'finite number' if isinstance(v, float) else 'number'}")
    if minimum is not None and v < minimum:
        raise ConfigError(f"{where}.{key} must be >= {minimum}")
    return v


def _int(d: dict, key: str, where: str, default=None, minimum=None):
    v = _num(d, key, where, default, minimum)
    if int(v) != v:
        raise ConfigError(f"{where}.{key} must be an integer")
    return int(v)


@dataclasses.dataclass
class ExperimentConfig:
    T: int
    seeds: list[int]
    set_cfg: dict
    loss_cfg: dict
    learner_cfg: dict
    intervals_cfg: Optional[dict]
    out_dir: Optional[str]
    raw: dict


def parse_config_dict(raw: dict) -> ExperimentConfig:
    _check_keys(raw, "config", ("T", "set", "loss", "learner"), ("seeds", "intervals", "out_dir"))
    T = _int(raw, "T", "config", minimum=1)
    seeds = raw.get("seeds", [0])
    if not isinstance(seeds, list) or not seeds or any(isinstance(s, bool) or not isinstance(s, int) for s in seeds):
        raise ConfigError("config.seeds must be a non-empty list of integers")
    set_cfg = _validate_set_cfg(raw["set"])
    loss_cfg = _validate_loss_cfg(raw["loss"], T)
    learner_cfg = _validate_learner_cfg(raw["learner"])
    intervals_cfg = _validate_intervals_cfg(raw.get("intervals"), T)
    out_dir = raw.get("out_dir")
    if out_dir is not None and not isinstance(out_dir, str):
        raise ConfigError("config.out_dir must be a string")
    return ExperimentConfig(T, list(seeds), set_cfg, loss_cfg, learner_cfg, intervals_cfg, out_dir, raw)


def _read_json(path: str, what: str):
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as e:
        raise ConfigError(f"{what} file not found or unreadable: {path} ({e.strerror})") from e
    except json.JSONDecodeError as e:
        raise ConfigError(f"{what} is not valid JSON: {e}") from e


def parse_config_file(path: str) -> ExperimentConfig:
    return parse_config_dict(_read_json(path, "config"))


def _validate_set_cfg(d: dict) -> dict:
    _check_keys(d, "set", ("kind",), ("n", "radius", "scale", "lower", "upper", "A", "b"))
    kind = d.get("kind")
    if kind == "ball":
        _check_keys(d, "set(ball)", ("kind", "n", "radius"))
    elif kind == "box":
        _check_keys(d, "set(box)", ("kind", "lower", "upper"))
    elif kind == "simplex":
        _check_keys(d, "set(simplex)", ("kind", "n"), ("scale",))
    elif kind == "l1":
        _check_keys(d, "set(l1)", ("kind", "n", "radius"))
    elif kind == "polytope":
        _check_keys(d, "set(polytope)", ("kind", "A", "b"))
    else:
        raise ConfigError(f"unknown set kind {kind!r}")
    if "n" in d:
        _int(d, "n", "set", minimum=1)
    for key in sorted(set(d) & {"radius", "scale"}):
        _num(d, key, "set")
    for key in sorted(set(d) & {"lower", "upper", "b"}):
        if not _is_numbers(d[key]):
            raise ConfigError(f"set.{key} must be a list of finite numbers")
    if "A" in d and not (isinstance(d["A"], list) and all(map(_is_numbers, d["A"]))):
        raise ConfigError("set.A must be a list of lists of finite numbers")
    return d


def build_set(d: dict) -> FeasibleSet:
    kind = _validate_set_cfg(d)["kind"]
    try:
        if kind == "ball":
            return Ball(int(d["n"]), float(d["radius"]))
        if kind == "box":
            return Box(d["lower"], d["upper"])
        if kind == "simplex":
            return Simplex(int(d["n"]), float(d.get("scale", 1.0)))
        if kind == "l1":
            return L1Ball(int(d["n"]), float(d["radius"]))
        if kind == "polytope":
            return Polytope(np.asarray(d["A"], dtype=np.float64), np.asarray(d["b"], dtype=np.float64))
    except (ValueError, TypeError) as e:
        raise ConfigError(f"bad set config: {e}") from e


# loss kind -> the config keys it reads
_LOSS_KEYS = {
    "iid_linear": {"scale"},
    "switching_linear": {"segments", "gain"},
    "iid_quadratic": {"alpha", "spread"},
    "switching_quadratic": {"segments", "alpha"},
    "iid_absdev": {"scale"},
}


def _validate_loss_cfg(d: dict, T: int) -> dict:
    _check_keys(d, "loss", ("kind",), set().union(*_LOSS_KEYS.values()))
    kind = d.get("kind")
    keys = _LOSS_KEYS.get(kind) if isinstance(kind, str) else None
    if keys is None:
        raise ConfigError(f"unknown loss kind {kind!r}")
    extras = sorted(set(d) - {"kind"} - keys)
    if extras:
        raise ConfigError(f"keys {extras} do not apply to loss {kind!r}")
    for key in sorted(set(d) & {"scale", "gain", "alpha", "spread"}):
        _num(d, key, "loss")
    if kind.startswith("switching"):
        segs = d.get("segments")
        if not isinstance(segs, list) or not segs:
            raise ConfigError("switching losses need a non-empty loss.segments list")
        total = 0
        for j, seg in enumerate(segs):
            length, target = seg if isinstance(seg, list) and len(seg) == 2 else (None, None)
            if not (type(length) is int and length > 0 and _is_numbers(target)):
                raise ConfigError(f"loss.segments[{j}] must be [positive integer length, list of numbers]")
            total += length
        if total != T:
            raise ConfigError(f"segment lengths sum to {total}, but T = {T}")
    return d


def build_schedule(d: dict, T: int, set_: FeasibleSet, rng: np.random.Generator) -> LossSchedule:
    kind = _validate_loss_cfg(d, T)["kind"]
    n, R = set_.n, set_.R
    try:
        if kind == "iid_linear":
            return make_iid_linear_schedule(T, n, R, rng, scale=float(d.get("scale", 1.0)))
        if kind == "switching_linear":
            return make_switching_linear_schedule(T, n, R, d["segments"], gain=float(d.get("gain", 1.0)))
        if kind == "iid_quadratic":
            return make_iid_quadratic_schedule(
                T, n, R, rng, alpha=float(d.get("alpha", 1.0)), spread=float(d.get("spread", 0.2))
            )
        if kind == "switching_quadratic":
            return make_switching_quadratic_schedule(T, n, R, d["segments"], alpha=float(d.get("alpha", 1.0)))
        if kind == "iid_absdev":
            return make_iid_absdev_schedule(T, n, R, rng, scale=float(d.get("scale", 1.0)))
    except ValueError as e:
        raise ConfigError(f"bad loss config: {e}") from e


def _validate_learner_cfg(d: dict) -> dict:
    _check_keys(d, "learner", ("kind",), set().union(*(k.keys for k in LEARNERS.values())))
    kind = d.get("kind")
    entry = LEARNERS.get(kind) if isinstance(kind, str) else None
    if entry is None:
        raise ConfigError(f"unknown learner kind {kind!r}")
    extras = sorted(set(d) - {"kind"} - entry.keys)
    if extras:
        raise ConfigError(f"keys {extras} do not apply to learner {kind!r}")
    for key, what in entry.required.items():
        if key not in d:
            raise ConfigError(f"learner {kind} requires an explicit {what}")
    for key in sorted(set(d) - {"kind"}):
        if key == "K":
            _int(d, key, "learner", minimum=1)
        else:
            _num(d, key, "learner")
    return d


def learner_params(learner_cfg: dict, set_: FeasibleSet, schedule: LossSchedule, T: int):
    """Theorem-default parameters with the config's overrides, as the run
    function takes them; a failed precondition is a ConfigError."""
    try:
        return LEARNERS[learner_cfg["kind"]].build(learner_cfg, set_, schedule, T)
    except ValueError as e:
        raise ConfigError(f"learner parameters rejected: {e}") from e


def run_learner(
    learner_cfg: dict,
    set_: FeasibleSet,
    schedule: LossSchedule,
    T: int,
    play_rng: Optional[np.random.Generator],
    seed: Optional[int] = None,
) -> RunTrace:
    """Build theorem-default parameters (with config overrides) and run."""
    params = learner_params(learner_cfg, set_, schedule, T)
    return LEARNERS[learner_cfg["kind"]].run(set_, schedule, params, play_rng, seed)


# ----------------------------------------------------------------------
# intervals


def _validate_intervals_cfg(d: Optional[dict], T: int) -> Optional[dict]:
    if d is None:
        return None
    _check_keys(d, "intervals", ("policy",), ("extra", "intervals"))
    policy = d.get("policy")
    if policy not in ("strided", "exhaustive", "list"):
        raise ConfigError(f"unknown interval policy {policy!r}")
    key = "intervals" if policy == "list" else "extra"
    if policy == "list" and "intervals" not in d:
        raise ConfigError("interval policy 'list' needs an intervals list")
    for k in ("extra", "intervals"):
        if k in d:
            if k != key:
                raise ConfigError(f"intervals.{k} does not apply to policy {policy!r}")
            _validate_interval_pairs(d[k], T)
    if policy == "exhaustive" and T > EXHAUSTIVE_LIMIT:
        raise ConfigError(f"exhaustive interval scan is limited to T <= {EXHAUSTIVE_LIMIT}")
    return d


def _validate_interval_pairs(pairs, T: int):
    if not isinstance(pairs, list) or not pairs:
        raise ConfigError("intervals must be a non-empty list of [start, end] pairs")
    for p in pairs:
        if not (isinstance(p, list) and len(p) == 2 and all(isinstance(v, int) for v in p)):
            raise ConfigError("intervals must be [start, end] integer pairs")
        s, e = p
        if not (1 <= s <= e <= T):
            raise ConfigError(f"interval [{s}, {e}] out of range for T = {T}")


def read_intervals_file(path: str, T: int) -> list[tuple[int, int]]:
    """Intervals from a JSON file of [start, end] pairs, checked as a
    config's interval list is."""
    pairs = _read_json(path, "intervals")
    _validate_interval_pairs(pairs, T)
    return sorted({(s, e) for s, e in pairs})


def strided_intervals(T: int, boundaries: Optional[list[int]] = None, extra=None) -> list[tuple[int, int]]:
    """Dyadic lengths with quarter-length stride starts.

    Lengths T, ceil(T/2), ... down to 8 (just [1, T] when T < 8); every
    length is placed at starts 1, 1+ceil(L/4), ... plus the last
    feasible start.  Schedule segment boundaries contribute all
    boundary-to-boundary intervals, and explicit extras are included.
    """
    out = set()
    L = T
    while True:
        stride = max(1, math.ceil(L / 4))
        s = 1
        while s + L - 1 <= T:
            out.add((s, s + L - 1))
            s += stride
        out.add((T - L + 1, T))
        if L == 1 or math.ceil(L / 2) < 8:
            break
        L = math.ceil(L / 2)
    if boundaries:
        marks = sorted({b for b in boundaries if 1 <= b <= T} | {T + 1})
        for i, s in enumerate(marks[:-1]):
            for e_next in marks[i + 1 :]:
                out.add((s, e_next - 1))
    for s, e in extra or []:
        out.add((int(s), int(e)))
    return sorted(out)


def exhaustive_intervals(T: int) -> list[tuple[int, int]]:
    if T > EXHAUSTIVE_LIMIT:
        raise ValueError(f"exhaustive interval scan is limited to T <= {EXHAUSTIVE_LIMIT}")
    return [(s, e) for s in range(1, T + 1) for e in range(s, T + 1)]


def intervals_from_cfg(d: Optional[dict], T: int, boundaries: Optional[list[int]] = None) -> list[tuple[int, int]]:
    if d is None or d.get("policy") == "strided":
        extra = None if d is None else d.get("extra")
        return strided_intervals(T, boundaries, extra)
    if d["policy"] == "exhaustive":
        return exhaustive_intervals(T)
    return sorted({(int(s), int(e)) for s, e in d["intervals"]})


# ----------------------------------------------------------------------
# regret evaluation


@dataclasses.dataclass(frozen=True)
class ComparatorCertificate:
    method: str
    gap: float
    tol: float


@dataclasses.dataclass(frozen=True)
class IntervalRegret:
    start: int
    end: int
    regret: float
    certificate: ComparatorCertificate


@dataclasses.dataclass
class RegretReport:
    """Per-interval regrets as columns, one entry per scored interval in
    input order; ``argmax`` is the first interval of maximal regret."""

    max_regret: float
    argmax: tuple[int, int]
    starts: np.ndarray
    ends: np.ndarray
    regrets: np.ndarray
    method: str
    gaps: np.ndarray
    tol: float

    @property
    def n_intervals(self) -> int:
        return len(self.regrets)

    @property
    def intervals(self) -> list[IntervalRegret]:
        return [
            IntervalRegret(int(s), int(e), float(r), ComparatorCertificate(self.method, float(g), self.tol))
            for s, e, r, g in zip(self.starts, self.ends, self.regrets, self.gaps)
        ]


def _rowdot(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    return np.einsum("ij,ij->i", A, B)


def _prefix(A: np.ndarray) -> np.ndarray:
    """Running sums along axis 0 after a zero row: out[k] = A[0] + ... + A[k-1]."""
    out = np.zeros((A.shape[0] + 1,) + A.shape[1:])
    np.cumsum(A, axis=0, out=out[1:])
    return out


class _LinearComparator:
    method = "loo_exact"
    tol = 0.0

    def __init__(self, set_: FeasibleSet, schedule: LossSchedule):
        self.set_ = set_
        self.prefix = _prefix(schedule.family.C[schedule.rows])

    def best_many(self, S: np.ndarray, E: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Optimal values and certificate gaps on the intervals [S[i], E[i]]."""
        csum = self.prefix[E] - self.prefix[S - 1]
        V = self.set_.loo_many(csum)
        return _rowdot(csum, V), np.zeros(len(S))


class _QuadraticComparator:
    method = "projected_quadratic"

    def __init__(self, set_: FeasibleSet, schedule: LossSchedule, tol: float):
        alpha, B = schedule.family.alpha, schedule.family.B[schedule.rows]
        self.set_ = set_
        self.alpha = alpha
        self.tol = tol
        self.Sw = _prefix(alpha * B)
        self.Sb2 = _prefix(np.sum(B * B, axis=1))

    def best_many(self, S: np.ndarray, E: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Optimal values and duality gaps on the intervals [S[i], E[i]];
        a gap above the tolerance fails the first such interval."""
        length = (E - S + 1).astype(np.float64)
        W = self.Sw[E] - self.Sw[S - 1]
        X = self.set_.project_many(W / (self.alpha * length)[:, None])
        values = (
            0.5 * self.alpha * length * _rowdot(X, X)
            - _rowdot(W, X)
            + 0.5 * self.alpha * (self.Sb2[E] - self.Sb2[S - 1])
        )
        grad = (self.alpha * length)[:, None] * X - W
        gaps = _rowdot(grad, X - self.set_.loo_many(grad))
        failed = np.flatnonzero(gaps > self.tol)
        if failed.size:
            i = failed[0]
            raise RuntimeError(
                f"comparator certificate failed on [{S[i]}, {E[i]}]: duality gap {gaps[i]:.3e} "
                f"exceeds tolerance {self.tol:.3e}"
            )
        return values, gaps


def _comparator(set_: FeasibleSet, schedule: LossSchedule, tol: Optional[float]):
    if tol is None:
        tol = 1e-8 * schedule.G_f * set_.R
    if schedule.kind == "linear":
        return _LinearComparator(set_, schedule)
    if schedule.kind == "quadratic":
        return _QuadraticComparator(set_, schedule, tol)
    raise ValueError(f"no certified comparator for {schedule.kind!r} schedules")


def interval_regret_report(
    trace: RunTrace,
    schedule: LossSchedule,
    set_: FeasibleSet,
    intervals: Sequence[tuple[int, int]],
    comparator_tol: Optional[float] = None,
) -> RegretReport:
    """Regret of the played sequence on each interval, vs the certified
    interval minimizer."""
    if not len(intervals):
        raise ValueError("no intervals to score")
    pairs = np.asarray(intervals)
    if pairs.ndim != 2 or pairs.shape[1] != 2 or pairs.dtype.kind not in "iu":
        raise ValueError("intervals must be [start, end] integer pairs")
    S, E = pairs[:, 0], pairs[:, 1]
    outside = np.flatnonzero(~((1 <= S) & (S <= E) & (E <= trace.T)))
    if outside.size:
        s, e = pairs[outside[0]]
        raise ValueError(f"interval [{s}, {e}] out of range")
    comp = _comparator(set_, schedule, comparator_tol)
    played_prefix = _prefix(trace.losses)
    opt, gaps = comp.best_many(S, E)
    regrets = played_prefix[E] - played_prefix[S - 1] - opt
    i = int(np.argmax(regrets))
    return RegretReport(float(regrets[i]), (int(S[i]), int(E[i])), S, E, regrets, comp.method, gaps, comp.tol)


def static_regret(
    trace: RunTrace,
    schedule: LossSchedule,
    set_: FeasibleSet,
    comparator_tol: Optional[float] = None,
) -> IntervalRegret:
    return interval_regret_report(trace, schedule, set_, [(1, trace.T)], comparator_tol).intervals[0]


# ----------------------------------------------------------------------
# trace files


_TRACE_HEADER = ["t", "x", "loss", "loo_calls_cum", "so_calls_cum", "block_index"]
_TRACE_CHUNK = 1024  # rows per format call; bounds the Python objects alive at once


def write_trace_csv(trace: RunTrace, path: str) -> None:
    """Columns: t, x (semicolon-joined, 17 significant digits), loss,
    loo_calls_cum, so_calls_cum, block_index; LF line endings.

    Each chunk of rows is one ``%`` format of a repeated row template;
    no field can hold a comma, quote or line break, so the bytes are
    those a ``csv.writer`` would write."""
    T, n = trace.plays.shape
    row = "%d," + ";".join(["%.17g"] * n) + ",%.17g,%d,%d,%d\n"
    with open(path, "w", newline="") as fh:
        fh.write(",".join(_TRACE_HEADER) + "\n")
        for lo in range(0, T, _TRACE_CHUNK):
            hi = min(lo + _TRACE_CHUNK, T)
            columns = (
                range(lo + 1, hi + 1),
                *trace.plays[lo:hi].T.tolist(),
                trace.losses[lo:hi].tolist(),
                trace.loo_cum[lo:hi].tolist(),
                trace.so_cum[lo:hi].tolist(),
                trace.block_index[lo:hi].tolist(),
            )
            fh.write((row * (hi - lo)) % tuple(itertools.chain.from_iterable(zip(*columns))))


def read_trace_csv(path: str) -> RunTrace:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows or rows[0] != _TRACE_HEADER:
        raise ValueError(f"not a trace CSV (expected header {_TRACE_HEADER})")
    T = len(rows) - 1
    plays = np.array([[float(v) for v in row[1].split(";")] for row in rows[1:]])
    return RunTrace(
        plays=plays,
        losses=np.array([float(r[2]) for r in rows[1:]]),
        loo_cum=np.array([int(r[3]) for r in rows[1:]], dtype=np.int64),
        so_cum=np.array([int(r[4]) for r in rows[1:]], dtype=np.int64),
        block_index=np.array([int(r[5]) for r in rows[1:]], dtype=np.int64),
        counters=None,
        projections=[],
        params={},
    )


# ----------------------------------------------------------------------
# experiment driver


def run_one(cfg: ExperimentConfig, seed: int) -> tuple[RunTrace, LossSchedule, FeasibleSet, dict]:
    """One seeded run plus its summary dict."""
    root = np.random.SeedSequence(seed)
    ss_sched, ss_play = root.spawn(2)
    set_ = build_set(cfg.set_cfg)
    schedule = build_schedule(cfg.loss_cfg, cfg.T, set_, np.random.default_rng(ss_sched))
    trace = run_learner(cfg.learner_cfg, set_, schedule, cfg.T, np.random.default_rng(ss_play), seed=seed)

    kind = cfg.learner_cfg["kind"]
    entry = LEARNERS[kind]
    summary: dict = {
        "learner": kind,
        "seed": seed,
        "T": cfg.T,
        "set": cfg.set_cfg,
        "loss": cfg.loss_cfg,
        "params": trace.params,
        "observed": {
            "loo_calls": int(trace.counters.loo_calls),
            "so_calls": int(trace.counters.so_calls),
            "wall_time_s": trace.wall_time,
        },
    }
    if entry.bounds is not None:
        bounds = theoretical_bounds(LearnerParams(**trace.params))
        summary["bounds"] = bounds
        summary["bound_scope"] = entry.scope
        observed_calls = trace.counters.loo_calls if bounds["oracle"] == "loo" else trace.counters.so_calls
        summary["checks"] = {"oracle_calls_within_bound": bool(observed_calls <= bounds["oracle_calls"])}
    else:
        summary["bounds"] = None
        summary["checks"] = {}

    if schedule.kind in ("linear", "quadratic"):
        sr = static_regret(trace, schedule, set_)
        summary["observed"]["static_regret"] = sr.regret
        intervals = intervals_from_cfg(cfg.intervals_cfg, cfg.T, schedule.boundaries)
        report = interval_regret_report(trace, schedule, set_, intervals)
        summary["observed"]["adaptive_regret"] = report.max_regret
        summary["observed"]["adaptive_argmax"] = list(report.argmax)
        summary["observed"]["n_intervals"] = report.n_intervals
        if summary["bounds"] is not None:
            scope = summary["bound_scope"]
            measured = sr.regret if scope == "static" else report.max_regret
            summary["checks"]["regret_within_bound"] = bool(measured <= summary["bounds"]["regret"])
    else:
        summary["observed"]["static_regret"] = None
        summary["observed"]["comparator"] = "unavailable for this loss kind"
    return trace, schedule, set_, summary


def resolve_out_dir(cli_out: Optional[str], cfg: ExperimentConfig) -> str:
    return cli_out or cfg.out_dir or os.environ.get(OUT_DIR_ENV) or "runs"


def trace_basename(config_path: str, seed: int) -> str:
    stem = os.path.splitext(os.path.basename(config_path))[0]
    return f"{stem}_seed{seed}"


def write_run_outputs(out_dir: str, base: str, trace: RunTrace, summary: dict) -> tuple[str, str]:
    os.makedirs(out_dir, exist_ok=True)
    trace_path = os.path.join(out_dir, base + ".csv")
    summary_path = os.path.join(out_dir, base + ".summary.json")
    write_trace_csv(trace, trace_path)
    with open(summary_path, "w", newline="") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return trace_path, summary_path
