"""Benchmark harness: configs, runs, regret evaluation, trace files.

A JSON config fully determines an experiment up to the seed list; the
same (config, seed) pair always reproduces byte-identical trace CSVs.
:func:`build_instance` is the one place a seed becomes a run's set,
schedule and play stream: schedules and play randomness draw from two
independent streams spawned from the seed, so the loss sequence is
oblivious to the learner's randomness by construction.

Regret is evaluated against certified comparators only.  One
:func:`interval_regret_report` scores a run: the caller's intervals and
then [1, T] (the static regret) in one batched scan
(``loo_many``/``project_many``, one answer per interval):

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

import contextlib
import csv
import dataclasses
import itertools
import json
import math
import os
import time
from typing import Optional

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


def _num(d: dict, key: str, where: str, minimum=None):
    """The number ``d[key]`` (the caller has checked that the key is there)."""
    v = d[key]
    if not _is_number(v):
        raise ConfigError(f"{where}.{key} must be a {'finite number' if isinstance(v, float) else 'number'}")
    if minimum is not None and v < minimum:
        raise ConfigError(f"{where}.{key} must be >= {minimum}")
    return v


def _int(d: dict, key: str, where: str, minimum=None):
    v = _num(d, key, where, minimum)
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


def check_seeds(seeds: list[int], where: str) -> None:
    """Refuse a negative seed (``SeedSequence`` takes none) and a seed
    listed twice (its second run would overwrite the first's outputs)."""
    seen = set()
    for seed in seeds:
        if seed < 0:
            raise ConfigError(f"{where}: seed {seed} is negative; seeds must be non-negative integers")
        if seed in seen:
            raise ConfigError(f"{where}: seed {seed} is listed twice")
        seen.add(seed)


def parse_config_dict(raw: dict) -> ExperimentConfig:
    _check_keys(raw, "config", ("T", "set", "loss", "learner"), ("seeds", "intervals", "out_dir"))
    T = _int(raw, "T", "config", minimum=1)
    seeds = raw.get("seeds", [0])
    if not isinstance(seeds, list) or not seeds or any(isinstance(s, bool) or not isinstance(s, int) for s in seeds):
        raise ConfigError("config.seeds must be a non-empty list of integers")
    check_seeds(seeds, "config.seeds")
    set_cfg = _validate_set_cfg(raw["set"])
    loss_cfg = _validate_loss_cfg(raw["loss"], T)
    learner_cfg = _validate_learner_cfg(raw["learner"])
    intervals_cfg = _validate_intervals_cfg(raw.get("intervals"), T)
    out_dir = raw.get("out_dir")
    if out_dir is not None and not isinstance(out_dir, str):
        raise ConfigError("config.out_dir must be a string")
    return ExperimentConfig(T, list(seeds), set_cfg, loss_cfg, learner_cfg, intervals_cfg, out_dir)


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


# set kind -> its required keys, its optional keys, and its set from a checked config
_SETS = {
    "ball": (("n", "radius"), (), lambda d: Ball(int(d["n"]), float(d["radius"]))),
    "box": (("lower", "upper"), (), lambda d: Box(d["lower"], d["upper"])),
    "simplex": (("n",), ("scale",), lambda d: Simplex(int(d["n"]), float(d.get("scale", 1.0)))),
    "l1": (("n", "radius"), (), lambda d: L1Ball(int(d["n"]), float(d["radius"]))),
    "polytope": (
        ("A", "b"), (), lambda d: Polytope(np.asarray(d["A"], dtype=np.float64), np.asarray(d["b"], dtype=np.float64))
    ),
}


def _validate_set_cfg(d: dict) -> dict:
    _check_keys(d, "set", ("kind",), ("n", "radius", "scale", "lower", "upper", "A", "b"))
    kind = d.get("kind")
    entry = _SETS.get(kind) if isinstance(kind, str) else None
    if entry is None:
        raise ConfigError(f"unknown set kind {kind!r}")
    _check_keys(d, f"set({kind})", ("kind", *entry[0]), entry[1])
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
    """The feasible set of a set config, checked as :func:`parse_config_dict`
    checks it."""
    return _build_set(_validate_set_cfg(d))


def _build_set(d: dict) -> FeasibleSet:
    """The feasible set of a checked set config; an invalid set (a box
    with its origin outside, a polytope that is unbounded) is a
    ConfigError."""
    try:
        return _SETS[d["kind"]][2](d)
    except (ValueError, TypeError) as e:
        raise ConfigError(f"bad set config: {e}") from e


# loss kind -> the config keys it reads and its schedule maker, which takes
# T, n, R, the segments of a switching kind or else the schedule's generator,
# and the numbers the config sets (the maker's defaults are the config's)
_LOSSES = {
    "iid_linear": ({"scale"}, make_iid_linear_schedule),
    "switching_linear": ({"segments", "gain"}, make_switching_linear_schedule),
    "iid_quadratic": ({"alpha", "spread"}, make_iid_quadratic_schedule),
    "switching_quadratic": ({"segments", "alpha"}, make_switching_quadratic_schedule),
    "iid_absdev": ({"scale"}, make_iid_absdev_schedule),
}


def _validate_loss_cfg(d: dict, T: int) -> dict:
    _check_keys(d, "loss", ("kind",), set().union(*(keys for keys, _ in _LOSSES.values())))
    kind = d.get("kind")
    entry = _LOSSES.get(kind) if isinstance(kind, str) else None
    if entry is None:
        raise ConfigError(f"unknown loss kind {kind!r}")
    extras = sorted(set(d) - {"kind"} - entry[0])
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
    source = d["segments"] if kind.startswith("switching") else rng
    numbers = {key: float(d[key]) for key in set(d) - {"kind", "segments"}}
    try:
        return _LOSSES[kind][1](T, set_.n, set_.R, source, **numbers)
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
) -> RunTrace:
    """Build theorem-default parameters (with config overrides) and run."""
    params = learner_params(learner_cfg, set_, schedule, T)
    return LEARNERS[learner_cfg["kind"]].run(set_, schedule, params, play_rng)


def build_instance(cfg: ExperimentConfig, seed: int) -> tuple[FeasibleSet, LossSchedule, np.random.Generator]:
    """The set, the loss schedule and the play stream of a seeded run.

    ``parse_config_dict``, the only maker of an ExperimentConfig, has
    checked the set config, so the set is built without a second check
    of its numbers (660 of them on a 60-face polytope in R^10).  The
    schedule goes through the public :func:`build_schedule`, whose loss
    check is a few segments (about 20 us): perfbench's tracer times the
    schedule layer at that name."""
    ss_sched, ss_play = np.random.SeedSequence(seed).spawn(2)
    set_ = _build_set(cfg.set_cfg)
    schedule = build_schedule(cfg.loss_cfg, cfg.T, set_, np.random.default_rng(ss_sched))
    return set_, schedule, np.random.default_rng(ss_play)


# ----------------------------------------------------------------------
# intervals


def _validate_intervals_cfg(d: Optional[dict], T: int) -> Optional[dict]:
    if d is None:
        return None
    _check_keys(d, "intervals", ("policy",), ("extra", "intervals"))
    policy = d.get("policy")
    if policy not in ("strided", "exhaustive", "list"):
        raise ConfigError(f"unknown interval policy {policy!r}")
    key = {"list": "intervals", "strided": "extra"}.get(policy)  # exhaustive takes neither
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
        if not (isinstance(p, list) and len(p) == 2 and all(type(v) is int for v in p)):
            raise ConfigError("intervals must be [start, end] integer pairs")
        s, e = p
        if not (1 <= s <= e <= T):
            raise ConfigError(f"interval [{s}, {e}] out of range for T = {T}")


def read_intervals_file(path: str, T: int) -> np.ndarray:
    """Intervals from a JSON file of [start, end] pairs, checked as a
    config's interval list is, as the sorted (k, 2) int64 rows of the
    distinct pairs (see :func:`_distinct_intervals`)."""
    pairs = _read_json(path, "intervals")
    _validate_interval_pairs(pairs, T)
    return _distinct_intervals(pairs, T)


def _distinct_intervals(pairs, T: int) -> np.ndarray:
    """The distinct [start, end] pairs of a (k, 2) array-like as a
    (k', 2) int64 array of rows, sorted by start and then by end.

    Every pair must satisfy 1 <= start <= end <= T, else ValueError names
    the first that does not; in that range the key start * (T + 2) + end
    is one-to-one and sorts as the pairs do."""
    P = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
    S, E = P[:, 0], P[:, 1]
    outside = np.flatnonzero(~((1 <= S) & (S <= E) & (E <= T)))
    if outside.size:
        s, e = P[outside[0]]
        raise ValueError(f"interval [{s}, {e}] out of range for T = {T}")
    key = _sorted_distinct(S * (T + 2) + E)
    rows = np.empty((len(key), 2), dtype=np.int64)
    np.divmod(key, T + 2, out=(rows[:, 0], rows[:, 1]))
    return rows


def _sorted_distinct(a: np.ndarray) -> np.ndarray:
    """``np.unique`` of a 1-D array by one sort and one comparison.  NumPy
    2.4's ``unique`` hashes integers before it sorts, and takes about 13
    times as long on 2,300 keys (0.31 ms against 0.024 ms on a shared
    2-core x86 VM)."""
    a = np.sort(a)
    keep = np.empty(len(a), dtype=bool)
    keep[:1] = True
    np.not_equal(a[1:], a[:-1], out=keep[1:])
    return a[keep]


def strided_intervals(T: int, boundaries: Optional[list[int]] = None, extra=None) -> np.ndarray:
    """Dyadic lengths with quarter-length stride starts, as sorted (k, 2)
    int64 rows of distinct [start, end] intervals (see
    :func:`_distinct_intervals`).

    Lengths T, ceil(T/2), ... down to 8 (just [1, T] when T < 8); every
    length is placed at starts 1, 1+ceil(L/4), ... plus the last
    feasible start.  Schedule segment boundaries contribute all
    boundary-to-boundary intervals, and explicit extras are included; an
    extra outside 1 <= start <= end <= T raises ValueError naming it.
    """
    starts, ends = [], []
    L = T
    while True:
        s = np.arange(1, T - L + 2, math.ceil(L / 4))
        starts += [s, [T - L + 1]]
        ends += [s + (L - 1), [T]]
        if L == 1 or math.ceil(L / 2) < 8:
            break
        L = math.ceil(L / 2)
    if boundaries:
        b = np.asarray(boundaries, dtype=np.int64)
        marks = _sorted_distinct(np.append(b[(1 <= b) & (b <= T)], T + 1))
        i, j = np.triu_indices(len(marks), 1)
        starts.append(marks[i])
        ends.append(marks[j] - 1)
    pairs = np.column_stack((np.concatenate(starts), np.concatenate(ends)))
    if extra:
        pairs = np.concatenate((pairs, np.asarray(extra, dtype=np.int64).reshape(-1, 2)))
    return _distinct_intervals(pairs, T)


def exhaustive_intervals(T: int) -> np.ndarray:
    """Every interval of [1, T], as (k, 2) int64 [start, end] rows sorted
    by start and then by end; k = T(T + 1)/2."""
    if T > EXHAUSTIVE_LIMIT:
        raise ValueError(f"exhaustive interval scan is limited to T <= {EXHAUSTIVE_LIMIT}")
    return (np.column_stack(np.triu_indices(T)) + 1).astype(np.int64, copy=False)


def intervals_from_cfg(d: Optional[dict], T: int, boundaries: Optional[list[int]] = None) -> np.ndarray:
    """The intervals of a config's policy (strided when there is none),
    as sorted (k, 2) int64 rows of distinct [start, end] intervals; the
    list policy's pairs are sorted and de-duplicated the same way."""
    if d is None or d.get("policy") == "strided":
        extra = None if d is None else d.get("extra")
        return strided_intervals(T, boundaries, extra)
    if d["policy"] == "exhaustive":
        return exhaustive_intervals(T)
    return _distinct_intervals(d["intervals"], T)


# ----------------------------------------------------------------------
# regret evaluation


@dataclasses.dataclass
class RegretReport:
    """Regret on [1, T] and per-interval regrets as columns, one entry per
    scored interval in input order; ``argmax`` is the first interval of
    maximal regret."""

    static_regret: float
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
        csum = self.prefix[E]
        csum -= self.prefix[S - 1]  # in place: one (k, n) temporary fewer
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
    intervals: np.ndarray,
    comparator_tol: Optional[float] = None,
) -> RegretReport:
    """Regret of the played sequence on each interval, vs the certified
    interval minimizer, and on [1, T].

    ``intervals`` is a (k, 2) integer array of [start, end] rows, as the
    interval policies return it; its two columns are scored as they are,
    in row order (a sequence of pairs is converted first).  [1, T] is
    scored as one more row after the caller's intervals in the same
    scan, so a failed certificate names the first failing interval of
    the caller's; the columns and the maximum cover the caller's
    intervals only."""
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
    S_all, E_all = np.append(S, 1), np.append(E, trace.T)
    opt, gaps = comp.best_many(S_all, E_all)
    regrets = played_prefix[E_all] - played_prefix[S_all - 1] - opt
    static, regrets, gaps = float(regrets[-1]), regrets[:-1], gaps[:-1]
    i = int(np.argmax(regrets))
    return RegretReport(static, float(regrets[i]), (int(S[i]), int(E[i])), S, E, regrets, comp.method, gaps, comp.tol)


# ----------------------------------------------------------------------
# trace files


_TRACE_HEADER = ["t", "x", "loss", "loo_calls_cum", "so_calls_cum", "block_index"]
_TRACE_CHUNK = 1024  # formatted rows per chunk; bounds the buffers alive at once


def write_trace_csv(trace: RunTrace, path: str) -> None:
    """Columns: t, x (semicolon-joined), loss, loo_calls_cum,
    so_calls_cum, block_index; LF line endings.  A float is written
    ``'%.16e' % x`` (17 significant digits, which ``float()`` reads back
    to the same bits), but 0.0 and -0.0 as ``0`` and ``-0``; an integer
    ``'%d' % c``.  A 10^4-round trace of n = 8 takes about 2.3 MB, a
    blocked one of 2,000 rounds about 260 kB.

    A run of two or more rows whose fields after t are bit-for-bit equal
    (a blocked learner holds its point for a block) has its first row
    formatted once, and each of its lines is t plus that row's tail; no
    run is longer than ``_TRACE_CHUNK`` rows.  The first rows of the runs
    are formatted ``_TRACE_CHUNK`` at a time by :class:`_RowFormatter`.
    No field can hold a comma, quote or line break, so the bytes are
    those a ``csv.writer`` would write.

    The rows go to a temporary file beside ``path`` that replaces it only
    once every row is written (see :func:`_replacing`)."""
    T = trace.T
    # same[t]: row t repeats row t - 1 after t.  Floats compare as bits:
    # 0.0 == -0.0, but they print as 0 and -0.  The plays are compared
    # only once some row's loss and counts repeat (none does in an SO
    # trace, whose so_calls_cum rises every round); a blocked trace's rows
    # mostly repeat, and there one compare of every row costs less than a
    # gather of the candidates (the marks took 76 against 163 us at
    # T = 2,000, n = 8).
    plays, losses = trace.plays.view(np.uint64), trace.losses.view(np.uint64)
    same = np.zeros(T, dtype=bool)
    same[1:] = losses[1:] == losses[:-1]
    counts = (trace.loo_cum, trace.so_cum, trace.block_index)
    for c in counts:
        same[1:] &= c[1:] == c[:-1]
    same[::_TRACE_CHUNK] = False  # no run is longer than a chunk
    if same.any():
        same[1:] &= (plays[1:] == plays[:-1]).all(axis=1)
    first = np.flatnonzero(~same)  # the first row of each run
    length = np.diff(first, append=T)
    rows = _RowFormatter(trace.plays.shape[1], min(len(first), _TRACE_CHUNK))
    with _replacing(path) as fh:
        fh.write((",".join(_TRACE_HEADER) + "\n").encode())
        for lo in range(0, len(first), _TRACE_CHUNK):
            pick = first[lo : lo + _TRACE_CHUNK]
            text = rows.format(pick + 1, trace.plays[pick], trace.losses[pick], [c[pick] for c in counts])
            runs = np.flatnonzero(length[lo : lo + _TRACE_CHUNK] > 1)
            if not runs.size:
                fh.write(text)
                continue
            lines = text.splitlines(keepends=True)
            a = 0  # lines before a are written
            for k, count in zip(runs.tolist(), length[lo + runs].tolist()):
                fh.write(b"".join(lines[a:k]))
                t = int(pick[k]) + 1
                line_end = b"," + lines[k].split(b",", 1)[1]
                fh.write((b"%d" + line_end) * count % tuple(range(t, t + count)))
                a = k + 1
            fh.write(b"".join(lines[a:]))


@contextlib.contextmanager
def _replacing(path: str):
    """A binary file, open for writing beside ``path``, that is renamed
    onto ``path`` when the block completes.  On any failure it is removed
    and ``path`` keeps what it held, so no reader sees a partial file."""
    part = f"{path}.{os.getpid()}.part"
    try:
        with open(part, "wb") as fh:
            yield fh
        os.replace(part, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.remove(part)
        raise


# A field of a formatted row is a slot of 64-bit little-endian words whose
# unused bytes are NUL; the last byte of the slot is the separator after
# the field.  An integer slot is one word: up to seven digits, right-aligned.
# _KEEP[d - 1] keeps the last d digits of a word and its separator.
_KEEP = np.array([(1 << 64) - (1 << 8 * (7 - d)) for d in range(1, 8)], dtype=np.uint64)
_POW10_INT = 10 ** np.arange(1, 7)  # 10**1 .. 10**6
# ASCII digits of every 4-digit group as a little-endian word.
_GROUP = np.arange(10_000, dtype=np.int16)  # int16: the (10,000, 4) temporaries take 80 KB, not 320 KB
_DIGITS4 = (_GROUP[:, None] // np.int16([1000, 100, 10, 1]) % 10 + ord("0")).astype(np.uint8).view("<u4").ravel().astype(np.uint64)
_POW10 = np.cumprod(np.append(1.0, np.full(22, 10.0)))  # 10**0 .. 10**22, each exact
# A float slot is three words: the sign byte (NUL for a positive value),
# the first digit, the point and 16 more digits in bytes 0-18, the
# exponent "e-04" .. "e+15" in bytes 19-22 and the separator in byte 23.
_EXPONENT = np.array([int.from_bytes(b"e%+03d" % e, "little") << 24 for e in range(-4, 16)], dtype=np.uint64)
_LEAD = (np.arange(ord("0"), ord("9") + 1) << 8 | ord(".") << 16).astype(np.uint64)  # "\0d." for each first digit d
_TOP = np.uint64(0xFF << 56)  # a slot's separator byte, in its last word
_ZERO_WORD = np.array([ord("0"), ord("-") | ord("0") << 8], dtype=np.uint64)  # "0", "-0"
_ZERO_TEXT = b"0.0000000000000000e+00"  # '%.16e' of 0 and -0 (after the sign): a trace writes 0 and -0


def _split(a):
    """Veltkamp's split of doubles into halves of 26 bits: a = hi + lo."""
    c = 134217729.0 * a  # 2**27 + 1
    hi = c - (c - a)
    return hi, a - hi


_POW10_HI, _POW10_LO = _split(_POW10)


def _scaled(a: np.ndarray, p: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """a * 10**p as an unevaluated sum h + l of doubles, exactly (Dekker's
    two-product; 0 <= p <= 22, so 10**p is a double)."""
    h = a * _POW10[p]
    ah, al = _split(a)
    bh, bl = _POW10_HI[p], _POW10_LO[p]
    return h, ((ah * bh - h) + ah * bl + al * bh) + al * bl


def _digit_groups(u: np.ndarray) -> list:
    """The 20 decimal digits of each uint64 u < 10**20, leading zeros
    included, as five int64 arrays of 4-digit groups, the first group
    first: indexes into ``_DIGITS4``.  (NumPy divides by a constant
    quickly, but not so its remainder.)"""
    top = u // np.uint64(10**16)
    rest = u - top * np.uint64(10**16)
    hi = rest // np.uint64(10**8)
    lo = rest - hi * np.uint64(10**8)
    g = [top.view(np.int64)]
    for v in (hi, lo):
        q = v // np.uint64(10**4)
        g += [q.view(np.int64), (v - q * np.uint64(10**4)).view(np.int64)]  # int64 indexes twice as fast
    return g


def _float_words(x: np.ndarray, out: np.ndarray, sep) -> bool:
    """The trace text of each element of the C-contiguous array x
    (``'%.16e' % x``, but ``0`` and ``-0`` for zeros; exact, see
    :func:`write_trace_csv`) written into ``out``, a slot of three words
    per element (out's shape is x.shape + (3,); it may be a strided view,
    such as the float slots of a row buffer), with ``sep`` (a word, or one
    per element after broadcasting: the separator in its top byte) in each
    slot's last byte.  False, with the slots part written, if a text does
    not fit its slot: a negative value with a three-digit exponent.

    For 1e-4 <= |x| < 1e16 the 17 significant digits are
    N = round-half-even(|x| * 10**(16 - e)) for the decimal exponent e,
    from an exact two-term product; a carry to 10**17 moves e up by one.
    The first of N's :func:`_digit_groups` is its first digit (N < 10**17),
    written with the point after it from a table; the other four, its 16
    other digits, go to bytes 3-18, and the exponent comes from a table:
    each byte has a fixed place.  Zeros are constant words, and every
    other value (subnormals, |x| < 1e-4 or >= 1e16, inf and nan) is
    formatted by ``'%.16e'`` one at a time."""
    a = np.abs(x)
    fast = a >= 1e-4
    fast &= a < 1e16
    slow = np.flatnonzero(~fast)  # zeros and the values '%.16e' formats (nan compares false)
    a.ravel()[slow] = 1.0  # their slots are written again below
    e = np.floor(np.log10(a)).astype(np.int64)  # may be one off near a power of ten
    h, l = _scaled(a, 16 - e)
    N = h.astype(np.int64) + np.rint(l).astype(np.int64)  # h is an even integer when h >= 1e16
    # Take again at the exponent below a value whose exact scaled value is
    # under 10**16, and at the one above a value whose N has 18 digits or
    # carries to 10**17 (here only an exact power of ten whose e is one low:
    # no other double in this range lies within 5e-18 below a power of ten).
    low = (h < 1e16) | ((h == 1e16) & (l < 0))
    off = low | (N >= 10**17)
    if off.any():
        e[off] += np.where(low[off], -1, 1)
        h, l = _scaled(a[off], 16 - e[off])
        N[off] = h.astype(np.int64) + np.rint(l).astype(np.int64)
    first, *g = _digit_groups(N.view(np.uint64))
    G1, G2, G3, G4 = (_DIGITS4[gi] for gi in g)
    out[..., 0] = _LEAD[first] | G1 << 24 | G2 << 56 | np.signbit(x) * np.uint64(ord("-"))
    out[..., 1] = G2 >> 8 | G3 << 24 | G4 << 56
    out[..., 2] = G4 >> 8 | _EXPONENT[e + 4] | sep
    v = x.ravel()[slow]
    text = np.zeros((slow.size, 3), dtype=np.uint64)
    text[:, 0] = _ZERO_WORD[np.signbit(v).view(np.int8)]
    other = np.flatnonzero(v)  # nan is not 0
    if other.size:
        s = ["%.16e" % f for f in v[other].tolist()]
        if max(map(len, s)) > 23:
            return False
        text[other] = np.array(s, dtype="S24").view("<u8").reshape(-1, 3)
    at = np.unravel_index(slow, x.shape)
    text[:, 2] |= out[(*at, 2)] & _TOP
    out[at] = text
    return True


def _int_words(c: np.ndarray, sep) -> Optional[np.ndarray]:
    """The text ``'%d' % c`` of each element of the int64 array c in a
    word of its own, right-aligned in bytes 0-6, with ``sep`` (a word, or
    one per element after broadcasting: the separator in its top byte)
    in byte 7.  None if some element is outside [0, 10**7), whose text
    does not fit: the row template formats that chunk.  A trace's t and
    counts stay far below 10**7 (about 10**4 SO calls in a perfbench
    run)."""
    if c.view(np.uint64).max() >= 10**7:  # a negative value views as 2**63 or more
        return None
    q = c // 10**4  # c < 10**7, so the eight digits of c are those of q and of the rest
    digits = (_DIGITS4[q] | _DIGITS4[c - q * 10**4] << 32) >> 8  # the leading zero of the eight dropped
    return digits & _KEEP[np.searchsorted(_POW10_INT, c, side="right")] | sep


# A chunk of fewer rows is formatted by the '%d'/'%.16e' row template: the
# kernel's fixed cost (0.1-0.2 ms of NumPy calls) outweighs its per-row
# saving below about 28 rows (the crossover measured at 25-29 rows on the
# rows of sep_l1_switch traces and on the sparse first rows of blocked l1
# traces, and at 17-25 on random rows of n = 8 and n = 10, in three runs).
_TEMPLATE_ROWS = 28


class _RowFormatter:
    """Trace rows of an n-dimensional play formatted as text, up to
    ``rows`` at a time, in buffers allocated once.

    A row is t, the n coordinates of x and the loss, and the three
    counts, each in its slot of words with its separator in the top byte
    of the slot's last word: ',' after t, ';' between coordinates, ','
    after the last coordinate, the loss and the first two counts, and
    '\\n' after the last count.  Every row has one layout: a word for t,
    three for each float, a word for each count.  :func:`_int_words` and
    :func:`_float_words` take the separators, ``int_seps`` and
    ``float_seps``, with the texts; the float slots are written in place in
    the row buffer.  One ``bytes.translate`` deletes the NULs of every row
    at once.  A chunk of fewer than ``_TEMPLATE_ROWS`` rows, or with a text
    too long for its slot (a count outside [0, 10**7), a float of 24
    bytes), is formatted by the row template whose bytes the kernel
    reproduces."""

    def __init__(self, n: int, rows: int):
        self.n = n
        self.float_seps = np.array([ord(c) << 56 for c in ";" * (n - 1) + ",,"], dtype=np.uint64)
        self.int_seps = np.array([ord(c) << 56 for c in ",,,\n"], dtype=np.uint64)
        self.template = b"%d," + b";".join([b"%.16e"] * n) + b",%.16e,%d,%d,%d\n"
        self.floats = np.empty((rows, n + 1))
        self.ints = np.empty((rows, 4), dtype=np.int64)
        self.words = np.empty((rows, 4 + 3 * (n + 1)), dtype="<u8")

    def format(self, t: np.ndarray, plays: np.ndarray, losses: np.ndarray, counts: list) -> bytes:
        """Lines t[i],plays[i],losses[i],counts[0][i],... for every i, as bytes."""
        r = len(t)
        if r >= _TEMPLATE_ROWS:
            floats, ints, words = self.floats[:r], self.ints[:r], self.words[:r]
            floats[:, : self.n] = plays
            floats[:, self.n] = losses
            ints[:, 0] = t
            for j, c in enumerate(counts, start=1):
                ints[:, j] = c
            iw = _int_words(ints, self.int_seps)
            if iw is not None and _float_words(floats, words[:, 1:-3].reshape(r, self.n + 1, 3), self.float_seps):
                words[:, 0] = iw[:, 0]
                words[:, -3:] = iw[:, 1:]
                return words.tobytes().translate(None, b"\0")
        fields = zip(t.tolist(), *plays.T.tolist(), losses.tolist(), *(c.tolist() for c in counts))
        return (self.template * r % tuple(itertools.chain.from_iterable(fields))).replace(_ZERO_TEXT, b"0")


def read_trace_csv(path: str) -> RunTrace:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows or rows[0] != _TRACE_HEADER:
        raise ValueError(f"not a trace CSV (expected header {_TRACE_HEADER})")
    plays, losses, counts = [], [], []
    for line, row in enumerate(rows[1:], start=2):
        if len(row) != len(_TRACE_HEADER):
            raise ValueError(f"{path} line {line}: {len(row)} fields, expected {len(_TRACE_HEADER)}")
        x = row[1].split(";")
        if plays and len(x) != len(plays[0]):
            raise ValueError(f"{path} line {line}: x has {len(x)} coordinates, line 2 has {len(plays[0])}")
        try:
            plays.append([float(v) for v in x])
            losses.append(float(row[2]))
            counts.append([int(v) for v in row[3:]])
        except ValueError as e:
            raise ValueError(f"{path} line {line}: {e}") from None
    loo_cum, so_cum, block_index = np.array(counts, dtype=np.int64).reshape(-1, 3).T.copy()
    return RunTrace(
        plays=np.array(plays),
        losses=np.array(losses),
        loo_cum=loo_cum,
        so_cum=so_cum,
        block_index=block_index,
        counters=None,
        projections=[],
        params={},
    )


# ----------------------------------------------------------------------
# experiment driver


def run_one(cfg: ExperimentConfig, seed: int) -> tuple[RunTrace, LossSchedule, FeasibleSet, dict]:
    """One seeded run plus its summary dict; ``wall_time_s`` times the learner."""
    set_, schedule, play_rng = build_instance(cfg, seed)
    t0 = time.perf_counter()
    trace = run_learner(cfg.learner_cfg, set_, schedule, cfg.T, play_rng)
    wall_time = time.perf_counter() - t0

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
            "wall_time_s": wall_time,
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
    if entry.oracle == "loo":
        ledger = ("loo_calls", "fw_runs", "implied_passes", "close_runs", "started_close", "literal_loo_calls")
        summary["observed"]["loo_ledger"] = {k: sum(getattr(p, k) for p in trace.projections) for k in ledger}

    if schedule.kind in ("linear", "quadratic"):
        intervals = intervals_from_cfg(cfg.intervals_cfg, cfg.T, schedule.boundaries)
        report = interval_regret_report(trace, schedule, set_, intervals)
        summary["observed"]["static_regret"] = report.static_regret
        summary["observed"]["adaptive_regret"] = report.max_regret
        summary["observed"]["adaptive_argmax"] = list(report.argmax)
        summary["observed"]["n_intervals"] = report.n_intervals
        if summary["bounds"] is not None:
            scope = summary["bound_scope"]
            measured = report.static_regret if scope == "static" else report.max_regret
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
    """``<base>.csv`` and then ``<base>.summary.json`` in ``out_dir``.  Each
    replaces its old file only once it is complete: no failed write
    leaves a partial file, and a failed trace leaves an earlier run's
    trace and summary as they were.  The summary is one line of JSON
    with sorted keys, which the C encoder writes (with ``indent`` the
    pure-Python encoder would run, about 1 ms on a polytope summary,
    which repeats A and b)."""
    os.makedirs(out_dir, exist_ok=True)
    trace_path = os.path.join(out_dir, base + ".csv")
    summary_path = os.path.join(out_dir, base + ".summary.json")
    write_trace_csv(trace, trace_path)
    with _replacing(summary_path) as fh:
        fh.write((json.dumps(summary, sort_keys=True) + "\n").encode())
    return trace_path, summary_path
