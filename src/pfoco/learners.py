"""Online learners over oracle-accessed feasible sets.

All learners share the same skeleton: play a point, observe loss
feedback, take a gradient step, and replace the unaffordable exact
projection with an infeasible projection built from the set's cheap
oracle.  The blocked variants amortize one projection over K rounds of
accumulated gradients, which is what pushes the total oracle bill down
to O(T) while keeping the regret sublinear.

Two run loops cover the paper's learners, each with full-information
and bandit feedback; a bandit run steps along the one-point estimate
(n/delta) f(x + delta u) u in place of the subgradient:

* :func:`loo_run` -- blocked OGD with the LOO-based infeasible
  projection: ``loo_bogd``, ``loo_bogd_sc`` (per-block schedule for
  strongly convex losses) and the bandit ``loo_bbgd``.
* :func:`so_run` -- per-round OGD with the separation-based infeasible
  projection: ``so_ogd`` and the bandit ``so_bgd``.
* :func:`ogd_wf_run` -- OGD with the exact projection (``ogd_wf``), the
  classical baseline the others are measured against.

Every run returns a :class:`RunTrace` carrying plays, per-round losses,
cumulative oracle counts, and the full diagnostics of every projection
invocation, so tests can assert the per-invocation iteration ceilings
and the global budget/regret bounds on real runs.  An SO run keeps
them as columns (:class:`SoRecords`: each round's projection input and
output, and its calls from ``so_cum``).  It takes every run, of either
feedback and any loss kind, in chunks of rounds whose inputs are asked
about in block queries; only a round that is refused, needs the
rescale or is a chunk alone enters :func:`~pfoco.projection.cip_so`.

Parameter builders (``*_params``) encode the step sizes, tolerances,
and block lengths under which the guarantees hold, validate their
preconditions by name, and accept explicit overrides.  The table
:data:`LEARNERS` holds everything that depends on the learner kind: the
config keys it accepts, the builder from a config to its parameters,
its run loop, and its governing regret and oracle-call bounds, which
:func:`theoretical_bounds` evaluates at the actual run parameters.
"""

from __future__ import annotations

import dataclasses
import math
import time
from collections.abc import Sequence
from typing import Callable, Optional, Union

import numpy as np

from . import projection  # so_query is looked up on the module, where perfbench/tracing.py wraps it
from .geometry import FEASIBLE, FeasibleSet, OracleCounters, squeeze
from .losses import LossSchedule, bandit_gradient_estimate, sample_unit_sphere
from .projection import SoProjection, _so_input, cip_loo, cip_so

# rounds per chunk of so_run's pass with known steps, and the longest
# chunk with speculative ones
STRETCH_CHUNK = 32


@dataclasses.dataclass
class RunTrace:
    """Everything observable about one learner run."""

    plays: np.ndarray
    losses: np.ndarray
    loo_cum: np.ndarray
    so_cum: np.ndarray
    block_index: np.ndarray
    counters: OracleCounters
    projections: Sequence
    params: dict
    grad_norms: Optional[np.ndarray] = None
    wall_time: float = 0.0

    @property
    def T(self) -> int:
        return self.plays.shape[0]


class SoRecords(Sequence):
    """Read-only sequence of the :class:`~pfoco.projection.SoProjection`
    of every round of an SO run, built when indexed or sliced from the
    run's columns: each round's input and output point (``inputs``,
    ``outputs``, (T, n) arrays) and its SO calls, the step of ``so_cum``."""

    def __init__(self, inputs, outputs, so_cum, delta, delta_prime, r, set_R):
        inputs.flags.writeable = outputs.flags.writeable = False
        self.inputs, self.outputs = inputs, outputs
        self._so_cum = so_cum
        self._fixed = {"delta": delta, "delta_prime": delta_prime, "r": r, "set_R": set_R}

    def __len__(self) -> int:
        return len(self._so_cum)

    def __getitem__(self, key):
        if isinstance(key, slice):
            return [self[t] for t in range(*key.indices(len(self)))]
        t = range(len(self))[key]  # IndexError past either end
        calls = int(self._so_cum[t] - (self._so_cum[t - 1] if t else 0))
        return SoProjection(y=self.outputs[t], so_calls=calls, y0=self.inputs[t], **self._fixed)


@dataclasses.dataclass
class LearnerParams:
    """Run parameters; built by the ``*_params`` helpers."""

    kind: str
    T: int
    R: float
    r: float
    n: int
    G_f: float
    M: float
    K: int = 1
    B: int = 1
    eta: Optional[float] = None
    eps: Optional[float] = None
    eta_m: Optional[np.ndarray] = None
    eps_m: Optional[np.ndarray] = None
    delta: Optional[float] = None
    delta_prime: Optional[float] = None
    c: Optional[float] = None
    c_prime: Optional[float] = None
    alpha: Optional[float] = None

    def to_dict(self) -> dict:
        out = {}
        for f in dataclasses.fields(self):
            v = getattr(self, f.name)
            if isinstance(v, np.ndarray):
                v = v.tolist()
            out[f.name] = v
        return out


def _clamp_block_length(value: float, T: int) -> int:
    return min(max(1, math.ceil(value)), T)


def _blocks(T: int, K: int) -> int:
    """Blocks of length K in T rounds; K must be in [1, T]."""
    if not (1 <= K <= T):
        raise ValueError("needs 1 <= K <= T")
    return math.ceil(T / K)


def _positive(**values: float) -> None:
    """Refuse, by name, the first value that is not positive."""
    for name, v in values.items():
        if not (v > 0):
            raise ValueError(f"needs {name} > 0")


def _params(kind: str, set_: FeasibleSet, T: int, G_f: float, M: float, **fields) -> LearnerParams:
    """A kind's parameters over ``set_``, with the set's R, r and n."""
    return LearnerParams(kind=kind, T=T, R=set_.R, r=set_.r, n=set_.n, G_f=G_f, M=M, **fields)


def _preconditions(T: int, set_: Optional[FeasibleSet] = None) -> None:
    """Refuse a horizon T < 1 and, given ``set_``, a set with no interior
    margin (r = 0)."""
    if T < 1:
        raise ValueError("needs T >= 1")
    if set_ is not None and not (set_.r > 0):
        raise ValueError("needs an interior margin r > 0")


# ----------------------------------------------------------------------
# parameter builders


def loo_bogd_params(
    set_: FeasibleSet,
    schedule_G_f: float,
    T: int,
    eta: Optional[float] = None,
    eps: Optional[float] = None,
    K: Optional[int] = None,
) -> LearnerParams:
    """Blocked LOO learner, general convex losses."""
    _preconditions(T)
    _positive(G_f=schedule_G_f)
    R = set_.R
    K = _clamp_block_length(5.0 * math.sqrt(T), T) if K is None else int(K)
    B = _blocks(T, K)
    eta = (R / schedule_G_f) * T ** (-0.75) if eta is None else float(eta)
    eps = 60.0 * R * R * T ** (-0.5) if eps is None else float(eps)
    _positive(eta=eta, eps=eps)
    return _params(
        "loo_bogd", set_, T, schedule_G_f, 0.0, K=K, B=B, eta=eta, eps=eps, eta_m=np.full(B, eta), eps_m=np.full(B, eps)
    )


def loo_bogd_sc_params(
    set_: FeasibleSet,
    schedule_G_f: float,
    T: int,
    alpha: float,
    K: Optional[int] = None,
) -> LearnerParams:
    """Blocked LOO learner, alpha-strongly-convex losses.

    Tolerances shrink and step sizes decay per block; valid once the
    horizon dominates the conditioning: T >= 27*(alpha*R/G_f)^2.
    """
    _positive(alpha=alpha, G_f=schedule_G_f)
    R = set_.R
    floor = 27.0 * (alpha * R / schedule_G_f) ** 2
    if T < floor:
        raise ValueError(f"needs T >= 27*(alpha*R/G_f)^2 = {floor:.6g}, got T = {T}")
    K = _clamp_block_length((alpha * R / schedule_G_f) ** (2.0 / 3.0) * T ** (2.0 / 3.0), T) if K is None else int(K)
    B = _blocks(T, K)
    m = np.arange(1, B + 1, dtype=np.float64)
    eta_m, eps_m = 2.0 / (alpha * K * m), (20.0 * schedule_G_f / (alpha * (m + 3.0))) ** 2
    return _params("loo_bogd_sc", set_, T, schedule_G_f, 0.0, K=K, B=B, eta_m=eta_m, eps_m=eps_m, alpha=alpha)


def loo_bbgd_params(
    set_: FeasibleSet,
    schedule_M: float,
    T: int,
    c: float,
    G_f: float = 0.0,
) -> LearnerParams:
    """Blocked LOO learner with one-point bandit feedback.

    Plays live on the (1 - delta/r)-squeezed set so the exploration
    sphere of radius delta = c * T^(-1/4) never leaves the original.
    """
    _preconditions(T, set_)
    R, r, n = set_.R, set_.r, set_.n
    _positive(M=schedule_M, c=c)
    delta = c * T ** (-0.25)
    if not (delta < r):
        raise ValueError(f"needs c*T^(-1/4) < r: c = {c}, T = {T} gives delta = {delta:.6g} >= r = {r:.6g}")
    K = _clamp_block_length(6.0 * n * schedule_M * math.sqrt(T), T)
    eta = (R / math.sqrt(n * schedule_M)) * T ** (-0.75)
    eps = delta * delta / 3.0
    B = _blocks(T, K)
    eta_m, eps_m = np.full(B, eta), np.full(B, eps)
    return _params(
        "loo_bbgd", set_, T, G_f, schedule_M, K=K, B=B, eta=eta, eps=eps, eta_m=eta_m, eps_m=eps_m, delta=delta, c=c
    )


def so_ogd_params(
    set_: FeasibleSet,
    schedule_G_f: float,
    T: int,
    c: Optional[float] = None,
) -> LearnerParams:
    """Per-round SO learner, full information."""
    _preconditions(T, set_)
    R, r = set_.R, set_.r
    if c is None:
        c = 4.0 * R / r
    _positive(G_f=schedule_G_f, c=c)
    delta = c * T ** (-0.5)
    if not (delta < 1.0):
        raise ValueError(f"needs c*T^(-1/2) < 1: c = {c}, T = {T} gives delta = {delta:.6g}")
    eta = (r / (2.0 * schedule_G_f)) * T ** (-0.5)
    return _params("so_ogd", set_, T, schedule_G_f, 0.0, eta=eta, delta=delta, c=c)


def so_bgd_params(
    set_: FeasibleSet,
    schedule_M: float,
    T: int,
    c: Optional[float] = None,
    c_prime: Optional[float] = None,
    G_f: float = 0.0,
) -> LearnerParams:
    """Per-round SO learner with one-point bandit feedback."""
    _preconditions(T, set_)
    r, n = set_.r, set_.n
    _positive(M=schedule_M)
    if c is None:
        c = 8.0 / r
    if c_prime is None:
        c_prime = math.sqrt(n * schedule_M)
    _positive(c=c, c_prime=c_prime)
    delta = c * T ** (-0.25)
    delta_prime = c_prime * T ** (-0.25)
    if not (delta < 1.0):
        raise ValueError(f"needs c*T^(-1/4) < 1: c = {c}, T = {T} gives delta = {delta:.6g}")
    if not (2.0 * delta_prime < r):
        raise ValueError(
            f"needs 2*c'*T^(-1/4) < r: c' = {c_prime}, T = {T} gives 2*delta' = {2 * delta_prime:.6g} >= r = {r:.6g}"
        )
    eta = (r / (4.0 * math.sqrt(n * schedule_M))) * T ** (-0.75)
    return _params(
        "so_bgd", set_, T, G_f, schedule_M, eta=eta, delta=delta, delta_prime=delta_prime, c=c, c_prime=c_prime
    )


# ----------------------------------------------------------------------
# governing bounds, evaluated at actual run parameters; each returns
# (regret bound, oracle-call bound)


def _loo_bogd_bounds(p: LearnerParams) -> tuple[float, float]:
    T, R, G, K, eta, eps = p.T, p.R, p.G_f, p.K, p.eta, p.eps
    regret = G * math.sqrt(3.0 * eps) * T + 4.0 * R * G * K + 4.0 * R * R / eta + 0.5 * G * G * K * eta * T
    calls = (T / K) * (
        8.5 + 5.5 * K**2 * eta**2 * G**2 / eps + K**4 * eta**4 * G**4 / eps**2
    ) * (27.0 * R * R / eps)
    return regret, calls


def _loo_bogd_sc_bounds(p: LearnerParams) -> tuple[float, float]:
    T, R, G, a = p.T, p.R, p.G_f, p.alpha
    regret = 36.0 * (G**4 * R * R / a) ** (1.0 / 3.0) * T ** (2.0 / 3.0) * (
        1.0 + (2.0 / 3.0) * math.log(math.sqrt(T) * G / (a * R))
    )
    return regret, 0.94 * T


def _loo_bbgd_bounds(p: LearnerParams) -> tuple[float, float]:
    T, R, r, G, c = p.T, p.R, p.r, p.G_f, p.c
    nM = p.n * p.M
    regret = (
        (4.0 + R / r) * G * c * T**0.75
        + math.sqrt(nM) * (4.0 * R + 1.0 / math.sqrt(6.0) + 3.0 * R * G * G + R * nM / (2.0 * c * c)) * T**0.75
        + 24.0 * R * nM * (math.sqrt(nM) / (c * math.sqrt(6.0)) + G) * math.sqrt(T)
    )
    calls = (27.0 * R * R / (2.0 * nM * c * c)) * (
        6.0**5 * R**4 * nM**4 / (4.0 * c**8)
        + 6.0**6 * R**4 * nM**3 * G * G / (2.0 * c**6)
        + 6.0**6 * R**4 * nM**2 * G**4 / (3.0 * c**4)
        + 19.0
    ) * T
    return regret, calls


def _so_ogd_bounds(p: LearnerParams) -> tuple[float, float]:
    T, R, r, G, eta, delta = p.T, p.R, p.r, p.G_f, p.eta, p.delta
    regret = (G * R * delta + 0.5 * G * G * eta) * T + 2.0 * R * R / eta
    calls = (2.0 * R * G / (r * r)) * (eta / delta) * T + (G * G / (r * r)) * (eta / delta) ** 2 * T + T
    return regret, calls


def _so_bgd_bounds(p: LearnerParams) -> tuple[float, float]:
    T, R, r, G, c, cp = p.T, p.R, p.r, p.G_f, p.c, p.c_prime
    nM = p.n * p.M
    regret = G * R * (
        3.0 * cp / R
        + cp / r
        + c
        + 4.0 * math.sqrt(nM) / (r * G)
        + nM ** 1.5 * r / (8.0 * G * R * cp * cp)
    ) * T**0.75 + G * R * (c * cp / r) * math.sqrt(T)
    calls = T + (2.0 * R * math.sqrt(nM) / r) * (1.0 / (c * cp)) * T**0.75 + (nM / 4.0) * (
        1.0 / (c * c * cp * cp)
    ) * math.sqrt(T)
    return regret, calls


def theoretical_bounds(params: LearnerParams) -> dict:
    """Regret and oracle-call bounds for a parameterized run; the regret
    is in the sense of the kind's ``scope`` in :data:`LEARNERS`."""
    kind = LEARNERS.get(params.kind)
    if kind is None:
        raise ValueError(f"unknown learner kind {params.kind!r}")
    if kind.bounds is None:
        raise ValueError(f"learner kind {params.kind!r} has no governing bounds")
    regret, calls = kind.bounds(params)
    return {"regret": regret, "oracle_calls": calls, "oracle": kind.oracle}


# ----------------------------------------------------------------------
# runs


def ogd_wf_run(
    set_: FeasibleSet,
    schedule: LossSchedule,
    etas: Union[float, np.ndarray],
    rng: Optional[np.random.Generator] = None,
) -> RunTrace:
    """Online gradient descent with the exact projection from the set's
    center; ``etas`` is a scalar or a length-T array of step sizes, and
    ``rng`` is unused (it completes the run signature the learners share).
    The losses are one ``values`` call over the plays, after the loop.
    ``params["etas"]`` lists every step when T <= 64; otherwise it is the
    one step of a constant schedule, or the first and last of any other."""
    t0 = time.perf_counter()
    T = schedule.T
    n = set_.n
    eta_arr = np.full(T, float(etas)) if np.isscalar(etas) else np.asarray(etas, dtype=np.float64)
    if eta_arr.shape != (T,):
        raise ValueError("etas must be a scalar or a length-T array")
    if not (np.isfinite(eta_arr).all() and (eta_arr > 0).all()):
        raise ValueError("etas must be positive and finite")
    x = np.array(set_.center, dtype=np.float64)
    plays = np.empty((T, n))
    gnorms = np.empty(T)
    subgrad, rows = schedule.family.subgrad, schedule.rows.tolist()
    for t in range(T):
        plays[t] = x
        g = subgrad(rows[t], x)
        gnorms[t] = np.linalg.norm(g)
        x = set_.project(x - eta_arr[t] * g)
    if T <= 64:
        recorded = eta_arr.tolist()
    elif (eta_arr == eta_arr[0]).all():
        recorded = float(eta_arr[0])
    else:  # a schedule, by its ends
        recorded = {"first": float(eta_arr[0]), "last": float(eta_arr[-1])}
    zeros = np.zeros(T, dtype=np.int64)
    return RunTrace(
        plays=plays,
        losses=schedule.family.values(schedule.rows, plays),
        loo_cum=zeros.copy(),
        so_cum=zeros.copy(),
        block_index=np.arange(1, T + 1, dtype=np.int64),
        counters=OracleCounters(),
        projections=[],
        params={"kind": "ogd_wf", "T": T, "etas": recorded},
        grad_norms=gnorms,
        wall_time=time.perf_counter() - t0,
    )


def _is_bandit(params: LearnerParams, schedule: LossSchedule, rng, run) -> bool:
    """Whether ``run`` takes one-point feedback for ``params``; rejects params
    built for another loop or horizon, and a bandit run without an rng."""
    kind = LEARNERS.get(params.kind)
    if kind is None or kind.run is not run:
        raise ValueError(f"params built for learner {params.kind!r}, not for {run.__name__}")
    if params.T != schedule.T:
        raise ValueError("schedule horizon differs from params.T")
    if kind.bandit and rng is None:
        raise ValueError(f"bandit learner {params.kind!r} needs an rng for its exploration directions")
    return kind.bandit


def loo_run(
    set_: FeasibleSet,
    schedule: LossSchedule,
    params: LearnerParams,
    rng: Optional[np.random.Generator] = None,
) -> RunTrace:
    """Blocked OGD with LOO-based infeasible projections.

    One projection per block from the second block on, computed at
    block start from the previous block's accumulated gradient steps;
    the block's plays stay at the anchor produced two blocks back, and
    the block's steps are subtracted from y in round order by one
    ``np.subtract.accumulate``.  Full information (loo_bogd,
    loo_bogd_sc) steps along the subgradient at the block's target;
    play and target are fixed for the block, so each run of rounds
    sharing a loss row costs one value, one subgradient and one norm.
    Bandit feedback (loo_bbgd) keeps the anchors on the (1 -
    delta/r)-squeezed set, plays anchor + delta*u_t, which stays inside
    the original set, and steps along the one-point estimate from the
    single observed value; a block's plays, values and steps are each
    one array operation.
    """
    t0 = time.perf_counter()
    bandit = _is_bandit(params, schedule, rng, loo_run)
    T, K, B = params.T, params.K, params.B
    n = set_.n
    delta = params.delta  # exploration radius
    view = squeeze(set_, 1.0 - delta / set_.r) if bandit else set_
    U = sample_unit_sphere(rng, n, T) if bandit else None
    family, rows = schedule.family, schedule.rows
    counters = OracleCounters()
    start = np.array(view.center)
    # play and gradient point of this block, and of the next one (the
    # projection made at this block's start); blocks 1 and 2 use the start
    anchor, target = start, start.copy()
    upcoming = (start.copy(), start.copy())
    y = start.copy()  # running accumulator of gradient steps
    plays = np.empty((T, n))
    losses = np.empty(T)
    gnorms = None if bandit else np.empty(T)
    loo_cum = np.empty(T, dtype=np.int64)
    projections = []
    for m in range(1, B + 1):
        if m >= 2:
            res = cip_loo(view, anchor, y, float(params.eps_m[m - 1]), counters)
            projections.append(res)
            (anchor, target), upcoming = upcoming, (res.x, res.y)
            y = target.copy()
        eta = float(params.eta_m[m - 1])
        first, last = (m - 1) * K, min(m * K, T)
        loo_cum[first:last] = counters.loo_calls  # no LOO call inside a block
        steps = np.empty((last - first + 1, n))
        steps[0] = y
        if bandit:
            u = U[first:last]
            plays[first:last] = anchor + delta * u
            losses[first:last] = vals = family.values(rows[first:last], plays[first:last])
            # eta * ((n/delta) f(z_t) u_t), rounded as the one-point estimate
            steps[1:] = eta * (((n / delta) * vals)[:, None] * u)
        else:
            plays[first:last] = anchor
            edges = [first, *(np.flatnonzero(np.diff(rows[first:last])) + first + 1).tolist(), last]
            for a, b in zip(edges[:-1], edges[1:]):
                i = rows[a]
                losses[a:b] = family.value(i, anchor)
                g = family.subgrad(i, target)
                gnorms[a:b] = np.linalg.norm(g)
                steps[a - first + 1 : b - first + 1] = eta * g
        # sequential, so y - s_1 - s_2 ... rounds exactly as a per-round loop
        y = np.subtract.accumulate(steps)[-1]
    return RunTrace(
        plays=plays,
        losses=losses,
        loo_cum=loo_cum,
        so_cum=np.zeros(T, dtype=np.int64),  # LOO projections make no SO calls
        block_index=np.arange(T, dtype=np.int64) // K + 1,
        counters=counters,
        projections=projections,
        params=params.to_dict(),
        grad_norms=gnorms,
        wall_time=time.perf_counter() - t0,
    )


def so_run(
    set_: FeasibleSet,
    schedule: LossSchedule,
    params: LearnerParams,
    rng: Optional[np.random.Generator] = None,
) -> RunTrace:
    """Per-round OGD with separation-based infeasible projections.

    Full information (so_ogd) plays the projected point and steps along
    its subgradient.  Bandit feedback (so_bgd) has the projection keep
    the decision points in (1 - delta'/r) K, so the delta'-sphere
    exploration never leaves the set, and steps along the one-point
    estimate.

    A round whose projection accepts its input with one oracle call
    plays that input next, so the run is one pass in chunks of rounds,
    which may cross loss switches.  Row j of a chunk is the input of its
    round if every earlier round of the chunk accepted its own, rounded
    as a per-round loop rounds it.  With full information on linear
    losses the steps do not depend on the point: they are known before
    the run, and one ``np.subtract.accumulate`` makes a chunk of
    STRETCH_CHUNK rows.  Otherwise the steps are speculative: a lean
    loop makes each row from the one before (play, value and one-point
    estimate, or subgradient and its norm), so after a chunk ends early
    the next is one round long, doubling after each full chunk (or
    one-round chunk of one SO call) up to STRETCH_CHUNK.  The rows
    before the first that needs the rescale to the R-ball, divided by
    1 - delta'/r, go to the oracle as one block query through
    :func:`~pfoco.projection.so_query`, charged the SO calls a
    per-round loop makes, and each accepted row is its round's input
    and output.  The round that ends a chunk early (refused, or in need
    of the rescale) takes :func:`~pfoco.projection.cip_so`, which goes
    on from the block's refusal, so no point is queried twice; the rows
    after it are thrown away.  A one-round chunk skips the block query
    and takes :func:`~pfoco.projection.cip_so` as the rescale does.

    The trace records each round's projection input and output as
    columns (:class:`SoRecords`).  The plays and losses are filled
    after the loop: each round plays the previous round's output, plus
    delta' u_t with bandit feedback, and the losses are one ``values``
    call over the plays.
    """
    t0 = time.perf_counter()
    bandit = _is_bandit(params, schedule, rng, so_run)
    T = params.T
    n, R, r = set_.n, set_.R, set_.r
    delta, eta = params.delta, params.eta
    dp = params.delta_prime if bandit else 0.0  # exploration radius
    family, rows = schedule.family, schedule.rows
    known = not bandit and family.kind == "linear"
    counters = OracleCounters()
    ytil = _so_input(set_, r, delta, dp, np.zeros(n))  # checks the parameters once per run
    scale = 1.0 - dp / r
    calls = np.ones(T, dtype=np.int64)  # SO calls of each round
    so_in, so_out = np.empty((T, n)), np.empty((T, n))
    gnorms = None if bandit else np.empty(T)
    if known:
        # each round's step, as eta * subgrad rounds it: a linear loss's
        # subgradient does not depend on the point
        steps = eta * family.C[rows]
        gnorms[:] = np.sqrt(np.vecdot(family.C, family.C))[rows]
    else:
        U = sample_unit_sphere(rng, n, T) if bandit else None
        value, subgrad, row_list = family.value, family.subgrad, rows.tolist()
    size = STRETCH_CHUNK
    t = 0
    while t < T:
        Y = so_in[t : t + size]
        c = len(Y)
        # row j: the input of round t + j if rounds t..t+j-1 accept theirs
        if known:
            Y[:] = steps[t : t + c]
            Y[0] = ytil - Y[0]
            np.subtract.accumulate(Y, out=Y)
        else:
            y = ytil
            for s in range(t, t + c):
                if bandit:
                    g = bandit_gradient_estimate(value(row_list[s], y + dp * U[s]), U[s], n, dp)
                else:
                    g = subgrad(row_list[s], y)
                    gnorms[s] = math.sqrt(g.dot(g))
                Y[s - t] = y = y - eta * g
        ans = FEASIBLE  # a one-round chunk goes to cip_so whole
        if c > 1:
            # a list: ndarray.all() alone costs about what a 1-row chunk's test does
            unscaled = (np.sqrt(np.vecdot(Y, Y)) <= R).tolist()
            stop = unscaled.index(False) if False in unscaled else c
            ans = projection.so_query(set_, Y[:stop] / scale if dp else Y[:stop], counters) if stop else FEASIBLE
            k = stop if ans.feasible else ans.row
            so_out[t : t + k] = Y[:k]
            t += k
            if k == c:
                ytil = Y[c - 1]
                size = min(2 * size, STRETCH_CHUNK)
                continue
        # round t is alone, refused, or (ans feasible) its input needs the rescale
        res = cip_so(set_, r, delta, dp, so_in[t], counters, first=None if ans.feasible else ans)
        ytil = so_out[t] = res.y
        calls[t] = res.so_calls
        t += 1
        size = STRETCH_CHUNK if known else 2 if c == 1 and res.so_calls == 1 else 1
    plays = np.vstack((np.zeros(n), so_out[:-1]))  # each round plays the previous output, from the origin
    if bandit:
        plays += dp * U  # and its exploration step
    so_cum = np.cumsum(calls)
    return RunTrace(
        plays=plays,
        losses=family.values(rows, plays),
        loo_cum=np.zeros(T, dtype=np.int64),  # SO projections make no LOO calls
        so_cum=so_cum,
        block_index=np.arange(1, T + 1, dtype=np.int64),
        counters=counters,
        projections=SoRecords(so_in, so_out, so_cum, delta, dp, r, R),
        params=params.to_dict(),
        grad_norms=gnorms,
        wall_time=time.perf_counter() - t0,
    )


# ----------------------------------------------------------------------
# the learner table


def _opt_float(v) -> Optional[float]:
    return None if v is None else float(v)


def _ogd_wf_from_cfg(cfg: dict, set_: FeasibleSet, sched: LossSchedule, T: int) -> Union[float, np.ndarray]:
    """Step sizes 1/(alpha t) with ``alpha``, else ``eta``, else R/(G_f sqrt(T))."""
    _positive(**{k: cfg[k] for k in ("alpha", "eta") if cfg.get(k) is not None})
    alpha, eta = cfg.get("alpha"), cfg.get("eta")
    if alpha is not None:
        return 1.0 / (float(alpha) * np.arange(1, T + 1))
    return float(eta) if eta is not None else set_.R / (sched.G_f * math.sqrt(T))


def _loo_bogd_from_cfg(cfg: dict, set_: FeasibleSet, sched: LossSchedule, T: int) -> LearnerParams:
    return loo_bogd_params(set_, sched.G_f, T, eta=cfg.get("eta"), eps=cfg.get("eps"), K=cfg.get("K"))


def _loo_bogd_sc_from_cfg(cfg: dict, set_: FeasibleSet, sched: LossSchedule, T: int) -> LearnerParams:
    alpha = cfg.get("alpha", sched.family.alpha)
    if not (alpha and alpha > 0):
        raise ValueError("needs a strongly convex schedule (alpha > 0)")
    return loo_bogd_sc_params(set_, sched.G_f, T, alpha=float(alpha), K=cfg.get("K"))


def _loo_bbgd_from_cfg(cfg: dict, set_: FeasibleSet, sched: LossSchedule, T: int) -> LearnerParams:
    return loo_bbgd_params(set_, sched.M, T, c=float(cfg["c"]), G_f=sched.G_f)


def _so_ogd_from_cfg(cfg: dict, set_: FeasibleSet, sched: LossSchedule, T: int) -> LearnerParams:
    return so_ogd_params(set_, sched.G_f, T, c=_opt_float(cfg.get("c")))


def _so_bgd_from_cfg(cfg: dict, set_: FeasibleSet, sched: LossSchedule, T: int) -> LearnerParams:
    c, c_prime = _opt_float(cfg.get("c")), _opt_float(cfg.get("c_prime"))
    return so_bgd_params(set_, sched.M, T, c=c, c_prime=c_prime, G_f=sched.G_f)


@dataclasses.dataclass(frozen=True)
class LearnerKind:
    """Everything that depends on a learner kind.

    ``keys`` are the config keys it accepts besides ``kind``; ``required``
    maps those without a default to a description.  ``build(cfg, set_,
    schedule, T)`` gives what ``run(set_, schedule, params, rng)``
    takes.  ``bounds(params)`` is (regret in the sense of ``scope``,
    calls to ``oracle``); all three are None without a guarantee.
    """

    keys: set
    required: dict
    build: Callable
    run: Callable
    bandit: bool = False
    bounds: Optional[Callable[[LearnerParams], tuple[float, float]]] = None
    scope: Optional[str] = None
    oracle: Optional[str] = None


# kind: LearnerKind(keys, required, build, run, bandit, bounds, scope, oracle)
LEARNERS = {
    "ogd_wf": LearnerKind({"eta", "alpha"}, {}, _ogd_wf_from_cfg, ogd_wf_run),
    "loo_bogd": LearnerKind(
        {"eta", "eps", "K"}, {}, _loo_bogd_from_cfg, loo_run, False, _loo_bogd_bounds, "adaptive", "loo"
    ),
    "loo_bogd_sc": LearnerKind(
        {"alpha", "K"}, {}, _loo_bogd_sc_from_cfg, loo_run, False, _loo_bogd_sc_bounds, "static", "loo"
    ),
    "loo_bbgd": LearnerKind(
        {"c"}, {"c": "exploration constant c"}, _loo_bbgd_from_cfg, loo_run, True, _loo_bbgd_bounds,
        "expected_adaptive", "loo",
    ),
    "so_ogd": LearnerKind({"c"}, {}, _so_ogd_from_cfg, so_run, False, _so_ogd_bounds, "adaptive", "so"),
    "so_bgd": LearnerKind(
        {"c", "c_prime"}, {}, _so_bgd_from_cfg, so_run, True, _so_bgd_bounds, "expected_adaptive", "so"
    ),
}
