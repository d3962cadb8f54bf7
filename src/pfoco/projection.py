"""Infeasible-projection oracles.

A standard projection finds the nearest member of K.  The routines here
settle for something cheaper that online gradient methods can use just
as well: given y0, produce y that is *no farther than y0 from any member
of K* (so every regret-analysis distance term only shrinks), plus a
certificate of proximity.  Two constructions:

* :func:`cip_loo` uses only the linear-optimization oracle.  It returns
  a pair (x, y) with x feasible and ||x - y||^2 <= 3*eps, alternating
  early-stopped Frank-Wolfe runs with small pulls of y toward x.  Once a
  run certifies separation, every later run is known to return x after
  at most one LOO call, so those passes are implied: they pull y and
  cost no call.

* :func:`cip_so` uses only the separation oracle.  It returns a single
  point inside (1 - delta_prime/r) K, repeatedly stepping against
  returned separators; each step shrinks the squared distance to every
  member of the doubly squeezed target set by delta^2 (r-delta_prime)^2.
  A caller that has already asked the oracle about the first query
  point, in a block query over several rounds, passes that reply as
  ``first`` and is not charged for it twice.

Both loops carry proven iteration ceilings; implementations enforce a
10x safety cap and raise :class:`~pfoco.geometry.OracleContractError`
past it, which can only happen if an oracle violates its contract.
Exact per-invocation ceilings are asserted in the test suite from the
diagnostics returned with every result.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Optional

import numpy as np

from .frankwolfe import separating_hyperplane_fw
from .geometry import (
    FeasibleSet,
    OracleContractError,
    OracleCounters,
    SeparationAnswer,
    Vector,
    as_vector,
    so_query,
)


@dataclasses.dataclass
class LooProjection:
    """Result and diagnostics of one cip_loo invocation.

    ``fw_iterations`` and ``anchor_dists`` hold one entry per outer pass;
    an ``fw_iterations`` entry is the LOO calls of that pass's Frank-Wolfe
    run, or 0 for an implied pass (one that follows a separating run and
    spends no call) or for a run whose start was already close.
    ``loo_calls`` is their sum.  The ledger tells those apart: ``fw_runs``
    passes ran Frank-Wolfe and ``implied_passes`` did not; ``close_runs``
    runs ended close, ``started_close`` of them at their start.
    """

    x: Vector
    y: Vector
    outer_iterations: int
    fw_iterations: list[int]
    anchor_dists: list[float]
    loo_calls: int
    eps: float
    set_R: float
    input_dist_sq: float
    fw_runs: int = 0
    implied_passes: int = 0
    close_runs: int = 0
    started_close: int = 0

    @property
    def literal_loo_calls(self) -> int:
        """The LOO calls of the paper's loop, which runs Frank-Wolfe on
        every pass and asks the LOO before its close test: one more per
        implied pass and one more per run that ended close."""
        return self.loo_calls + self.implied_passes + self.close_runs


def cip_loo_outer_ceiling(input_dist_sq: float, eps: float) -> float:
    """Certified ceiling on pull-loop passes (d = initial ||x0 - y0||)."""
    d2 = input_dist_sq
    return max(d2 * (d2 - eps) / (4.0 * eps * eps) + 1.0, 1.0)


def cip_loo(
    set_: FeasibleSet,
    x0: Vector,
    y0: Vector,
    eps: float,
    counters: Optional[OracleCounters] = None,
) -> LooProjection:
    """Infeasible projection of y0 onto the set via LOO access only.

    Returns (x, y) with x feasible, ||x - y||^2 <= 3*eps, and
    ||y - z|| <= ||y0 - z|| for every member z.  Needs a feasible anchor
    x0; the step size of the pull stage is fixed once from the original
    pair, gamma = 2*eps / ||x0 - y0||^2.  A Frank-Wolfe run is made on the
    first pass and after each run that ends close; every pass after a run
    that ends separated is implied, with x kept, 0 LOO calls and an
    ``fw_iterations`` entry of 0.  A run asks no LOO at an iterate that
    is already close, so one that ends close spends one call fewer than
    the paper's run.  x, y and the pass count are those of the paper's
    loop, which runs Frank-Wolfe on every pass and asks the LOO first.
    """
    if not (eps > 0):
        raise ValueError("eps must be positive")
    x = np.array(x0, dtype=np.float64)
    y_in = as_vector(y0)
    if x.shape != (set_.n,) or y_in.shape != (set_.n,):
        raise ValueError("dimension mismatch")
    if not set_.contains(x):
        raise ValueError("anchor x0 must be a member of the set")

    d2 = float((x - y_in) @ (x - y_in))
    nrm = float(np.linalg.norm(y_in))
    y = y_in / max(1.0, nrm / set_.R)

    result = LooProjection(
        x=x,
        y=y,
        outer_iterations=0,
        fw_iterations=[],
        anchor_dists=[],
        loo_calls=0,
        eps=eps,
        set_R=set_.R,
        input_dist_sq=d2,
    )
    if d2 <= 3.0 * eps:
        return result

    gamma = 2.0 * eps / d2
    cap = 10 * math.ceil(cip_loo_outer_ceiling(d2, eps))
    # A run that ends without being close has certified (x - y) @ (x - v)
    # <= eps for v = LOO(x - y).  The pull makes the next query
    # x - y' = (1 - gamma)(x - y): the LOO argmin is scale invariant, so v
    # still answers it, and the gap is (1 - gamma) times the old one, still
    # <= eps.  That run would return x after at most one LOO call, and so
    # would every later one: each pass after a separating run is implied and
    # costs none.
    # ``separated`` follows the run's own dot-based close flag; where the norm
    # test below disagrees with it in the last bit, x was never certified and
    # the next pass runs Frank-Wolfe again.
    separated = False
    k = 0
    while True:
        k += 1
        if k > cap:
            raise OracleContractError(
                "pull loop exceeded 10x its certified ceiling",
                ceiling=cip_loo_outer_ceiling(d2, eps),
                iterations=k,
                eps=eps,
                input_dist_sq=d2,
            )
        if separated:
            result.fw_iterations.append(0)
            result.implied_passes += 1
        else:
            inner = separating_hyperplane_fw(set_, x, y, eps, counters)
            x = inner.point
            separated = not inner.close
            result.fw_iterations.append(inner.iterations)
            result.loo_calls += inner.iterations
            result.fw_runs += 1
            result.close_runs += inner.close
            result.started_close += inner.iterations == 0
        d = x - y
        dist = math.sqrt(d.dot(d))
        result.anchor_dists.append(dist)
        if dist * dist > 3.0 * eps:
            y = y + gamma * d
        else:
            result.x = x
            result.y = y
            result.outer_iterations = k
            return result


@dataclasses.dataclass
class SoProjection:
    """Result and diagnostics of one cip_so invocation."""

    y: Vector
    so_calls: int
    delta: float
    delta_prime: float
    r: float
    set_R: float
    y0: Vector


def _so_input(set_: FeasibleSet, r: float, delta: float, delta_prime: float, y0: Vector) -> Vector:
    """The checked input point of an SO projection with these parameters."""
    y_in = as_vector(y0)
    if y_in.shape != (set_.n,):
        raise ValueError("dimension mismatch")
    if not (r > 0):
        raise ValueError("needs an interior margin r > 0")
    if r > set_.r * (1.0 + 1e-12):
        raise ValueError(f"claimed margin r={r} exceeds the set's r={set_.r}")
    if not (0.0 < delta < 1.0):
        raise ValueError("delta must lie in (0, 1)")
    if not (0.0 <= delta_prime < r):
        raise ValueError("delta_prime must lie in [0, r)")
    return y_in


def cip_so(
    set_: FeasibleSet,
    r: float,
    delta: float,
    delta_prime: float,
    y0: Vector,
    counters: Optional[OracleCounters] = None,
    first: Optional[SeparationAnswer] = None,
) -> SoProjection:
    """Infeasible projection of y0 via separation access only.

    Queries the oracle at y / (1 - delta_prime/r); any separator there
    carries margin delta*(r - delta_prime) over the doubly squeezed set
    (1-delta)(1-delta_prime/r) K, so each pull strictly approaches all
    of its members.  Returns y certified to lie in (1 - delta_prime/r) K
    with ||y - z|| <= ||y0 - z|| for every z in the doubly squeezed set.
    One oracle call per iteration, the final (feasible) answer included.
    The returned y may share memory with y0 when y0 needs neither the
    rescale to the R-ball nor a pull.

    ``first`` is the oracle's reply at the first query point, for a
    caller that has already made (and charged) that query, as the chunk
    pass of :func:`pfoco.learners.so_run` does: the loop goes on from
    that reply instead of asking again, and counts it as its first call.
    """
    y_in = _so_input(set_, r, delta, delta_prime, y0)
    if first is not None and not (
        isinstance(first, SeparationAnswer) and (first.feasible or np.shape(first.g) == (set_.n,))
    ):
        raise ValueError("first must be a SeparationAnswer for a point of the set's dimension")

    scale = 1.0 - delta_prime / r
    R = set_.R
    nrm = math.sqrt(y_in.dot(y_in))
    # x / 1.0 == x: divide only when the rescale or the squeeze moves the point
    y = y_in if nrm <= R else y_in / (nrm / R)
    gain = delta * (r - delta_prime)
    ceiling = R * R / (gain * gain) + 1.0
    cap = math.ceil(10.0 * ceiling)

    calls = 1
    ans = so_query(set_, y if scale == 1.0 else y / scale, counters) if first is None else first
    while not ans.feasible:
        g = ans.g
        gn = math.sqrt(g.dot(g))
        if gn == 0.0:
            raise OracleContractError("separation oracle returned a zero normal", iterations=calls)
        # a separation-certified pull y - (Q/C^2) g with Q = gain * gn and
        # C = gn = ||g||: the squared distance to every member of the
        # target set falls by (Q/C)^2 = gain^2 (pull_toward in
        # tests/support.py is the reference)
        y = y - ((gain * gn) / (gn * gn)) * g
        calls += 1
        if calls > cap:
            raise OracleContractError(
                "separation pull loop exceeded 10x its certified ceiling",
                ceiling=ceiling,
                iterations=calls,
                delta=delta,
                delta_prime=delta_prime,
            )
        ans = so_query(set_, y if scale == 1.0 else y / scale, counters)
    return SoProjection(
        y=y,
        so_calls=calls,
        delta=delta,
        delta_prime=delta_prime,
        r=r,
        set_R=R,
        y0=np.array(y_in),
    )
