"""Infeasible-projection oracles.

A standard projection finds the nearest member of K.  The routines here
settle for something cheaper that online gradient methods can use just
as well: given y0, produce y that is *no farther than y0 from any member
of K* (so every regret-analysis distance term only shrinks), plus a
certificate of proximity.  Two constructions:

* :func:`cip_loo` uses only the linear-optimization oracle.  It returns
  a pair (x, y) with x feasible and ||x - y||^2 <= 3*eps, alternating
  early-stopped Frank-Wolfe runs with small pulls of y toward x.

* :func:`cip_so` uses only the separation oracle.  It returns a single
  point inside (1 - delta_prime/r) K, repeatedly stepping against
  returned separators; each step shrinks the squared distance to every
  member of the doubly squeezed target set by delta^2 (r-delta_prime)^2.

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
    Vector,
    as_vector,
    so_query,
)


def pull_toward(y: Vector, g: Vector, Q: float, C: float) -> Vector:
    """One separation-certified pull step.

    If (y - z) @ g >= Q >= 0 for every z in K and C >= ||g||, then the
    returned point ytil = y - (Q/C^2) g satisfies, for every z in K,
    ||ytil - z||^2 <= ||y - z||^2 - (Q/C)^2.
    """
    y = as_vector(y)
    g = as_vector(g)
    if Q < 0:
        raise ValueError("Q must be nonnegative")
    gn = math.sqrt(g.dot(g))
    if not (C > 0):
        raise ValueError("C must be positive")
    if gn > C * (1.0 + 1e-12):
        raise ValueError("C must upper-bound ||g||")
    return y - (Q / (C * C)) * g


@dataclasses.dataclass
class LooProjection:
    """Result and diagnostics of one cip_loo invocation."""

    x: Vector
    y: Vector
    outer_iterations: int
    fw_iterations: list[int]
    anchor_dists: list[float]
    loo_calls: int
    eps: float
    set_R: float
    input_dist_sq: float


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
    pair, gamma = 2*eps / ||x0 - y0||^2.
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
        inner = separating_hyperplane_fw(set_, x, y, eps, counters)
        x = inner.point
        result.fw_iterations.append(inner.iterations)
        result.loo_calls += inner.iterations
        dist = float(np.linalg.norm(x - y))
        result.anchor_dists.append(dist)
        if dist * dist > 3.0 * eps:
            y = y - gamma * (y - x)
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


def cip_so(
    set_: FeasibleSet,
    r: float,
    delta: float,
    delta_prime: float,
    y0: Vector,
    counters: Optional[OracleCounters] = None,
) -> SoProjection:
    """Infeasible projection of y0 via separation access only.

    Queries the oracle at y / (1 - delta_prime/r); any separator there
    carries margin delta*(r - delta_prime) over the doubly squeezed set
    (1-delta)(1-delta_prime/r) K, so each pull strictly approaches all
    of its members.  Returns y certified to lie in (1 - delta_prime/r) K
    with ||y - z|| <= ||y0 - z|| for every z in the doubly squeezed set.
    One oracle call per iteration, the final (feasible) answer included.
    """
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

    scale = 1.0 - delta_prime / r
    R = set_.R
    nrm = math.sqrt(y_in.dot(y_in))
    y = y_in / max(1.0, nrm / R)
    gain = delta * (r - delta_prime)
    cap = math.ceil(10.0 * (R * R / (gain * gain) + 1.0))

    calls = 0
    while True:
        calls += 1
        if calls > cap:
            raise OracleContractError(
                "separation pull loop exceeded 10x its certified ceiling",
                ceiling=R * R / (gain * gain) + 1.0,
                iterations=calls,
                delta=delta,
                delta_prime=delta_prime,
            )
        ans = so_query(set_, y / scale, counters)
        if ans.feasible:
            return SoProjection(
                y=y,
                so_calls=calls,
                delta=delta,
                delta_prime=delta_prime,
                r=r,
                set_R=R,
                y0=np.array(y_in),
            )
        g = ans.g
        gn = math.sqrt(g.dot(g))
        if gn == 0.0:
            raise OracleContractError("separation oracle returned a zero normal", iterations=calls)
        y = pull_toward(y, g, gain * gn, gn)
