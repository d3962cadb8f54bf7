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
  one LOO call, so those passes are implied: they pull y and cost no
  call.

* :func:`cip_so` uses only the separation oracle.  It returns a single
  point inside (1 - delta_prime/r) K, repeatedly stepping against
  returned separators; each step shrinks the squared distance to every
  member of the doubly squeezed target set by delta^2 (r-delta_prime)^2.
  :func:`cip_so_stretch` runs it over consecutive rounds that step by
  one fixed vector, for as long as each round's input is accepted as it
  is: it builds the rounds' points in array passes and asks the oracle
  about each pass's points in one block query, charged one call per
  round up to the first refusal.

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
    """Result and diagnostics of one cip_loo invocation.

    ``fw_iterations`` and ``anchor_dists`` hold one entry per outer pass;
    an ``fw_iterations`` entry is the LOO calls of that pass's Frank-Wolfe
    run, or 0 for an implied pass (one that follows a separating run and
    spends no call).  ``loo_calls`` is their sum.
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
    ``fw_iterations`` entry of 0.  x, y and the pass count are those of
    the paper's loop, which runs Frank-Wolfe on every pass.
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
    # <= eps.  That run would return x after one LOO call, and so would every
    # later one: each pass after a separating run is implied and costs none.
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
        else:
            inner = separating_hyperplane_fw(set_, x, y, eps, counters)
            x = inner.point
            separated = not inner.close
            result.fw_iterations.append(inner.iterations)
            result.loo_calls += inner.iterations
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
    caller that has already made (and charged) that query, as
    :func:`cip_so_stretch` reports it: the loop goes on from that reply
    instead of asking again, and counts it as its first call.
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
        y = pull_toward(y, g, gain * gn, gn)
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


# candidate rows per array pass of cip_so_stretch
STRETCH_CHUNK = 32


def cip_so_stretch(
    set_: FeasibleSet,
    r: float,
    delta: float,
    delta_prime: float,
    y0: Vector,
    step: Vector,
    out: np.ndarray,
    counters: Optional[OracleCounters] = None,
) -> tuple[int, Optional[SeparationAnswer]]:
    """:func:`cip_so` over a run of rounds that all step by ``step``.

    Round k (from 0) projects y_k - step, where y_0 = y0 and y_{k+1} =
    y_k - step for as long as cip_so returns its input unchanged after
    one oracle call: the point needs no rescale (norm at most R) and the
    oracle accepts it.  The candidates are made STRETCH_CHUNK at a time
    by one ``np.subtract.accumulate``, so they round as a per-round loop
    would, and written to the rows of ``out`` (shape (m, n)).  The
    chunk's points that need no rescale go to the oracle as one block
    through :func:`~pfoco.geometry.so_query`, which answers them in order
    up to the first refusal and charges ``counters`` one call per round
    so asked, as querying them one at a time would.

    Returns (k, answer).  Rows 0..k-1 of ``out`` are accepted points,
    each its round's input and output.  If k < m, row k holds round k's
    input, which either needs the rescale (``answer`` is None; it was
    not queried) or was refused, and ``answer`` is the refusal, from
    which ``cip_so(..., out[k], counters, first=answer)`` finishes the
    round without asking again.
    """
    y = _so_input(set_, r, delta, delta_prime, y0)
    step = as_vector(step)
    if step.shape != (set_.n,):
        raise ValueError("dimension mismatch")
    if not (isinstance(out, np.ndarray) and out.dtype == np.float64 and out.ndim == 2 and out.shape[1] == set_.n):
        raise ValueError(f"out must be an (m, {set_.n}) float64 array")
    scale = 1.0 - delta_prime / r
    R = set_.R
    m = out.shape[0]
    buf = np.empty((min(STRETCH_CHUNK, m) + 1, set_.n))
    buf[1:] = step
    k = 0
    while k < m:
        c = min(STRETCH_CHUNK, m - k)
        buf[0] = y
        Y = out[k : k + c]
        Y[:] = np.subtract.accumulate(buf[: c + 1])[1:]
        unscaled = np.sqrt(np.vecdot(Y, Y)) <= R
        stop = c if unscaled.all() else int(unscaled.argmin())
        if stop:
            Q = Y[:stop]
            ans = so_query(set_, Q if scale == 1.0 else Q / scale, counters)
            if not ans.feasible:
                return k + ans.row, ans
        if stop < c:
            return k + stop, None
        y = Y[c - 1]
        k += c
    return m, None
