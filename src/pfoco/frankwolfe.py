"""Frank-Wolfe on the squared distance to a point, over an LOO set.

:func:`separating_hyperplane_fw` minimizes the 1-smooth objective
f(x) = 0.5 * ||x - y||^2 over a feasible set accessed through its
linear-optimization oracle, with exact line search, and stops as soon
as it can hand its caller something useful for building an infeasible
projection: either the current iterate is provably within 3*eps of y in
squared distance ("close"), or the vector y - x separates y from the
whole set with margin 2*eps.  It terminates within ceil(27 R^2 / eps -
2) LOO calls: an iterate that is already close stops the run before
asking the LOO, and every other iterate asks it once.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Optional

import numpy as np

from .geometry import (
    FeasibleSet,
    OracleContractError,
    OracleCounters,
    Vector,
    loo_query,
)


def exact_line_search_quadratic(x: Vector, v: Vector, y: Vector) -> float:
    """argmin over sigma in [0,1] of ||x + sigma*(v - x) - y||^2.

    Returns 0 on the degenerate v == x step.
    """
    d = v - x
    dd = float(d @ d)
    if dd == 0.0:
        return 0.0
    sigma = float((y - x) @ d) / dd
    return min(1.0, max(0.0, sigma))


@dataclasses.dataclass
class SeparationResult:
    """Output of the early-stopping nearest-point run.

    ``close`` is True when ||point - y||^2 <= 3*eps; otherwise y - point
    defines a hyperplane separating y from the set with margin > 2*eps:
    (y - z) @ (y - point) > 2*eps for every member z.
    ``iterations`` equals the LOO calls spent: one per iterate that was
    not close, so 0 when the starting point already was.
    """

    point: Vector
    close: bool
    iterations: int


def fw_stop_ceiling(R: float, eps: float) -> int:
    """Certified iteration ceiling for the early-stopping run."""
    return max(math.ceil(27.0 * R * R / eps - 2.0), 1)


def separating_hyperplane_fw(
    set_: FeasibleSet,
    x1: Vector,
    y: Vector,
    eps: float,
    counters: Optional[OracleCounters] = None,
) -> SeparationResult:
    """Either approach y to within sqrt(3*eps) or certify separation.

    Runs Frank-Wolfe from the feasible point x1, stopping at the first
    iterate whose squared distance to y is at most 3*eps, tested before
    the LOO is asked, or whose gap certificate (x - y) @ (x - v) is at
    most eps (both comparisons are exact): the paper's points and close
    flags, at one LOO call fewer on a run that ends close.  Squared
    distance to y never increases along the way, so the result is at
    least as close to y as x1 was.  A gap that is not finite, which a
    finite x1 and y give only with a non-finite LOO answer, raises
    :class:`~pfoco.geometry.OracleContractError`.
    """
    if not (eps > 0):
        raise ValueError("eps must be positive")
    x = np.array(x1, dtype=np.float64)
    cap = 10 * fw_stop_ceiling(set_.R, eps)
    i = 0
    r = x - y
    while float(r @ r) > 3.0 * eps:
        i += 1
        v = loo_query(set_, r, counters)
        d = v - x
        gap = -float(r @ d)  # (x - y) @ (x - v) to the bit: negation is exact
        if not math.isfinite(gap):
            raise OracleContractError("linear-optimization oracle returned a non-finite point", iterations=i, eps=eps)
        if gap <= eps:
            return SeparationResult(point=x, close=False, iterations=i)
        if i >= cap:
            raise OracleContractError(
                "nearest-point loop exceeded 10x its certified ceiling",
                ceiling=fw_stop_ceiling(set_.R, eps),
                iterations=i,
                eps=eps,
                gap=gap,
                dist_sq=float(r @ r),
            )
        dd = float(d @ d)
        x = x + (gap / dd if dd > gap else 1.0) * d  # exact_line_search_quadratic's step, to the bit
        r = x - y
    return SeparationResult(point=x, close=True, iterations=i)
