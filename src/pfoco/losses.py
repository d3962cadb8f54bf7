"""Loss oracles, loss schedules, and one-point gradient estimation.

Losses declare their own bounds at construction, computed analytically
from their coefficients and the domain radius R they will be played on:
``G_f`` bounds subgradient norms over the R-ball, ``M`` bounds |f|,
``alpha`` is the strong-convexity modulus (0 when merely convex).
Learners size their step schedules from these declared values.

A :class:`LossSchedule` stores the distinct losses once, in a table,
and an int array giving each round its table row.  A switching schedule
plays one loss for a whole segment, so its table holds one loss per
segment and a T-round schedule costs a few objects, not T; a learner
whose play and gradient point are fixed for a block evaluates each run
of equal rows once.  An iid schedule has one row per round.

Bandit learners never see subgradients; they play a perturbed point
z = x + delta*u with u uniform on the unit sphere and build the
one-point estimate g = (n/delta) f(z) u, whose expectation is the
gradient of the delta-smoothed loss (f averaged over the delta-ball).
The smoothed loss stays within delta*G_f of f and keeps its gradient
bound, which is what the regret accounting charges for the smoothing.
"""

from __future__ import annotations

import dataclasses
from typing import Optional, Sequence

import numpy as np

from .geometry import Vector, as_vector


class LinearLoss:
    """f(x) = c @ x."""

    alpha = 0.0

    def __init__(self, c, R: float):
        self.c = as_vector(c)
        self.n = self.c.shape[0]
        self.R = float(R)
        self.G_f = float(np.linalg.norm(self.c))
        self.M = self.R * self.G_f

    def value(self, x: Vector) -> float:
        return float(self.c @ x)

    def subgrad(self, x: Vector) -> Vector:
        return self.c.copy()

    def values_batch(self, X) -> np.ndarray:
        return X @ self.c


class QuadraticLoss:
    """f(x) = alpha/2 * ||x - b||^2 + c @ x, alpha > 0."""

    def __init__(self, alpha: float, b, R: float, c=None):
        if not (alpha > 0):
            raise ValueError("alpha must be positive")
        self.alpha = float(alpha)
        self.b = as_vector(b)
        self.n = self.b.shape[0]
        self.c = np.zeros(self.n) if c is None else as_vector(c)
        if self.c.shape != self.b.shape:
            raise ValueError("b/c dimension mismatch")
        self.R = float(R)
        # sup over the R-ball of ||alpha*(x - b) + c|| is attained at
        # x aligned with the constant part
        self.G_f = self.alpha * self.R + float(np.linalg.norm(self.alpha * self.b - self.c))
        self.M = 0.5 * self.alpha * (self.R + float(np.linalg.norm(self.b))) ** 2 + self.R * float(
            np.linalg.norm(self.c)
        )

    def value(self, x: Vector) -> float:
        d = x - self.b
        return 0.5 * self.alpha * float(d @ d) + float(self.c @ x)

    def subgrad(self, x: Vector) -> Vector:
        return self.alpha * (x - self.b) + self.c

    def values_batch(self, X) -> np.ndarray:
        D = X - self.b
        return 0.5 * self.alpha * np.sum(D * D, axis=1) + X @ self.c


class AbsDevLoss:
    """f(x) = |a @ x - b|; subgradient 0 at the kink."""

    alpha = 0.0

    def __init__(self, a, b: float, R: float):
        self.a = as_vector(a)
        self.b = float(b)
        self.n = self.a.shape[0]
        self.R = float(R)
        self.G_f = float(np.linalg.norm(self.a))
        self.M = self.R * self.G_f + abs(self.b)

    def value(self, x: Vector) -> float:
        return abs(float(self.a @ x) - self.b)

    def subgrad(self, x: Vector) -> Vector:
        return float(np.sign(float(self.a @ x) - self.b)) * self.a

    def values_batch(self, X) -> np.ndarray:
        return np.abs(X @ self.a - self.b)


# ----------------------------------------------------------------------
# sampling and estimation


def sample_unit_sphere(rng: np.random.Generator, n: int, size: Optional[int] = None):
    """Uniform draw(s) on the unit sphere (normalized Gaussians)."""
    if size is None:
        while True:
            g = rng.standard_normal(n)
            nrm = float(np.linalg.norm(g))
            if nrm > 1e-12:
                return g / nrm
    G = rng.standard_normal((size, n))
    norms = np.linalg.norm(G, axis=1, keepdims=True)
    # a degenerate draw is measure-zero; route it to e_1 anyway
    bad = norms[:, 0] <= 1e-12
    if np.any(bad):
        G[bad] = 0.0
        G[bad, 0] = 1.0
        norms = np.linalg.norm(G, axis=1, keepdims=True)
    return G / norms


def sample_unit_ball(rng: np.random.Generator, n: int, size: Optional[int] = None):
    """Uniform draw(s) in the unit ball: sphere point times U^(1/n)."""
    if size is None:
        return sample_unit_sphere(rng, n) * rng.uniform() ** (1.0 / n)
    S = sample_unit_sphere(rng, n, size)
    radii = rng.uniform(size=size) ** (1.0 / n)
    return S * radii[:, None]


def bandit_gradient_estimate(value: float, u: Vector, n: int, delta: float) -> Vector:
    """One-point estimate (n/delta) * f(x + delta*u) * u."""
    if not (delta > 0):
        raise ValueError("delta must be positive")
    return (n / delta) * value * np.asarray(u, dtype=np.float64)


def smoothed_value_mc(loss, x: Vector, delta: float, samples: int, rng: np.random.Generator) -> tuple[float, float]:
    """Monte-Carlo estimate of the delta-ball-smoothed value at x.

    Returns (estimate, standard error).
    """
    if samples < 2:
        raise ValueError("need at least 2 samples for a standard error")
    U = sample_unit_ball(rng, loss.n, samples)
    vals = loss.values_batch(np.asarray(x) + delta * U)
    return float(np.mean(vals)), float(np.std(vals, ddof=1) / np.sqrt(samples))


# ----------------------------------------------------------------------
# schedules


@dataclasses.dataclass
class LossSchedule:
    """A fixed (oblivious) sequence of per-round losses, stored as a
    table of distinct losses plus the table row each round plays.

    ``rows[t - 1]`` is the index into ``table`` of round t's loss.  A
    switching schedule repeats one loss for a whole segment, so its
    table has one row per segment and learners can evaluate a run of
    equal rows once; an iid schedule has one row per round.
    ``boundaries`` holds the 1-based first round of each segment; the
    harness aligns adaptive-regret intervals with them.  Aggregate
    declared bounds cover every row.
    """

    table: list
    rows: np.ndarray
    boundaries: list[int]
    kind: str
    G_f: float
    M: float
    alpha_min: float

    def __post_init__(self):
        self.rows = np.asarray(self.rows, dtype=np.intp)
        if self.rows.ndim != 1 or not self.rows.size:
            raise ValueError("rows must be a non-empty 1-D array of table indices")
        if self.rows.min() < 0 or self.rows.max() >= len(self.table):
            raise ValueError(f"rows index outside the {len(self.table)}-row loss table")

    @property
    def T(self) -> int:
        return len(self.rows)

    def loss_at(self, t: int):
        """1-based round index, matching the play/regret conventions."""
        return self.table[self.rows[t - 1]]

    def linear_coefficients(self) -> np.ndarray:
        """(T, n) coefficients, one row per round."""
        if self.kind != "linear":
            raise ValueError("schedule is not all-linear")
        return np.stack([f.c for f in self.table])[self.rows]

    def quadratic_parts(self) -> tuple[float, np.ndarray, np.ndarray]:
        """Common alpha, target matrix, linear-term matrix (one row per round)."""
        if self.kind != "quadratic":
            raise ValueError("schedule is not all-quadratic")
        alphas = {f.alpha for f in self.table}
        if len(alphas) != 1:
            raise ValueError("comparators need a common curvature")
        B = np.stack([f.b for f in self.table])
        C = np.stack([f.c for f in self.table])
        return self.table[0].alpha, B[self.rows], C[self.rows]


def _schedule(table: Sequence, rows, kind: str, boundaries: list[int]) -> LossSchedule:
    if not len(table):
        raise ValueError("T must be >= 1")
    return LossSchedule(
        table=list(table),
        rows=rows,
        boundaries=boundaries,
        kind=kind,
        G_f=max(f.G_f for f in table),
        M=max(f.M for f in table),
        alpha_min=min(f.alpha for f in table),
    )


def _iid(table: Sequence, kind: str) -> LossSchedule:
    return _schedule(table, np.arange(len(table)), kind, [1])


def _switching(segments, n: int, make, kind: str, T: int) -> LossSchedule:
    """One table row per segment, built by ``make(target)``; round rows
    repeat each segment's row over its length."""
    table, lengths, boundaries = [], [], []
    pos = 1
    for length, target in segments:
        tv = as_vector(target)
        if tv.shape != (n,):
            raise ValueError("segment target has wrong dimension")
        if int(length) != length or length < 1:
            raise ValueError("segment lengths must be positive integers")
        table.append(make(tv))
        lengths.append(int(length))
        boundaries.append(pos)
        pos += int(length)
    if pos - 1 != T:
        raise ValueError("segment lengths must sum to T")
    return _schedule(table, np.repeat(np.arange(len(table)), lengths), kind, boundaries)


def make_iid_linear_schedule(T: int, n: int, R: float, rng: np.random.Generator, scale: float = 1.0) -> LossSchedule:
    """T independent linear losses with ||c_t|| = scale."""
    if T < 1:
        raise ValueError("T must be >= 1")
    C = scale * sample_unit_sphere(rng, n, T)
    return _iid([LinearLoss(c, R) for c in C], "linear")


def make_switching_linear_schedule(T: int, n: int, R: float, segments, gain: float = 1.0) -> LossSchedule:
    """Piecewise-constant linear losses.

    ``segments`` is a list of (length, target) pairs whose lengths sum
    to T; within a segment every loss is c = -gain * target/||target||,
    so the segment minimizer is the set's vertex in the target direction.
    """

    def make(tv):
        nrm = float(np.linalg.norm(tv))
        if nrm == 0:
            raise ValueError("segment target must be nonzero")
        return LinearLoss(-gain * tv / nrm, R)

    return _switching(segments, n, make, "linear", T)


def make_iid_quadratic_schedule(
    T: int,
    n: int,
    R: float,
    rng: np.random.Generator,
    alpha: float = 1.0,
    spread: float = 0.2,
) -> LossSchedule:
    """T quadratics alpha/2 ||x - b_t||^2 with targets in a small ball."""
    B = spread * sample_unit_ball(rng, n, T)
    return _iid([QuadraticLoss(alpha, b, R) for b in B], "quadratic")


def make_switching_quadratic_schedule(T: int, n: int, R: float, segments, alpha: float = 1.0) -> LossSchedule:
    """Piecewise-constant quadratics; each segment minimizes at its target."""
    return _switching(segments, n, lambda tv: QuadraticLoss(alpha, tv, R), "quadratic", T)


def make_iid_absdev_schedule(T: int, n: int, R: float, rng: np.random.Generator, scale: float = 1.0) -> LossSchedule:
    """T independent |a_t @ x - b_t| losses (no certified comparator)."""
    A = scale * sample_unit_sphere(rng, n, T)
    bs = rng.uniform(-0.5, 0.5, T) * scale * R
    return _iid([AbsDevLoss(a, b, R) for a, b in zip(A, bs)], "absdev")
