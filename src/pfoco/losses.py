"""Loss families, loss schedules, and one-point gradient estimation.

A loss family holds k losses of one kind, one array row per loss:
:class:`LinearLosses` (f_i(x) = C[i] @ x), :class:`QuadraticLosses`
(alpha/2 ||x - B[i]||^2, one alpha > 0) and :class:`AbsDevLosses`
(|A[i] @ x - b[i]|).  It answers ``value(i, x)``, ``subgrad(i, x)`` and
the batched ``values(I, X)``, which runs the per-row dot kernel of
``@`` (``np.vecdot``), so it equals the one-row path bit for bit.
``bounds(R)`` declares ``G_f`` (subgradient norms) and ``M`` (|f|) over
the R-ball; ``alpha`` is the strong-convexity modulus (0 when merely
convex).  Learners size their step schedules from the declared values.

A :class:`LossSchedule` is a family plus each round's row: one row per
segment for a switching schedule, so a learner whose play is fixed for
a block evaluates each run of equal rows once, and one per round for an
iid schedule, drawn in one array operation.

Bandit learners never see subgradients; they play a perturbed point
z = x + delta*u with u uniform on the unit sphere and build the
one-point estimate g = (n/delta) f(z) u, whose expectation is the
gradient of the delta-smoothed loss (f averaged over the delta-ball).
The smoothed loss stays within delta*G_f of f and keeps its gradient
bound, which is what the regret accounting charges for the smoothing.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from .geometry import Vector, as_vector


def _matrix(X) -> np.ndarray:
    X = np.ascontiguousarray(X, dtype=np.float64)
    if X.ndim != 2 or not np.all(np.isfinite(X)):
        raise ValueError(f"loss rows must be a finite (k, n) array, got shape {X.shape}")
    return X


def _norms(X: np.ndarray) -> np.ndarray:
    """Row norms, each rounded as ``np.linalg.norm`` of that row."""
    return np.sqrt(np.vecdot(X, X))


class LinearLosses:
    """f_i(x) = C[i] @ x."""

    kind = "linear"
    alpha = 0.0

    def __init__(self, C):
        self.C = _matrix(C)
        self.shape = self.C.shape  # (k losses, dimension n)
        self._rows = None  # row views, listed on the first per-round call

    def bounds(self, R: float) -> tuple[float, float]:
        G_f = float(_norms(self.C).max())
        return G_f, R * G_f

    def _list_rows(self) -> list:
        # indexing a list of views beats making the view C[i] each round; a
        # plain attribute, as a cached_property lookup costs more per round
        self._rows = list(self.C)
        return self._rows

    def value(self, i: int, x: Vector) -> float:
        return float((self._rows or self._list_rows())[i] @ x)

    def subgrad(self, i: int, x: Vector) -> Vector:
        return (self._rows or self._list_rows())[i].copy()

    def values(self, I, X) -> np.ndarray:
        return np.vecdot(X, self.C[I])


class QuadraticLosses:
    """f_i(x) = alpha/2 * ||x - B[i]||^2, alpha > 0."""

    kind = "quadratic"

    def __init__(self, alpha: float, B):
        if not (alpha > 0):
            raise ValueError("alpha must be positive")
        self.alpha = float(alpha)
        self.B = _matrix(B)
        self.shape = self.B.shape
        self._rows = None

    def bounds(self, R: float) -> tuple[float, float]:
        # sup over the R-ball of alpha*||x - b|| is attained at x = -R b/||b||
        G_f = self.alpha * R + float(_norms(self.alpha * self.B).max())
        M = 0.5 * self.alpha * (R + float(_norms(self.B).max())) ** 2
        return G_f, M

    def _list_rows(self) -> list:
        self._rows = list(self.B)
        return self._rows

    def value(self, i: int, x: Vector) -> float:
        d = x - (self._rows or self._list_rows())[i]
        return 0.5 * self.alpha * float(d @ d)

    def subgrad(self, i: int, x: Vector) -> Vector:
        return self.alpha * (x - (self._rows or self._list_rows())[i])

    def values(self, I, X) -> np.ndarray:
        D = X - self.B[I]
        return 0.5 * self.alpha * np.vecdot(D, D)


class AbsDevLosses:
    """f_i(x) = |A[i] @ x - b[i]|; subgradient 0 at the kink."""

    kind = "absdev"
    alpha = 0.0

    def __init__(self, A, b):
        self.A = _matrix(A)
        self.b = np.asarray(b, dtype=np.float64)
        if self.b.shape != (self.A.shape[0],) or not np.all(np.isfinite(self.b)):
            raise ValueError("b must hold one finite offset per row of A")
        self.shape = self.A.shape
        self._rows = None

    def bounds(self, R: float) -> tuple[float, float]:
        G = _norms(self.A)
        return float(G.max()), float((R * G + np.abs(self.b)).max())

    def _list_rows(self) -> list:
        self._rows = list(zip(self.A, self.b.tolist()))
        return self._rows

    def value(self, i: int, x: Vector) -> float:
        a, b = (self._rows or self._list_rows())[i]
        return abs(float(a @ x) - b)

    def subgrad(self, i: int, x: Vector) -> Vector:
        a, b = (self._rows or self._list_rows())[i]
        return float(np.sign(float(a @ x) - b)) * a

    def values(self, I, X) -> np.ndarray:
        return np.abs(np.vecdot(X, self.A[I]) - self.b[I])


# ----------------------------------------------------------------------
# sampling and estimation


def sample_unit_sphere(rng: np.random.Generator, n: int, size: int | None = None) -> np.ndarray:
    """Uniform draw(s) on the unit sphere (normalized Gaussians); a single
    draw is a batch of one."""
    if size is None:
        return sample_unit_sphere(rng, n, 1)[0]
    G = rng.standard_normal((size, n))
    norms = np.linalg.norm(G, axis=1, keepdims=True)
    # a degenerate draw is measure-zero; route it to e_1 anyway
    bad = norms[:, 0] <= 1e-12
    if np.any(bad):
        G[bad] = 0.0
        G[bad, 0] = 1.0
        norms = np.linalg.norm(G, axis=1, keepdims=True)
    return G / norms


def sample_unit_ball(rng: np.random.Generator, n: int, size: int | None = None) -> np.ndarray:
    """Uniform draw(s) in the unit ball: sphere point times U^(1/n)."""
    if size is None:
        return sample_unit_ball(rng, n, 1)[0]
    S = sample_unit_sphere(rng, n, size)
    radii = rng.uniform(size=size) ** (1.0 / n)
    return S * radii[:, None]


def bandit_gradient_estimate(value: float, u: Vector, n: int, delta: float) -> Vector:
    """One-point estimate (n/delta) * f(x + delta*u) * u."""
    if not (delta > 0):
        raise ValueError("delta must be positive")
    return (n / delta) * value * np.asarray(u, dtype=np.float64)


# ----------------------------------------------------------------------
# schedules


@dataclasses.dataclass
class LossSchedule:
    """A fixed (oblivious) sequence of per-round losses: round t plays
    row ``rows[t - 1]`` of ``family``.  ``boundaries`` holds the 1-based
    first round of each segment; the harness aligns adaptive-regret
    intervals with them.  The declared bounds ``G_f`` and ``M`` cover
    every row.
    """

    family: LinearLosses | QuadraticLosses | AbsDevLosses
    rows: np.ndarray
    boundaries: list[int]
    G_f: float
    M: float

    def __post_init__(self):
        rows = np.asarray(self.rows)
        if rows.ndim != 1 or not rows.size:
            raise ValueError("rows must be a non-empty 1-D array of family rows")
        if rows.dtype.kind not in "iu":
            raise ValueError(f"rows must be an integer array, not {rows.dtype}")
        self.rows = rows.astype(np.intp, copy=False)
        k = self.family.shape[0]
        if self.rows.min() < 0 or self.rows.max() >= k:
            raise ValueError(f"rows index outside the {k}-row loss family")

    @property
    def T(self) -> int:
        return len(self.rows)

    @property
    def kind(self) -> str:
        return self.family.kind


def _schedule(family, rows, boundaries: list[int], R: float) -> LossSchedule:
    if not family.shape[0]:
        raise ValueError("T must be >= 1")
    return LossSchedule(family, rows, boundaries, *family.bounds(float(R)))


def _switching(segments, n: int, T: int, R: float, row, family) -> LossSchedule:
    """The schedule of ``family(rows)``, one row ``row(target)`` per segment."""
    out, lengths, boundaries = [], [], []
    pos = 1
    for length, target in segments:
        tv = as_vector(target)
        if tv.shape != (n,):
            raise ValueError("segment target has wrong dimension")
        if int(length) != length or length < 1:
            raise ValueError("segment lengths must be positive integers")
        out.append(row(tv))
        lengths.append(int(length))
        boundaries.append(pos)
        pos += int(length)
    if pos - 1 != T or not out:
        raise ValueError("segment lengths must sum to T >= 1")
    return _schedule(family(np.stack(out)), np.repeat(np.arange(len(out)), lengths), boundaries, R)


def make_iid_linear_schedule(T: int, n: int, R: float, rng: np.random.Generator, scale: float = 1.0) -> LossSchedule:
    """T independent linear losses with ||c_t|| = scale."""
    return _schedule(LinearLosses(scale * sample_unit_sphere(rng, n, T)), np.arange(T), [1], R)


def make_switching_linear_schedule(T: int, n: int, R: float, segments, gain: float = 1.0) -> LossSchedule:
    """Piecewise-constant linear losses.

    ``segments`` is a list of (length, target) pairs whose lengths sum
    to T; within a segment every loss is c = -gain * target/||target||,
    so the segment minimizer is the set's vertex in the target direction.
    """

    def row(tv):
        nrm = float(np.linalg.norm(tv))
        if nrm == 0:
            raise ValueError("segment target must be nonzero")
        return -gain * tv / nrm

    return _switching(segments, n, T, R, row, LinearLosses)


def make_iid_quadratic_schedule(
    T: int,
    n: int,
    R: float,
    rng: np.random.Generator,
    alpha: float = 1.0,
    spread: float = 0.2,
) -> LossSchedule:
    """T quadratics alpha/2 ||x - b_t||^2 with targets in a small ball."""
    return _schedule(QuadraticLosses(alpha, spread * sample_unit_ball(rng, n, T)), np.arange(T), [1], R)


def make_switching_quadratic_schedule(T: int, n: int, R: float, segments, alpha: float = 1.0) -> LossSchedule:
    """Piecewise-constant quadratics; each segment minimizes at its target."""
    return _switching(segments, n, T, R, lambda tv: tv, lambda B: QuadraticLosses(alpha, B))


def make_iid_absdev_schedule(T: int, n: int, R: float, rng: np.random.Generator, scale: float = 1.0) -> LossSchedule:
    """T independent |a_t @ x - b_t| losses (no certified comparator)."""
    A = scale * sample_unit_sphere(rng, n, T)
    b = rng.uniform(-0.5, 0.5, T) * scale * R
    return _schedule(AbsDevLosses(A, b), np.arange(T), [1], R)
