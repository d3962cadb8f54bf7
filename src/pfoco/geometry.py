"""Feasible sets with linear-optimization and separation oracle access.

Every set K here is convex and compact with a known circumradius R
(``K`` is contained in ``R * B``, the Euclidean ball of radius R).  All
sets except the probability-style simplex contain the origin with a
known interior margin r, so ``r * B <= K <= R * B``; the simplex reports
``r = 0`` and routines that need an interior origin refuse it.

Algorithms touch a set only through three operations:

* ``loo(d)``      -- linear optimization: a minimizer of ``d @ v`` over K,
  a vertex wherever the optimum is unique.
* ``separate(y)`` -- membership test, or a hyperplane separating y from K.
  A (k, n) block is answered in row order: the reply for its first
  refused row, or ``FEASIBLE`` when K holds every row.
* ``project(y)``  -- exact Euclidean projection.  A reference aid for
  tests, comparators and the exact-projection baseline ``ogd_wf``; it is
  never charged against oracle budgets.

``loo_many(D)`` and ``project_many(Y)`` answer one query per row of a
(k, n) array, for comparator scans.  The closed-form sets answer all
rows in one vectorized pass with the tie rules of ``loo``/``project``;
other sets (the polytope) loop over ``loo``/``project``.  Neither is a
learner's oracle call.

Use the module-level wrappers :func:`loo_query` and :func:`so_query`
when a call should be charged to an :class:`OracleCounters`.

Validation: every public oracle here (``loo``, ``separate``, ``project``
and the ``*_many`` forms) and every projection in :mod:`pfoco.projection`
checks its vector input once, on entry, and raises ``ValueError`` unless
it is a 1-D float64 array (or rows of one) of the set's dimension with
finite entries.  The learner loops call these same entry points: the
feasible stretches of :func:`pfoco.projection.cip_so_stretch` send each
chunk of rounds as one block through :func:`so_query`, checked as a
whole; there is no unchecked path.  The per-vector check
(:func:`as_vector`) is one ``dot`` and a finiteness test of the result,
about 1 us on an 8-vector; the entry-wise scan runs only when that sum
of squares is not finite.

Dependencies: the closed-form sets use NumPy alone.  The polytope's LOO
is an LP on SciPy's bundled HiGHS, loaded when the first
:class:`Polytope` is built, so importing this module loads no SciPy.
Even then only HiGHS's extension module is loaded, never all of
``scipy.optimize`` (the first exact projection imports it for ``nnls``,
about 0.5 s once per process): a fresh-interpreter polytope set-up (``import
pfoco``, parse, build a 60-face polytope in R^10) took 0.82 s with
``scipy.optimize`` and 0.27 s without it (raw medians of 12 pairs on a
2-core VM; an l1-ball set-up took 0.25 s).

Tie-breaking: closed-form sets resolve ties toward the lowest coordinate
index.  The polytope's answer is a function of the LP solver's optimal
basis; on directions with tied optima that basis can depend on earlier
queries to the same ``Polytope``, so only a fresh set repeats such an
answer.  Traces stay byte-deterministic per (config, seed) because each
run builds its own set.
"""

from __future__ import annotations

import dataclasses
import importlib.machinery
import importlib.util
import math
import os
import sys
from typing import Optional, TypeAlias

import numpy as np
from numpy.typing import NDArray

Vector: TypeAlias = NDArray[np.float64]

# Membership slack, in distance units, relative to the set scale.
MEMBERSHIP_RTOL = 1e-12


def as_vector(x) -> Vector:
    """Coerce to a finite, contiguous 1-D float64 array.

    Entries so large that their squares overflow (above about 1e154) are
    accepted, after NumPy's overflow warning.
    """
    v = np.ascontiguousarray(x, dtype=np.float64)
    if v.ndim != 1:
        raise ValueError(f"expected a 1-D vector, got shape {v.shape}")
    # a finite sum of squares proves every entry finite; only an overflow
    # or a non-finite entry needs the entry-wise scan
    if not math.isfinite(v.dot(v)) and not np.isfinite(v).all():
        raise ValueError("vector has non-finite entries")
    return v


def _is_block(point) -> bool:
    """Whether a separation query is a (k, n) block of points.  On an
    array this reads ``ndim`` directly: ``np.ndim`` costs about 0.4 us, a
    tenth of a 1-D query."""
    return point.ndim == 2 if isinstance(point, np.ndarray) else np.ndim(point) == 2


@dataclasses.dataclass
class OracleCounters:
    """Running totals of charged oracle calls."""

    loo_calls: int = 0
    so_calls: int = 0


class OracleContractError(RuntimeError):
    """An oracle loop overran its certified iteration ceiling.

    Raised only past a 10x safety margin over the proven ceiling, which
    cannot happen unless an oracle breaks its contract (e.g. a
    separation oracle that answers "feasible" inconsistently).  Carries
    a diagnostics dict for post-mortem inspection.
    """

    def __init__(self, message: str, **diagnostics):
        super().__init__(message)
        self.diagnostics = diagnostics


@dataclasses.dataclass(frozen=True)
class SeparationAnswer:
    """Separation oracle reply: membership, or a separating normal.

    When ``feasible`` is False, ``g`` satisfies ``(y - z) @ g > 0`` for
    every z in K, i.e. the hyperplane through the query's violated face
    strictly separates y from the set.  ``row`` is the index of the
    refused row y in a block query (0 for a single point).
    """

    feasible: bool
    g: Optional[Vector] = None
    row: int = 0


# the one "feasible" reply, shared by every set (the answer is frozen)
FEASIBLE = SeparationAnswer(True)


class FeasibleSet:
    """Base for oracle-accessible convex compact sets.

    Attributes
    ----------
    n : int
        Ambient dimension.
    R : float
        Circumradius: K is contained in the origin-centered ball R*B.
    r : float
        Interior margin: r*B is contained in K (0 when no interior
        origin is claimed, as for the simplex).
    center : Vector
        An analytically known member point.
    """

    n: int
    R: float
    r: float

    @property
    def center(self) -> Vector:
        return np.zeros(self.n)

    # -- oracle surface -------------------------------------------------
    def loo(self, direction: Vector) -> Vector:
        raise NotImplementedError

    def separate(self, point: Vector) -> SeparationAnswer:
        """Membership of ``point``, or a hyperplane separating it from K.

        A (k, n) block is answered as its rows asked one at a time, in
        order, up to the first refusal: that row's reply, its index in
        ``row``, or ``FEASIBLE`` when every row is in K.  Each row's
        reply has the bits of the 1-D call on it.  A vectorized block
        path may evaluate the rows after the first refusal too; their
        replies are never used.
        """
        raise NotImplementedError

    def project(self, point: Vector) -> Vector:
        raise NotImplementedError

    def loo_many(self, directions) -> np.ndarray:
        """``loo`` of every row of a (k, n) array."""
        return self._rowwise(self.loo, directions)

    def project_many(self, points) -> np.ndarray:
        """``project`` of every row of a (k, n) array."""
        return self._rowwise(self.project, points)

    # -- helpers --------------------------------------------------------
    def _first_refusal(self, point, separate_one) -> SeparationAnswer:
        """``separate`` by a 1-D rule ``separate_one`` taking a checked
        vector, looped over the rows of a block."""
        if not _is_block(point):
            return separate_one(self._check_dim(point))
        for i, y in enumerate(self._check_rows(point)):
            ans = separate_one(y)
            if not ans.feasible:
                return SeparationAnswer(False, ans.g, i)
        return FEASIBLE

    def _rowwise(self, oracle, rows) -> np.ndarray:
        M = self._check_rows(rows)
        out = np.empty_like(M)
        for i, row in enumerate(M):
            out[i] = oracle(row)
        return out

    def _check_rows(self, rows) -> np.ndarray:
        """Coerce to a finite, contiguous (k, n) float64 array."""
        M = np.ascontiguousarray(rows, dtype=np.float64)
        if M.ndim != 2 or M.shape[1] != self.n:
            raise ValueError(f"expected a (k, {self.n}) array, got shape {M.shape}")
        if not np.all(np.isfinite(M)):
            raise ValueError("array has non-finite entries")
        return M

    def contains(self, point: Vector) -> bool:
        # one point only: separate() would also take a block
        return self.separate(self._check_dim(point)).feasible

    def _tol(self) -> float:
        return MEMBERSHIP_RTOL * max(self.R, 1.0)

    def _check_dim(self, v: Vector) -> Vector:
        v = as_vector(v)
        if v.shape != (self.n,):
            raise ValueError(f"dimension mismatch: expected ({self.n},), got {v.shape}")
        return v


class Ball(FeasibleSet):
    """Euclidean ball of a given radius, centered at the origin."""

    def __init__(self, n: int, radius: float):
        if n < 1:
            raise ValueError("dimension must be >= 1")
        if not (radius > 0 and np.isfinite(radius)):
            raise ValueError("radius must be positive and finite")
        self.n = int(n)
        self.R = float(radius)
        self.r = float(radius)

    def loo(self, direction: Vector) -> Vector:
        d = self._check_dim(direction)
        nrm = float(np.linalg.norm(d))
        if nrm == 0.0:
            v = np.zeros(self.n)
            v[0] = self.R
            return v
        return (-self.R / nrm) * d

    def separate(self, point: Vector) -> SeparationAnswer:
        return self._first_refusal(point, self._separate_one)

    def _separate_one(self, y: Vector) -> SeparationAnswer:
        if math.sqrt(y.dot(y)) <= self.R + self._tol():
            return FEASIBLE
        return SeparationAnswer(False, y.copy())

    def project(self, point: Vector) -> Vector:
        y = self._check_dim(point)
        nrm = float(np.linalg.norm(y))
        if nrm <= self.R:
            return y.copy()
        return (self.R / nrm) * y

    def loo_many(self, directions) -> np.ndarray:
        D = self._check_rows(directions)
        nrm = np.linalg.norm(D, axis=1)
        zero = nrm == 0.0
        V = (-self.R / np.where(zero, 1.0, nrm))[:, None] * D
        V[zero] = 0.0
        V[zero, 0] = self.R
        return V

    def project_many(self, points) -> np.ndarray:
        Y = self._check_rows(points)
        nrm = np.linalg.norm(Y, axis=1)
        out = nrm > self.R
        X = Y.copy()
        X[out] = (self.R / nrm[out])[:, None] * Y[out]
        return X


class Box(FeasibleSet):
    """Axis-aligned box [lower, upper] containing the origin."""

    def __init__(self, lower, upper):
        lo = as_vector(lower)
        hi = as_vector(upper)
        if lo.shape != hi.shape:
            raise ValueError("lower/upper dimension mismatch")
        if np.any(lo > 0) or np.any(hi < 0):
            raise ValueError("box must contain the origin (lower <= 0 <= upper)")
        if np.any(lo >= hi):
            raise ValueError("box must have positive width in every coordinate")
        self.lower = lo
        self.upper = hi
        self.n = lo.shape[0]
        self.R = float(np.linalg.norm(np.maximum(np.abs(lo), np.abs(hi))))
        self.r = float(min(np.min(-lo), np.min(hi)))

    def loo(self, direction: Vector) -> Vector:
        d = self._check_dim(direction)
        # zero components go to the upper face (deterministic tie rule)
        return np.where(d > 0.0, self.lower, self.upper).astype(np.float64)

    def separate(self, point: Vector) -> SeparationAnswer:
        return self._first_refusal(point, self._separate_one)

    def _separate_one(self, y: Vector) -> SeparationAnswer:
        over = y - self.upper
        under = self.lower - y
        viol = np.concatenate([over, under])
        j = int(np.argmax(viol))
        if viol[j] <= self._tol():
            return FEASIBLE
        g = np.zeros(self.n)
        if j < self.n:
            g[j] = 1.0  # above the upper face
        else:
            g[j - self.n] = -1.0  # below the lower face
        return SeparationAnswer(False, g)

    def project(self, point: Vector) -> Vector:
        y = self._check_dim(point)
        return np.clip(y, self.lower, self.upper)

    def loo_many(self, directions) -> np.ndarray:
        return np.where(self._check_rows(directions) > 0.0, self.lower, self.upper)

    def project_many(self, points) -> np.ndarray:
        return np.clip(self._check_rows(points), self.lower, self.upper)


def simplex_project_sorted(y, s: float) -> np.ndarray:
    """Project onto {x >= 0, sum(x) = s} by the sort-and-threshold rule;
    a 2-D ``y`` is projected row by row."""
    n = y.shape[-1]
    u = np.sort(y, axis=-1)[..., ::-1]
    css = np.cumsum(u, axis=-1) - s
    cond = u - css / np.arange(1, n + 1) > 0
    # rho: the last index where cond holds (cond[..., 0] always does for s > 0)
    rho = n - np.argmax(cond[..., ::-1], axis=-1)[..., None]
    theta = np.take_along_axis(css, rho - 1, axis=-1) / rho
    return np.maximum(y - theta, 0.0)


class Simplex(FeasibleSet):
    """Scaled probability simplex {x >= 0, sum(x) = scale}.

    Does not contain the origin, so r = 0 and routines requiring an
    interior origin must not be pointed at it.
    """

    def __init__(self, n: int, scale: float = 1.0):
        if n < 1:
            raise ValueError("dimension must be >= 1")
        if not (scale > 0 and np.isfinite(scale)):
            raise ValueError("scale must be positive and finite")
        self.n = int(n)
        self.scale = float(scale)
        self.R = float(scale)
        self.r = 0.0

    @property
    def center(self) -> Vector:
        return np.full(self.n, self.scale / self.n)

    def loo(self, direction: Vector) -> Vector:
        d = self._check_dim(direction)
        j = int(np.argmin(d))  # lowest index on ties
        v = np.zeros(self.n)
        v[j] = self.scale
        return v

    def separate(self, point: Vector) -> SeparationAnswer:
        return self._first_refusal(point, self._separate_one)

    def _separate_one(self, y: Vector) -> SeparationAnswer:
        tol = self._tol()
        # candidate violations, all in distance units
        j = int(np.argmin(y))
        neg = -float(y[j])
        total = float(np.sum(y)) - self.scale
        rt = np.sqrt(self.n)
        worst = max(neg, total / rt, -total / rt)
        if worst <= tol:
            return FEASIBLE
        g = np.zeros(self.n)
        if neg >= worst:
            g[j] = -1.0
        elif total > 0:
            g = np.full(self.n, 1.0 / rt)
        else:
            g = np.full(self.n, -1.0 / rt)
        return SeparationAnswer(False, g)

    def project(self, point: Vector) -> Vector:
        y = self._check_dim(point)
        return simplex_project_sorted(y, self.scale)

    def loo_many(self, directions) -> np.ndarray:
        D = self._check_rows(directions)
        V = np.zeros_like(D)
        V[np.arange(len(D)), np.argmin(D, axis=1)] = self.scale  # lowest index on ties
        return V

    def project_many(self, points) -> np.ndarray:
        return simplex_project_sorted(self._check_rows(points), self.scale)


class L1Ball(FeasibleSet):
    """Cross-polytope {x : ||x||_1 <= radius}."""

    def __init__(self, n: int, radius: float):
        if n < 1:
            raise ValueError("dimension must be >= 1")
        if not (radius > 0 and np.isfinite(radius)):
            raise ValueError("radius must be positive and finite")
        self.n = int(n)
        self.R = float(radius)
        self.r = float(radius) / float(np.sqrt(n))

    def loo(self, direction: Vector) -> Vector:
        d = self._check_dim(direction)
        j = int(np.argmax(np.abs(d)))  # lowest index on ties
        v = np.zeros(self.n)
        if d[j] == 0.0:
            v[0] = self.R
        else:
            v[j] = -self.R * np.sign(d[j])
        return v

    def separate(self, point: Vector) -> SeparationAnswer:
        bound = self.R + self._tol()
        if _is_block(point):
            Y = self._check_rows(point)
            # each contiguous row is summed pairwise, as the 1-D sum is
            refused = np.abs(Y).sum(axis=1) > bound
            if not refused.any():
                return FEASIBLE
            i = int(refused.argmax())
            return SeparationAnswer(False, np.sign(Y[i]), i)
        y = self._check_dim(point)
        if float(np.abs(y).sum()) <= bound:
            return FEASIBLE
        # z @ sign(y) <= ||z||_1 <= R < ||y||_1 = y @ sign(y) for all z in K
        return SeparationAnswer(False, np.sign(y))

    def project(self, point: Vector) -> Vector:
        y = self._check_dim(point)
        if float(np.sum(np.abs(y))) <= self.R:
            return y.copy()
        w = simplex_project_sorted(np.abs(y), self.R)
        return np.sign(y) * w

    def loo_many(self, directions) -> np.ndarray:
        D = self._check_rows(directions)
        rows = np.arange(len(D))
        j = np.argmax(np.abs(D), axis=1)  # lowest index on ties
        dj = D[rows, j]
        V = np.zeros_like(D)
        V[rows, j] = -self.R * np.sign(dj)
        V[dj == 0.0, 0] = self.R
        return V

    def project_many(self, points) -> np.ndarray:
        Y = self._check_rows(points)
        X = Y.copy()
        out = np.sum(np.abs(Y), axis=1) > self.R
        X[out] = np.sign(Y[out]) * simplex_project_sorted(np.abs(Y[out]), self.R)
        return X


def _load_highs():
    """SciPy's bundled HiGHS extension, ``scipy.optimize._highspy._core``,
    loaded without ``scipy/optimize/__init__.py`` (linalg, sparse, fft,
    linprog and more, about 0.3-0.6 s cold, for a 10 ms extension).

    ``import scipy`` runs SciPy's own start-up.  The module goes into
    ``sys.modules`` under its full name, so a later ``import
    scipy.optimize`` reuses this instance, and one already loaded there
    is returned as it is.
    """
    import scipy

    name = "scipy.optimize._highspy._core"
    if name in sys.modules:
        return sys.modules[name]
    path = [os.path.join(p, "optimize", "_highspy") for p in scipy.__path__]
    spec = importlib.machinery.PathFinder.find_spec(name, path)
    if spec is None:
        raise ImportError(f"HiGHS extension {name} not found in {path} (scipy {scipy.__version__})")
    highs = importlib.util.module_from_spec(spec)
    sys.modules[name] = highs
    spec.loader.exec_module(highs)
    return highs


class Polytope(FeasibleSet):
    """Bounded intersection of halfspaces {x : A x <= b} with 0 interior.

    Rows are normalized at construction so each ``a_i`` is a unit vector;
    then constraint violations are Euclidean distances, ``r = min_i b_i``,
    and the separation oracle returns the unit normal of the most
    violated face.  The LOO runs on one HiGHS model per polytope: each
    query changes only the objective and restarts from the last optimal
    basis.  Boundedness is verified (and the circumradius bound R
    computed) by 2n coordinate-range LPs on that model at construction.
    HiGHS is loaded when the first polytope is built, after its input
    checks; closed-form sets never load it.  Only its extension module,
    ``scipy.optimize._highspy._core``, is loaded (see :func:`_load_highs`),
    which takes a polytope's cold set-up from about 0.8 s to 0.27 s.
    The exact projection is one least-distance solve by
    ``scipy.optimize.nnls`` (see :meth:`project`).
    """

    #: dual-gap certificate threshold for project(), in units of
    #: max(1, ||x - y||) * R: the gap's rounding grows with both
    PROJECT_GAP_TOL = 1e-10

    def __init__(self, A, b):
        A = np.ascontiguousarray(A, dtype=np.float64)
        bv = as_vector(b)
        if A.ndim != 2 or A.shape[0] != bv.shape[0]:
            raise ValueError("A must be (m, n) with b of length m")
        if not np.all(np.isfinite(A)):
            raise ValueError("A has non-finite entries")
        norms = np.linalg.norm(A, axis=1)
        if np.any(norms == 0):
            raise ValueError("zero rows in A are not allowed")
        self.A = A / norms[:, None]
        self.b = bv / norms
        if np.any(self.b <= 0):
            raise ValueError("origin must be strictly interior (all b_i > 0 after row normalization)")
        self.n = A.shape[1]
        self.m = A.shape[0]
        self.r = float(np.min(self.b))
        self._cols = np.arange(self.n, dtype=np.int32)
        self._eye = np.eye(self.n)
        self._highs = self._build_lp()
        self.R = self._bounding_radius()
        # every member minimizes d = 0; answer with the -e_1 minimizer found
        # here, so the answer does not depend on later queries
        self._zero_answer = self.loo(-self._eye[0])

    def _build_lp(self):
        """One HiGHS model min c @ x s.t. A x <= b, x free, re-solved
        from its previous basis after each change of c."""
        highs = _load_highs()
        self._optimal = highs.HighsModelStatus.kOptimal
        m, n, inf = self.m, self.n, highs.kHighsInf
        h = highs._Highs()
        h.setOptionValue("output_flag", False)
        h.setOptionValue("presolve", "off")
        h.setOptionValue("simplex_strategy", 4)  # primal simplex keeps the old basis feasible
        starts = np.arange(0, m * n, n, dtype=np.int32)
        columns = np.tile(np.arange(n, dtype=np.int32), m)
        added = (
            h.addVars(n, np.full(n, -inf), np.full(n, inf)),
            h.addRows(m, np.full(m, -inf), self.b, m * n, starts, columns, self.A.ravel()),
        )
        if highs.HighsStatus.kError in added:
            raise ValueError("HiGHS rejected the polytope LP")
        return h

    def _solve(self, c: Vector) -> Vector:
        """Minimizer of c @ x over K read from the optimal basis.

        The solver's own primal values depend on the warm-start path in
        the last bits; the basic solution does not.  Every non-basic row
        sits on its face (its only finite bound) and every non-basic free
        column at 0, which gives one non-singular n x n system.
        """
        h = self._highs
        h.changeColsCost(self.n, self._cols, c)
        h.run()
        status = h.getModelStatus()
        if status != self._optimal:
            raise RuntimeError(f"LP solve failed with status {h.modelStatusToString(status)}")
        # basic variable k >= 0 is column k, k < 0 is row -1 - k
        _, basic = h.getBasicVariables()
        tight = np.ones(self.m, dtype=bool)
        tight[-1 - basic[basic < 0]] = False
        cols = basic[basic >= 0]
        if cols.size == self.n:  # every column basic: exactly n rows tight
            return np.linalg.solve(self.A[tight], self.b[tight])
        fixed = np.ones(self.n, dtype=bool)
        fixed[cols] = False
        lhs = np.concatenate([self.A[tight], self._eye[fixed]])
        rhs = np.concatenate([self.b[tight], np.zeros(int(fixed.sum()))])
        return np.linalg.solve(lhs, rhs)

    def _bounding_radius(self) -> float:
        lo = np.empty(self.n)
        hi = np.empty(self.n)
        eye = self._eye
        try:
            for i in range(self.n):
                lo[i] = self._solve(eye[i])[i]
                hi[i] = self._solve(-eye[i])[i]
        except RuntimeError as e:
            raise ValueError("polytope is unbounded or numerically degenerate") from e
        return float(np.sqrt(np.sum(np.maximum(lo**2, hi**2))))

    def loo(self, direction: Vector) -> Vector:
        """A minimizer of ``direction @ v`` over K: a vertex, except on
        tied optima where a non-basic free column can leave the answer
        inside the optimal face."""
        d = self._check_dim(direction)
        if not np.any(d):
            return self._zero_answer.copy()
        v = self._solve(d)
        # pull the basic solution inside, to within a few ulp: max(A v - b)
        # can stay ~2e-16 above 0, which the 1e-12*R membership tolerance
        # covers.  Shrinking toward the interior origin costs ~1 ulp
        scale = float(np.max(self.A @ v / self.b))
        if scale > 1.0:
            v = v / scale
        return v

    def separate(self, point: Vector) -> SeparationAnswer:
        return self._first_refusal(point, self._separate_one)

    def _separate_one(self, y: Vector) -> SeparationAnswer:
        viol = self.A @ y - self.b
        j = int(np.argmax(viol))
        if viol[j] <= self._tol():
            return FEASIBLE
        return SeparationAnswer(False, self.A[j].copy())

    def project(self, point: Vector) -> Vector:
        """Least-distance solve, certified by a dual-gap check.

        With z = x - y, the projection minimizes ||z|| s.t. A z <= b - A y.
        The u >= 0 minimizing ||E u - e_{n+1}||, E = [-A^T; h^T] with
        h = (A y - b) / max|A y - b|, picks the faces with u > 0 (Lawson &
        Hanson, *Solving Least Squares Problems*, ch. 23).  Scaling h
        changes no face in exact arithmetic; unscaled, a point 10^5 R out
        gives E a row 10^5 times the others, and ``nnls`` chose wrong faces
        for about 1 point in 200 there.  x is y projected onto the chosen
        faces by ``lstsq`` (which also covers more than n faces), shrunk
        into K.  A second ``lstsq`` pass from that x puts it on the faces
        to rounding (from points up to 100 away, dual gaps up to 9e-11
        after one pass, 3e-14 after two).  x is accepted only if the gap
        certificate (x - v) @ (x - y) with v = loo(x - y) is at most
        PROJECT_GAP_TOL * max(1, ||x - y||) * R.  The rounding in that
        product grows with ||x - y|| and ||x - v|| <= 2R, so a tolerance
        fixed in absolute terms refused points about 10^5 R out on
        rounding alone.  ``nnls`` is imported here, so only a process's
        first projection loads ``scipy.optimize``.
        """
        from scipy.optimize import nnls

        y = self._check_dim(point)
        if self.separate(y).feasible:
            return y.copy()
        h = self.A @ y - self.b
        E = np.vstack([-self.A.T, h / np.abs(h).max()])
        e = np.zeros(self.n + 1)
        e[-1] = 1.0
        faces = nnls(E, e)[0] > 0.0
        A, b = self.A[faces], self.b[faces]
        x = y
        for _ in range(2):
            x = x - np.linalg.lstsq(A, A @ x - b, rcond=None)[0]
        scale = float(np.max(self.A @ x / self.b))
        if scale > 1.0:
            x = x / scale
        d = x - y
        gap = float((x - self.loo(d)) @ d)
        tol = self.PROJECT_GAP_TOL * max(1.0, math.sqrt(d.dot(d))) * self.R
        if gap > tol:
            raise RuntimeError(f"projection failed to certify: dual gap {gap:.3g} above tolerance {tol:.3g}")
        return x


class SqueezedSetView(FeasibleSet):
    """The set ``factor * K`` for an existing K, sharing its oracles.

    Oracle answers are derived from the base set: vertices scale by the
    factor, membership of y in factor*K is membership of y/factor in K,
    and a base separator for y/factor separates y from the view (for
    z in factor*K: (y - z) @ g = factor * (y/factor - z/factor) @ g > 0).
    """

    def __init__(self, base: FeasibleSet, factor: float):
        if not (0.0 < factor <= 1.0):
            raise ValueError("squeeze factor must be in (0, 1]")
        if isinstance(base, SqueezedSetView):
            factor = factor * base.factor
            base = base.base
        self.base = base
        self.factor = float(factor)
        self.n = base.n
        self.R = factor * base.R
        self.r = factor * base.r

    @property
    def center(self) -> Vector:
        return self.factor * self.base.center

    def loo(self, direction: Vector) -> Vector:
        d = self._check_dim(direction)
        return self.factor * self.base.loo(d)

    def separate(self, point: Vector) -> SeparationAnswer:
        # a block goes to the base as one block: the division is elementwise
        y = self._check_rows(point) if _is_block(point) else self._check_dim(point)
        return self.base.separate(y / self.factor)

    def project(self, point: Vector) -> Vector:
        y = self._check_dim(point)
        return self.factor * self.base.project(y / self.factor)

    def loo_many(self, directions) -> np.ndarray:
        return self.factor * self.base.loo_many(directions)

    def project_many(self, points) -> np.ndarray:
        return self.factor * self.base.project_many(self._check_rows(points) / self.factor)


# ----------------------------------------------------------------------
# counted oracle surface


def loo_query(set_: FeasibleSet, direction: Vector, counters: Optional[OracleCounters] = None) -> Vector:
    """Linear-optimization oracle call, charged to ``counters``."""
    if counters is not None:
        counters.loo_calls += 1
    return set_.loo(direction)


def so_query(set_: FeasibleSet, point: Vector, counters: Optional[OracleCounters] = None) -> SeparationAnswer:
    """Separation oracle call, charged to ``counters``.

    A single point is charged one call before it is asked, as
    :func:`loo_query` charges, so a point refused by the input check
    still costs one.  A (k, n) block of points is one ``separate`` call
    on the block (see :meth:`FeasibleSet.separate`), charged after it
    returns exactly what k calls made in row order and stopped at the
    first refusal would be: ``row + 1`` calls on a refusal, k when every
    row is accepted.  Rows after the refusal may be evaluated in the same
    array operation, but they are never counted or used.  A block that
    fails the input check is charged nothing.
    """
    if counters is None:
        return set_.separate(point)
    if not _is_block(point):
        counters.so_calls += 1
        return set_.separate(point)
    ans = set_.separate(point)
    counters.so_calls += len(point) if ans.feasible else ans.row + 1
    return ans


def exact_project(set_: FeasibleSet, point: Vector) -> Vector:
    """Euclidean projection. Reference aid; never charged to budgets."""
    return set_.project(point)


def squeeze(set_: FeasibleSet, factor: float) -> FeasibleSet:
    """View of ``factor * K``; nested views collapse to one factor."""
    if factor == 1.0:
        return set_
    return SqueezedSetView(set_, factor)
