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
  refused row, or ``FEASIBLE`` when K holds every row.  A single point
  is a block of one: each set states its membership rule once, as one
  vectorized test of every row of a block (``_refused``) and the normal
  of one refused row (``_normal``).
* ``project(y)``  -- exact Euclidean projection.  A reference aid for
  tests, comparators and the exact-projection baseline ``ogd_wf``; it is
  never charged against oracle budgets.

``loo_many(D)`` and ``project_many(Y)`` answer one query per row of a
(k, n) array, for comparator scans.  The closed-form sets answer all
rows in one vectorized pass with the tie rules of ``loo``/``project``,
each row with the bits the 1-D call gives it (the ball's row norms are
``sqrt(vecdot)``, each rounded as ``sqrt(dot)`` of its row).
The polytope answers ``loo`` by a primal simplex in NumPy and
``loo_many`` by one vectorized pass of it over the rows, and certifies
each optimal vertex; what neither can certify (ties, zero rows,
degenerate vertices) is settled by the same 1-D simplex under Bland's
rule, and every row has the bits ``loo`` gives it.  Its
``project_many`` loops over ``project``, certified by KKT multipliers,
not by an LOO.  Neither batched form is a learner's oracle call.

Use the module-level wrappers :func:`loo_query` and :func:`so_query`
when a call should be charged to an :class:`OracleCounters`.

Validation: every public oracle here (``loo``, ``separate``, ``project``
and the ``*_many`` forms) and every projection in :mod:`pfoco.projection`
checks its vector input once, on entry, and raises ``ValueError`` unless
it is a 1-D float64 array (or rows of one) of the set's dimension with
finite entries.  The learner loops call these same entry points: the
chunk pass of :func:`pfoco.learners.so_run` sends each chunk of rounds
as one block through :func:`so_query`, checked as a whole, for every
learner kind and feedback; there is no unchecked path.  The per-vector
check (:func:`as_vector`) is one ``dot`` and a finiteness test of the
result, about 1 us on an 8-vector; the entry-wise scan runs only when
that sum of squares is not finite.  A block is scanned entry by entry
(``np.isfinite``), since a NumPy sum of its entries warns on overflow;
both checks accept and refuse the same entries.

Dependencies: the sets, the polytope's LOO included, use NumPy alone,
so importing this module, building a polytope and asking its LOO load
no SciPy.  The polytope's exact projection imports
``scipy.optimize.nnls`` on its first call (about 0.5 s once per
process).

Tie-breaking: closed-form sets resolve ties toward the lowest coordinate
index.  The polytope's answer is a function of the direction alone: a
certified answer is the unique optimal vertex, and any other direction
is settled by a Bland walk from the vertex found at construction, so
no earlier query to the same ``Polytope`` can change an answer.
"""

from __future__ import annotations

import dataclasses
import itertools
import math
from typing import Optional, TypeAlias

import numpy as np
from numpy.linalg import _umath_linalg
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


def _peak(x: np.ndarray):
    """``x.max()`` as ``x[x.argmax()]``, at a fraction of a small
    reduction's fixed cost: the same value, NaN included, up to the sign
    of a zero."""
    return x[x.argmax()]


def _raise_singular(err, flag):
    raise np.linalg.LinAlgError("Singular matrix")


def _solve_and_inverse(A: np.ndarray, b: Vector) -> tuple[Vector, np.ndarray]:
    """``np.linalg.solve(A, b)`` and ``np.linalg.inv(A)`` of one square
    float64 block, bit for bit: the two LAPACK gufuncs those wrappers
    call, in one ``errstate`` that raises ``LinAlgError`` on a singular
    A as theirs does, without the wrappers' per-call type and shape
    checks (about 10 of the 20 us the pair costs on a 10 x 10 block).
    ``numpy.linalg._umath_linalg`` is a private NumPy module, checked on
    NumPy 2.4; pyproject.toml bounds NumPy below 3 for it."""
    with np.errstate(call=_raise_singular, invalid="call", over="ignore", divide="ignore", under="ignore"):
        return _umath_linalg.solve1(A, b, signature="dd->d"), _umath_linalg.inv(A, signature="d->d")


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

        A single point is a block of one.  A (k, n) block is answered as
        its rows asked one at a time, in order, up to the first refusal:
        that row's ``_normal``, its index in ``row``, or ``FEASIBLE`` when
        every row is in K.  ``_refused`` tests every row in one array
        operation, each row with the same bits alone or in a block, so
        the rows after the first refusal are tested too; their replies
        are never used.  Each concrete set binds this method in its own
        namespace (``separate = FeasibleSet.separate``), where tracers
        that wrap a class's own methods find it.
        """
        Y = self._check_rows(point) if _is_block(point) else self._check_dim(point)[None]
        # a list: ndarray.any() alone costs about what a 1-row test does
        refused = self._refused(Y).tolist()
        if True not in refused:
            return FEASIBLE
        i = refused.index(True)
        return SeparationAnswer(False, self._normal(Y[i]), i)

    def _refused(self, Y: np.ndarray) -> np.ndarray:
        """Whether K refuses each row of a checked (k, n) block."""
        raise NotImplementedError

    def _normal(self, y: Vector) -> Vector:
        """A new separating normal for a row y that K refuses."""
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
        if not np.isfinite(M).all():
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

    separate = FeasibleSet.separate

    def _refused(self, Y: np.ndarray) -> np.ndarray:
        # each row's dot rounds as math.sqrt(y.dot(y)) does
        return np.sqrt(np.vecdot(Y, Y)) > self.R + self._tol()

    def _normal(self, y: Vector) -> Vector:
        return y.copy()

    def project(self, point: Vector) -> Vector:
        y = self._check_dim(point)
        nrm = float(np.linalg.norm(y))
        if nrm <= self.R:
            return y.copy()
        return (self.R / nrm) * y

    def loo_many(self, directions) -> np.ndarray:
        D = self._check_rows(directions)
        nrm = np.sqrt(np.vecdot(D, D))  # each row's norm rounds as in loo
        zero = nrm == 0.0
        V = (-self.R / np.where(zero, 1.0, nrm))[:, None] * D
        V[zero] = 0.0
        V[zero, 0] = self.R
        return V

    def project_many(self, points) -> np.ndarray:
        Y = self._check_rows(points)
        nrm = np.sqrt(np.vecdot(Y, Y))  # each row's norm rounds as in project
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

    separate = FeasibleSet.separate

    def _refused(self, Y: np.ndarray) -> np.ndarray:
        return np.maximum(Y - self.upper, self.lower - Y).max(axis=1) > self._tol()

    def _normal(self, y: Vector) -> Vector:
        # the most violated face, the upper one first on a tie: +e_j
        # above an upper face, -e_j below a lower one
        j = int(np.argmax(np.concatenate([y - self.upper, self.lower - y])))
        g = np.zeros(self.n)
        g[j % self.n] = 1.0 if j < self.n else -1.0
        return g

    def project(self, point: Vector) -> Vector:
        y = self._check_dim(point)
        return np.clip(y, self.lower, self.upper)

    def loo_many(self, directions) -> np.ndarray:
        return np.where(self._check_rows(directions) > 0.0, self.lower, self.upper)

    def project_many(self, points) -> np.ndarray:
        return np.clip(self._check_rows(points), self.lower, self.upper)


def simplex_project_sorted(y, s: float) -> np.ndarray:
    """Project onto {x >= 0, sum(x) = s} by the sort-and-threshold rule;
    a 2-D ``y`` is projected row by row (the batched sets call
    :func:`_simplex_project_rows`, which gives each row these bits)."""
    n = y.shape[-1]
    u = np.sort(y, axis=-1)[..., ::-1]
    css = np.cumsum(u, axis=-1) - s
    cond = u - css / np.arange(1, n + 1) > 0
    # rho: the last index where cond holds (cond[..., 0] always does for s > 0)
    rho = n - np.argmax(cond[..., ::-1], axis=-1)[..., None]
    theta = np.take_along_axis(css, rho - 1, axis=-1) / rho
    return np.maximum(y - theta, 0.0)


def _simplex_project_rows(Y: np.ndarray, s: float) -> np.ndarray:
    """:func:`simplex_project_sorted` of every row of a (k, n) array, each
    with the bits it gives that row.  Each row is sorted, but the running
    sums, the threshold test and the last index where it holds are taken
    one coordinate at a time over the columns of the sorted rows, in n
    NumPy calls on length-k columns, not in per-row reductions of length
    n, whose per-row cost is most of their time on short rows.

    For coordinate j (0-based) the candidate threshold is
    t_j = (u_0 + ... + u_j - s) / (j + 1), summed in order; the threshold
    is the t_j of the last j with u_j > t_j (the same test as
    u_j - t_j > 0 on finite u), or t_{n-1} where no j passes, as the
    sorted rule's ``argmax`` of an all-false row gives."""
    n = Y.shape[1]
    U = np.sort(Y, axis=1)[:, ::-1].T.copy()  # U[j]: the j-th largest entry of every row
    total = U[0].copy()
    t = total - s
    theta = t.copy()
    passed = U[0] > t
    unset = None if passed.all() else ~passed  # rows no coordinate has passed yet
    for j in range(1, n):
        np.add(total, U[j], out=total)
        np.subtract(total, s, out=t)
        np.divide(t, j + 1, out=t)
        np.greater(U[j], t, out=passed)
        np.copyto(theta, t, where=passed)
        if unset is not None:
            unset &= ~passed
    if unset is not None:
        np.copyto(theta, t, where=unset)
    return np.maximum(Y - theta[:, None], 0.0)


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

    separate = FeasibleSet.separate

    def _refused(self, Y: np.ndarray) -> np.ndarray:
        # violations in distance units: -x_j below a face x_j >= 0, and
        # |sum(x) - scale| / sqrt(n) off the plane; contiguous rows are
        # summed pairwise, as the 1-D sum is
        off = np.abs(Y.sum(axis=1) - self.scale) / np.sqrt(self.n)
        return np.maximum(-Y.min(axis=1), off) > self._tol()

    def _normal(self, y: Vector) -> Vector:
        j = int(np.argmin(y))
        total = float(np.sum(y)) - self.scale
        rt = np.sqrt(self.n)
        g = np.zeros(self.n)
        if -y[j] >= abs(total) / rt:  # the face is violated most, or tied
            g[j] = -1.0
        else:
            g[:] = math.copysign(1.0, total) / rt
        return g

    def project(self, point: Vector) -> Vector:
        y = self._check_dim(point)
        return simplex_project_sorted(y, self.scale)

    def loo_many(self, directions) -> np.ndarray:
        D = self._check_rows(directions)
        V = np.zeros_like(D)
        V[np.arange(len(D)), np.argmin(D, axis=1)] = self.scale  # lowest index on ties
        return V

    def project_many(self, points) -> np.ndarray:
        return _simplex_project_rows(self._check_rows(points), self.scale)


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

    separate = FeasibleSet.separate

    def _refused(self, Y: np.ndarray) -> np.ndarray:
        # each contiguous row is summed pairwise, as the 1-D sum is
        return np.abs(Y).sum(axis=1) > self.R + self._tol()

    def _normal(self, y: Vector) -> Vector:
        # z @ sign(y) <= ||z||_1 <= R < ||y||_1 = y @ sign(y) for all z in K
        return np.sign(y)

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
        A = np.abs(Y)
        # every row is projected (a row's answer does not depend on the
        # others), then the rows inside K are put back as they came
        X = np.sign(Y) * _simplex_project_rows(A, self.R)
        np.copyto(X, Y, where=(np.sum(A, axis=1) <= self.R)[:, None])
        return X


class Polytope(FeasibleSet):
    """Bounded intersection of halfspaces {x : A x <= b} with 0 interior.

    Rows are normalized at construction so each ``a_i`` is a unit vector;
    then constraint violations are Euclidean distances, ``r = min_i b_i``,
    and the separation oracle returns the unit normal of the most
    violated face.  The LOO is a primal simplex in NumPy, with no LP
    solver: ``loo`` runs a 1-D walk and ``loo_many`` one vectorized pass
    over a block, each row from the nearest vertex in a table of
    certified vertices (a vertex found at construction, then each vertex
    ``loo`` certifies).  What neither can certify (ties, zero directions,
    degenerate vertices, the pivot cap) is settled by a 1-D walk under
    Bland's rule from the construction vertex (see :meth:`_walk`).
    Boundedness is verified, and the circumradius bound R computed, by
    one pass over the 2n directions +-e_i at construction.  The exact
    projection (:meth:`project`) is one ``scipy.optimize.nnls`` solve,
    SciPy's only use here, certified by its own KKT multipliers with no
    LOO.
    """

    #: KKT-gap certificate threshold for project(), in units of
    #: max(1, ||x - y||) * R: the gap's rounding grows with both
    PROJECT_GAP_TOL = 1e-10
    #: simplex LOO: certificate margin of a row's multipliers (in units of
    #: max|d|) and of its slack rows (in units of R)
    CERT_RTOL = 1e-9
    #: simplex LOO: pivots per row before the row is settled
    PIVOT_CAP = 200
    #: loo_many: rows per simplex pass, which bounds its (k, n, n) state
    BLOCK_ROWS = 4096
    #: simplex LOO: certified start vertices kept, about 1.4 kB each at
    #: n = 10, m = 60; once full, the table keeps the vertices it holds
    TABLE_ROWS = 256

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
        self._eye = np.eye(self.n)
        # the start table, filled in order: row i is a vertex's sorted
        # tight rows, their inverse, every row's slack and the vertex;
        # _keys holds the tight rows of each filled row as bytes.  Row 0,
        # the construction vertex, starts every settle walk.
        self._keys: set[bytes] = set()
        cap = self.TABLE_ROWS
        self._tab_T = np.empty((cap, self.n), dtype=np.intp)
        self._tab_B = np.empty((cap, self.n, self.n))
        self._tab_S = np.empty((cap, self.m))
        self._tab_V = np.empty((cap, self.n))
        tight = self._start_vertex()
        v = self._vertices(tight[None])[0]
        slack = self.b - self.A @ v
        slack[tight] = 0.0
        self._remember(tight, np.linalg.inv(self.A[tight]), slack, v)
        self.R = self._bounding_radius()

    def _bounding_radius(self) -> float:
        """sqrt(sum_i max(lo_i^2, hi_i^2)) over the range [lo_i, hi_i] of
        each coordinate on K: one simplex pass over the 2n directions
        +-e_i, the rows it leaves out settled, each coordinate read off
        the vertex solve.  An unbounded K raises ``ValueError``."""
        n = self.n
        E = np.concatenate([self._eye, -self._eye])
        rows, stopped = self._simplex_pass(E)
        tight = np.empty((2 * n, n), dtype=np.intp)
        tight[rows] = stopped
        for i in np.setdiff1d(np.arange(2 * n), rows).tolist():
            tight[i] = self._walk(E[i])
        V = self._vertices(np.sort(tight, axis=1))
        lo, hi = V[:n].diagonal(), V[n:].diagonal()
        return float(np.sqrt(np.sum(np.maximum(lo**2, hi**2))))

    def loo(self, direction: Vector) -> Vector:
        """A vertex minimizing ``direction @ v`` over K, pulled inside to
        within a few ulp; a function of the direction alone.

        A nonzero direction (max|d|, its multipliers' scale, is above 0)
        runs :meth:`_warm_loo`, a 1-D primal simplex from the nearest vertex
        of the start table, certified as :meth:`loo_many` certifies a block
        row; its vertex joins the table.  Zero directions, ties, degenerate
        vertices, the pivot cap and unbounded steps are settled.
        """
        d = self._check_dim(direction)
        dmax = _peak(np.abs(d))
        v = self._warm_loo(d, self.CERT_RTOL * dmax) if dmax else None
        return self._settled(d[None])[0] if v is None else v

    def loo_many(self, directions) -> np.ndarray:
        """``loo`` of every row, bit for bit.

        Each block of up to ``BLOCK_ROWS`` rows runs one primal simplex
        pass (:meth:`_simplex_pass`), each row from the start table's
        vertex with the lowest ``d @ v``.  A row is certified from a fresh
        factorization of its final tight rows: every multiplier above
        ``CERT_RTOL * max|d|`` and every other row's slack above
        ``CERT_RTOL * R``.  Its optimum is then a unique, nondegenerate
        vertex with exactly those tight rows, so the answer (the vertex
        solve and the pull inside) is the one ``loo`` certifies.  The
        other rows (ties, zero rows, degenerate vertices, rows at the
        pivot cap) are settled, as ``loo`` settles them.  The block's
        vertices do not join the start table.
        """
        D = self._check_rows(directions)
        out = np.empty_like(D)
        done = np.zeros(len(D), dtype=bool)
        for lo in range(0, len(D), self.BLOCK_ROWS):
            block = D[lo : lo + self.BLOCK_ROWS]
            rows, V = self._certified(block, *self._simplex_pass(block))
            out[lo + rows] = V
            done[lo + rows] = True
        if not done.all():
            out[~done] = self._settled(D[~done])
        return out

    def _settled(self, D: np.ndarray) -> np.ndarray:
        """``loo`` of each row of D without a certificate: the vertex where
        a Bland walk from the construction vertex stops (see
        :meth:`_walk`), pulled inside.  A zero row stops at once, at the
        construction vertex."""
        tight = np.array([np.sort(self._walk(d)) for d in D])
        return self._inside(self._vertices(tight))

    def _start_vertex(self) -> np.ndarray:
        """The sorted n tight rows of a vertex of K, found without an LP:
        from the origin, n times, walk along a direction orthogonal to
        the rows met so far to the first row it meets.  When neither of
        +-d meets a row, that line lies in K, which is then unbounded."""
        x = np.zeros(self.n)
        rows: list[int] = []
        for _ in range(self.n):
            d = self._eye[0]
            if rows:  # the longest column of the projector onto the rows' null space
                M = self.A[rows]
                P = self._eye - M.T @ np.linalg.solve(M @ M.T, M)
                d = P[:, np.argmax(np.einsum("ij,ij->j", P, P))]
            ad = self.A @ d
            ad[rows] = 0.0
            if not np.any(ad > 0.0):
                d, ad = -d, -ad
            hit = np.flatnonzero(ad > 0.0)
            if not hit.size:
                raise ValueError("polytope is unbounded: it contains a line")
            steps = (self.b[hit] - self.A[hit] @ x) / ad[hit]
            j = int(np.argmin(steps))
            x = x + steps[j] * d
            rows.append(int(hit[j]))
        return np.sort(rows)

    def _remember(self, tight: np.ndarray, Binv: np.ndarray, slack: np.ndarray, v: Vector) -> None:
        """Add a vertex to the start table, once per tight set, while
        the table has room."""
        key, k = tight.tobytes(), len(self._keys)
        if k < self.TABLE_ROWS and key not in self._keys:
            self._keys.add(key)
            self._tab_T[k], self._tab_B[k], self._tab_S[k], self._tab_V[k] = tight, Binv, slack, v

    def _warm_loo(self, d: Vector, tol: float) -> Optional[Vector]:
        """``loo(d)`` for a nonzero d, ``tol = CERT_RTOL * max|d|``, by the
        pivots of :meth:`_simplex_pass` from the start table's vertex with
        the lowest ``d @ v``; None after ``PIVOT_CAP`` pivots, on an
        unbounded step, or unless :meth:`_certified`'s certificate holds
        at the vertex it stops at (from a fresh inverse of its sorted tight
        rows, with v, by :func:`_solve_and_inverse`).  One ``A @ v`` gives
        the slacks and the pull inside."""
        A, b = self.A, self.b
        j = int((self._tab_V[: len(self._keys)] @ d).argmin())
        T, Binv, slack = self._tab_T[j].copy(), self._tab_B[j].copy(), self._tab_S[j].copy()
        for pivots in itertools.count():
            mu = d @ Binv  # minus the multipliers
            p = int(mu.argmax())
            if mu[p] <= tol:
                break
            if pivots == self.PIVOT_CAP or not self._pivot(T, Binv, slack, p):
                return None
        T.sort()  # ascending, as every answer's vertex solve takes them
        v, Binv = _solve_and_inverse(A[T], b[T])
        Av = A @ v
        slack = b - Av
        slack[T] = np.inf
        if _peak(d @ Binv) >= -tol or slack[slack.argmin()] <= self.CERT_RTOL * self.R:
            return None
        slack[T] = 0.0
        self._remember(T, Binv, slack, v)
        scale = _peak(Av / b)
        return v / scale if scale > 1.0 else v

    def _walk(self, d: Vector) -> np.ndarray:
        """The n tight rows (unsorted) of the vertex where a 1-D primal
        simplex on min d @ x from the construction vertex stops, once no
        multiplier is below ``-CERT_RTOL * max|d|``, under Bland's rule
        (*Math. Oper. Res.* 1977): the lowest-indexed row with a negative
        multiplier leaves, which cannot cycle, so the walk has no cap and
        its vertex depends on d and K alone.  An unbounded step, or a
        vertex visited twice (a cycle only rounding could cause: K is
        numerically degenerate), raises ``ValueError``."""
        T, Binv, slack = self._tab_T[0].copy(), self._tab_B[0].copy(), self._tab_S[0].copy()
        tol = self.CERT_RTOL * _peak(np.abs(d))
        seen: set[bytes] = set()
        while True:
            mu = d @ Binv  # minus the multipliers
            out = (mu > tol).nonzero()[0]
            if not out.size:
                return T
            p = out[T[out].argmin()]
            key = np.sort(T).tobytes()
            if key in seen:
                raise ValueError("polytope is numerically degenerate: the simplex LOO cycled")
            seen.add(key)
            if not self._pivot(T, Binv, slack, p):
                raise ValueError("polytope is unbounded: a simplex step meets no face")

    def _pivot(self, T: np.ndarray, Binv: np.ndarray, slack: np.ndarray, p: int) -> bool:
        """One pivot of a 1-D walk, in place, as :meth:`_simplex_pass`
        pivots (a ratio tie enters the lowest-indexed row): row T[p] is
        released.  False, with nothing changed, on an unbounded step."""
        col = Binv[:, p]  # the vertex moves along -col
        ag = self.A @ col
        down = ag < -1e-12 * _peak(np.abs(col))  # rows the move approaches
        down[T] = False
        hit = down.nonzero()[0]
        if not hit.size:
            return False
        ratio = slack[hit] / ag[hit]  # minus each row's step
        i = int(ratio.argmax())  # the lowest-indexed row of a tie
        enter = hit[i]
        slack -= ratio[i] * ag
        slack[enter] = 0.0
        w = self.A[enter] @ Binv  # the entering row against each column of B
        col = col / w[p]
        Binv -= col[:, None] * w
        Binv[:, p] = col
        T[p] = enter
        return True

    def _simplex_pass(self, D: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Primal simplex on min d @ x over K for every row d of D at once,
        each from the start table's vertex with the lowest ``d @ v``.  A
        vertex is a list T of n tight rows with inverse B = A_T^-1, and
        its multipliers are -B^T d.  While one is below ``-CERT_RTOL *
        max|d|``, the most negative one's row p is released: the vertex
        moves along -B e_p to the first slack row it meets (the ratio
        test), that row takes p's place, and B is updated by one rank-one
        (Sherman-Morrison) step.

        Returns the indices of the rows that stopped, with no clearly
        negative multiplier, and their tight rows.  Rows still pivoting
        after ``PIVOT_CAP`` pivots, or on an unbounded step, are left out.
        """
        A = self.A
        k = len(D)
        idx, C = np.arange(k), D
        j = (D @ self._tab_V[: len(self._keys)].T).argmin(axis=1)
        T, Binv, slack = self._tab_T[j], self._tab_B[j], self._tab_S[j]
        tol = self.CERT_RTOL * np.abs(D).max(axis=1)
        r = np.arange(k)
        stopped = [(idx[:0], T[:0])]
        for pivots in range(self.PIVOT_CAP + 1):
            mu = np.matmul(C[:, None], Binv)[:, 0]  # minus the multipliers
            p = mu.argmax(axis=1)
            opt = mu[r, p] <= tol
            if opt.any():
                stopped.append((idx[opt], T[opt]))
            if pivots == self.PIVOT_CAP or opt.all():
                break
            col = Binv[r, :, p]  # the vertex moves along -col
            ag = col @ A.T
            down = ag < -1e-12 * np.abs(col).max(axis=1)[:, None]  # rows the move approaches
            down[r[:, None], T] = False
            ratio = np.where(down, slack, np.inf) / np.where(down, -ag, 1.0)
            enter = ratio.argmin(axis=1)
            step = ratio[r, enter]
            go = ~opt & (step < np.inf)
            if not go.all():
                idx, C, T, Binv, slack, tol, p, col, ag, enter, step = (
                    a[go] for a in (idx, C, T, Binv, slack, tol, p, col, ag, enter, step)
                )
                r = r[: len(idx)]
            slack += step[:, None] * ag
            slack[r, enter] = 0.0
            w = np.matmul(A[enter][:, None], Binv)[:, 0]  # the entering row against each column of B
            col /= w[r, p][:, None]
            Binv -= col[:, :, None] * w[:, None, :]
            Binv[r, :, p] = col
            T[r, p] = enter
        return np.concatenate([i for i, _ in stopped]), np.concatenate([t for _, t in stopped])

    def _certified(self, D: np.ndarray, rows: np.ndarray, tight: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The rows whose tight sets certify a unique, nondegenerate
        optimum (see :meth:`loo_many`), and their ``loo`` answers."""
        C = D[rows]
        tight = np.sort(tight, axis=1)  # ascending, as every answer's vertex solve takes them
        V = self._vertices(tight)
        lam = np.linalg.solve(self.A[tight].transpose(0, 2, 1), -C[..., None])[..., 0]
        slack = self.b - V @ self.A.T
        slack[np.arange(len(rows))[:, None], tight] = np.inf
        ok = (lam.min(axis=1) > self.CERT_RTOL * np.abs(C).max(axis=1)) & (slack.min(axis=1) > self.CERT_RTOL * self.R)
        return rows[ok], self._inside(V[ok])

    def _vertices(self, tight: np.ndarray) -> np.ndarray:
        """The point on the n rows of each row of ``tight`` (ascending row
        indices), one LAPACK solve each, as a single ``solve`` makes."""
        return np.linalg.solve(self.A[tight], self.b[tight][..., None])[..., 0]

    def _inside(self, V: np.ndarray) -> np.ndarray:
        """Each row of V pulled inside to within a few ulp, in place:
        max(A v - b) can stay ~2e-16 above 0, which the 1e-12*R membership
        tolerance covers.  Shrinking toward the interior origin costs ~1
        ulp.  The stacked product is one gemv per row, as ``A @ v``; one
        (k, n) @ (n, m) product would round differently."""
        scale = (np.matmul(self.A, V[..., None])[..., 0] / self.b).max(axis=1)
        out = scale > 1.0
        V[out] /= scale[out, None]
        return V

    separate = FeasibleSet.separate

    def _refused(self, Y: np.ndarray) -> np.ndarray:
        # one gemv per row, as A @ y; Y @ A.T would round differently
        return (np.matmul(self.A, Y[..., None])[..., 0] - self.b).max(axis=1) > self._tol()

    def _normal(self, y: Vector) -> Vector:
        return self.A[int(np.argmax(self.A @ y - self.b))].copy()  # the most violated face

    def project(self, point: Vector) -> Vector:
        """Least-distance solve, certified by its own KKT multipliers.

        With z = x - y, the projection minimizes ||z|| s.t. A z <= b - A y.
        The u >= 0 minimizing ||E u - e_{n+1}||, E = [-A^T; h^T] with
        h = (A y - b) / max|A y - b|, picks the faces F with u > 0 (Lawson
        & Hanson, *Solving Least Squares Problems*, ch. 23).  Scaling h
        changes no face in exact arithmetic; unscaled, a point 10^5 R out
        gives E a row 10^5 times the others, and ``nnls`` chose wrong faces
        for about 1 point in 200 there.  x is y projected onto F by
        ``lstsq`` (which also covers more than n faces), shrunk into K; a
        second pass from that x puts it on F to rounding.  With
        lam = max(0, lstsq(A_F^T, y - x)), zero off F, x is accepted only
        if the duality gap 1/2 ||x - y + A_F^T lam||^2 + lam @ (b_F - A_F x)
        (stationarity plus slackness, no LOO) is at most PROJECT_GAP_TOL *
        max(1, ||x - y||) * R.  Its equal form 1/2 ||x - y||^2 +
        1/2 ||A^T lam||^2 - lam @ (A y - b) cancels terms of size
        ||x - y||^2 and refused 44 of 150 points 10^7 R out; a tolerance
        fixed in absolute terms refused points 10^5 R out.  Only a
        process's first projection loads ``scipy.optimize``.
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
        lam = np.maximum(np.linalg.lstsq(A.T, -d, rcond=None)[0], 0.0)
        r = d + A.T @ lam
        gap = float(0.5 * r.dot(r) + lam.dot(b - A @ x))
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


def squeeze(set_: FeasibleSet, factor: float) -> FeasibleSet:
    """View of ``factor * K``; nested views collapse to one factor."""
    if factor == 1.0:
        return set_
    return SqueezedSetView(set_, factor)
