"""Shared helpers for the test suite: random instances, member sampling,
per-invocation budget checks applied to recorded projection calls, and
the literal references that fast paths are compared against."""

import csv
import dataclasses
import math
import re
from typing import Optional

import numpy as np
import pytest

from pfoco.frankwolfe import SeparationResult, exact_line_search_quadratic
from pfoco.geometry import (
    FEASIBLE,
    Ball,
    Box,
    L1Ball,
    Polytope,
    SeparationAnswer,
    Simplex,
    SqueezedSetView,
    as_vector,
    loo_query,
    squeeze,
)
from pfoco.learners import so_ogd_params
from pfoco.losses import LinearLosses, LossSchedule, sample_unit_ball
from pfoco.projection import LooProjection, cip_so

SET_KINDS = ("ball", "box", "simplex", "l1", "polytope")
INTERIOR_KINDS = ("ball", "box", "l1", "polytope")  # r > 0


def assert_refused(call, want, message, capsys=None):
    """``call()`` raises the exception type ``want`` with ``message`` in its
    text; or, for an int ``want`` (a CLI exit code), returns ``want`` with
    ``message`` in what it printed to ``capsys``."""
    if isinstance(want, int):
        assert call() == want
        printed = capsys.readouterr()
        assert message in printed.out + printed.err, printed
    else:
        with pytest.raises(want, match=re.escape(message)):
            call()


def make_polytope(rng, n, extra=4):
    """Bounded-by-construction polytope: box faces plus random cuts."""
    rows, offs = [], []
    for i in range(n):
        e = np.zeros(n)
        e[i] = 1.0
        rows += [e, -e]
        offs += [rng.uniform(0.5, 2.0), rng.uniform(0.5, 2.0)]
    for _ in range(extra):
        a = rng.standard_normal(n)
        a /= np.linalg.norm(a)
        rows.append(a)
        offs.append(rng.uniform(0.4, 1.8))
    return Polytope(np.stack(rows), np.array(offs))


def loo_reference(P, D):
    """Every row of D answered by an LP solver on the polytope P: one
    HiGHS model of min d @ x s.t. A x <= b (SciPy's bundled extension,
    the solver behind ``linprog(method="highs")``) re-solved after each
    change of d.  When every column is basic, the n non-basic rows of
    the optimal basis go through ``P._inside(P._vertices(tight))``, the
    vertex solve and pull inside that every ``loo`` answer goes through;
    otherwise (a free column left at 0, as on a zero row) the answer is
    the solver's point.  On a row with a unique, nondegenerate optimum
    this is ``loo``'s answer bit for bit; on a tie it is one optimal
    vertex among several, which may depend on the rows before it.
    Reusing the model makes a row about 0.7 ms on a 60-face cut cube in
    R^10, against 3.3 ms for a fresh ``linprog``."""
    from scipy.optimize._highspy import _core as highs

    m, n, inf = P.m, P.n, highs.kHighsInf
    h = highs._Highs()
    h.setOptionValue("output_flag", False)
    h.setOptionValue("presolve", "off")
    h.addVars(n, np.full(n, -inf), np.full(n, inf))
    starts = np.arange(0, m * n, n, dtype=np.int32)
    h.addRows(m, np.full(m, -inf), P.b, m * n, starts, np.tile(np.arange(n, dtype=np.int32), m), P.A.ravel())
    cols = np.arange(n, dtype=np.int32)
    out = np.empty_like(D)
    for i, d in enumerate(D):
        h.changeColsCost(n, cols, d)
        h.run()
        status = h.getModelStatus()
        assert status == highs.HighsModelStatus.kOptimal, h.modelStatusToString(status)
        _, basic = h.getBasicVariables()  # k >= 0 is column k, k < 0 is row -1 - k
        if np.count_nonzero(basic >= 0) < n:
            out[i] = h.getSolution().col_value
            continue
        tight = np.ones(m, dtype=bool)
        tight[-1 - basic[basic < 0]] = False
        out[i] = P._inside(P._vertices(np.flatnonzero(tight)[None]))[0]
    return out


def make_cut_cube(rng, n, m):
    """The benchmark's LP-bound polytope: the cube |x_i| <= 1 cut by
    m - 2n random unit halfspaces a @ x <= b with b in [0.6, 1.0]."""
    cuts = rng.standard_normal((m - 2 * n, n))
    A = np.concatenate([np.eye(n), -np.eye(n), cuts / np.linalg.norm(cuts, axis=1)[:, None]])
    return Polytope(A, np.concatenate([np.ones(2 * n), rng.uniform(0.6, 1.0, m - 2 * n)]))


def random_set(rng, kind):
    if kind == "ball":
        return Ball(int(rng.integers(2, 8)), rng.uniform(0.3, 3.0))
    if kind == "box":
        n = int(rng.integers(2, 8))
        return Box(-rng.uniform(0.1, 2.0, n), rng.uniform(0.1, 2.0, n))
    if kind == "simplex":
        return Simplex(int(rng.integers(2, 8)), rng.uniform(0.5, 2.0))
    if kind == "l1":
        return L1Ball(int(rng.integers(2, 8)), rng.uniform(0.5, 2.5))
    if kind == "polytope":
        return make_polytope(rng, int(rng.integers(2, 6)))
    raise ValueError(kind)


def sample_members(set_, rng, count, mix=8):
    """Random members as convex combinations of LOO vertices."""
    verts = np.stack([set_.loo(rng.standard_normal(set_.n)) for _ in range(mix)])
    weights = rng.dirichlet(np.ones(mix), size=count)
    return weights @ verts


def separate_reference(set_, y):
    """``separate`` by each set's 1-D rule, looped over the rows of a
    (k, n) block up to the first refusal: the rules as the sets stated
    them one point at a time, the reference for the vectorized block
    test.  A squeezed view asks its base at ``y / factor``."""
    if isinstance(set_, SqueezedSetView):
        return separate_reference(set_.base, np.asarray(y, dtype=np.float64) / set_.factor)
    if np.ndim(y) == 2:
        for i, row in enumerate(set_._check_rows(y)):
            ans = separate_reference(set_, row)
            if not ans.feasible:
                return SeparationAnswer(False, ans.g, i)
        return FEASIBLE
    y = set_._check_dim(y)
    if isinstance(set_, Ball):
        if math.sqrt(y.dot(y)) <= set_.R + set_._tol():
            return FEASIBLE
        return SeparationAnswer(False, y.copy())
    if isinstance(set_, Box):
        over = y - set_.upper
        under = set_.lower - y
        viol = np.concatenate([over, under])
        j = int(np.argmax(viol))
        if viol[j] <= set_._tol():
            return FEASIBLE
        g = np.zeros(set_.n)
        if j < set_.n:
            g[j] = 1.0  # above the upper face
        else:
            g[j - set_.n] = -1.0  # below the lower face
        return SeparationAnswer(False, g)
    if isinstance(set_, Simplex):
        tol = set_._tol()
        # candidate violations, all in distance units
        j = int(np.argmin(y))
        neg = -float(y[j])
        total = float(np.sum(y)) - set_.scale
        rt = np.sqrt(set_.n)
        worst = max(neg, total / rt, -total / rt)
        if worst <= tol:
            return FEASIBLE
        g = np.zeros(set_.n)
        if neg >= worst:
            g[j] = -1.0
        elif total > 0:
            g = np.full(set_.n, 1.0 / rt)
        else:
            g = np.full(set_.n, -1.0 / rt)
        return SeparationAnswer(False, g)
    if isinstance(set_, L1Ball):
        if float(np.abs(y).sum()) <= set_.R + set_._tol():
            return FEASIBLE
        return SeparationAnswer(False, np.sign(y))
    if isinstance(set_, Polytope):
        viol = set_.A @ y - set_.b
        j = int(np.argmax(viol))
        if viol[j] <= set_._tol():
            return FEASIBLE
        return SeparationAnswer(False, set_.A[j].copy())
    raise TypeError(f"no reference separation rule for {type(set_).__name__}")


def assert_separator_valid(set_, y, g, slack=1e-9):
    """A valid separator has (y - z) @ g > 0 for all z; the worst z is
    the LOO vertex maximizing z @ g."""
    z_star = set_.loo(-np.asarray(g))
    margin = float((y - z_star) @ g)
    assert margin > -slack, f"separator fails at its worst vertex: margin {margin}"


# ----------------------------------------------------------------------
# budget checks for recorded projection invocations


def fw_iteration_ceiling(R, eps):
    return max(math.ceil(27.0 * R * R / eps - 2.0), 1)


def check_cip_loo_record(rec):
    """Per-invocation certified ceilings for the LOO-based projection,
    and the record's own bookkeeping: one ``fw_iterations`` and one
    ``anchor_dists`` entry per pass, summing to ``loo_calls``."""
    eps = rec.eps
    d2 = rec.input_dist_sq
    assert sum(rec.fw_iterations) == rec.loo_calls
    assert len(rec.fw_iterations) == len(rec.anchor_dists) == rec.outer_iterations
    for it in rec.fw_iterations:
        ceil_fw = fw_iteration_ceiling(rec.set_R, eps)
        assert it <= ceil_fw, f"inner loop used {it} LOO calls, ceiling {ceil_fw}"
    if d2 <= 3.0 * eps:
        assert rec.outer_iterations == 0
    else:
        outer_bound = max(d2 * (d2 - eps) / (4.0 * eps * eps) + 1.0, 1.0)
        assert rec.outer_iterations <= outer_bound + 1e-9, (
            f"outer iterations {rec.outer_iterations} exceed {outer_bound}"
        )
        # pull-anchor distances never grow (requires 3 eps < d2, which holds here)
        d0 = math.sqrt(d2)
        for dist in rec.anchor_dists:
            assert dist <= d0 + 1e-9


def separating_hyperplane_fw_literal(set_, x1, y, eps, counters=None):
    """The separating-hyperplane Frank-Wolfe run in the paper's order:
    every iterate asks the LOO first, then the run stops on the gap test
    or the distance test.  The reference that ``separating_hyperplane_fw``
    must match bit for bit in its point and close flag, at one LOO call
    more on a run that ends close."""
    x = np.array(x1, dtype=np.float64)
    cap = 10 * fw_iteration_ceiling(set_.R, eps)
    for i in range(1, cap + 1):
        v = loo_query(set_, x - y, counters)
        close = float((x - y) @ (x - y)) <= 3.0 * eps
        if close or float((x - y) @ (x - v)) <= eps:
            return SeparationResult(point=x, close=close, iterations=i)
        x = x + exact_line_search_quadratic(x, v, y) * (v - x)
    raise AssertionError("the literal run exceeded 10x its certified ceiling")


def cip_loo_literal(set_, x0, y0, eps, counters=None):
    """The LOO-based projection as the paper states it: a separating-
    hyperplane Frank-Wolfe run in the paper's order on every outer pass,
    none of them implied.  The reference that ``cip_loo`` must match bit
    for bit in x, y, its pass count and its anchor distances; its LOO
    bill is higher by one call per implied pass and one per run that
    ends close."""
    x = np.array(x0, dtype=np.float64)
    y_in = np.asarray(y0, dtype=np.float64)
    d2 = float((x - y_in) @ (x - y_in))
    y = y_in / max(1.0, float(np.linalg.norm(y_in)) / set_.R)
    res = LooProjection(
        x=x, y=y, outer_iterations=0, fw_iterations=[], anchor_dists=[],
        loo_calls=0, eps=eps, set_R=set_.R, input_dist_sq=d2,
    )
    if d2 <= 3.0 * eps:
        return res
    gamma = 2.0 * eps / d2
    k = 0
    while True:
        k += 1
        inner = separating_hyperplane_fw_literal(set_, x, y, eps, counters)
        x = inner.point
        res.fw_iterations.append(inner.iterations)
        res.loo_calls += inner.iterations
        dist = float(np.linalg.norm(x - y))
        res.anchor_dists.append(dist)
        if dist * dist <= 3.0 * eps:
            res.x, res.y, res.outer_iterations = x, y, k
            return res
        y = y - gamma * (y - x)


def pull_toward(y, g, Q, C):
    """One separation-certified pull step: the reference for the pull in
    ``cip_so``.

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


def trace_field(v):
    """A float as a trace writes it: ``'0'`` and ``'-0'`` for zeros,
    ``'%.16e' % v`` for every other value."""
    if v == 0:
        return "-0" if math.copysign(1.0, v) < 0 else "0"
    return "%.16e" % v


def csv_writer_trace(trace, path):
    """The trace file as ``csv.writer`` writes it, one formatted row at a
    time, each float by :func:`trace_field`: the reference that
    ``write_trace_csv`` must match byte for byte."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(["t", "x", "loss", "loo_calls_cum", "so_calls_cum", "block_index"])
        for t in range(trace.T):
            w.writerow(
                [
                    t + 1,
                    ";".join(trace_field(v) for v in trace.plays[t].tolist()),
                    trace_field(float(trace.losses[t])),
                    int(trace.loo_cum[t]),
                    int(trace.so_cum[t]),
                    int(trace.block_index[t]),
                ]
            )


def strided_intervals_literal(T, boundaries=None, extra=None):
    """The strided interval family built pair by pair as a set of tuples
    and sorted: the reference that ``strided_intervals`` must match row
    for row."""
    out = set()
    L = T
    while True:
        stride = max(1, math.ceil(L / 4))
        s = 1
        while s + L - 1 <= T:
            out.add((s, s + L - 1))
            s += stride
        out.add((T - L + 1, T))
        if L == 1 or math.ceil(L / 2) < 8:
            break
        L = math.ceil(L / 2)
    if boundaries:
        marks = sorted({b for b in boundaries if 1 <= b <= T} | {T + 1})
        for i, s in enumerate(marks[:-1]):
            for e_next in marks[i + 1 :]:
                out.add((s, e_next - 1))
    for s, e in extra or []:
        out.add((int(s), int(e)))
    return sorted(out)


def check_cip_so_record(rec, set_):
    """Per-invocation certified ceiling for the SO-based projection,
    measured against exact projections onto the doubly squeezed set."""
    delta, dp, r = rec.delta, rec.delta_prime, rec.r
    target = squeeze(set_, (1.0 - delta) * (1.0 - dp / r))
    gain = delta * delta * (r - dp) * (r - dp)
    d0 = np.linalg.norm(rec.y0 - target.project(rec.y0))
    dret = np.linalg.norm(rec.y - target.project(rec.y))
    bound = (d0 * d0 - dret * dret) / gain + 1.0
    assert rec.so_calls <= bound + 1e-6, f"SO calls {rec.so_calls} exceed {bound}"


def check_cip_so_records(trace, set_):
    """:func:`check_cip_so_record` on every round of an SO run at once.  The
    inputs and outputs are the columns of ``trace.projections`` (a
    ``SoRecords``), each round's SO calls are the steps of ``trace.so_cum``,
    and ``project_many`` makes the exact projections, giving each row the
    bits ``project`` gives it."""
    recs = trace.projections
    delta, dp, r = recs[0].delta, recs[0].delta_prime, recs[0].r
    target = squeeze(set_, (1.0 - delta) * (1.0 - dp / r))
    gain = delta * delta * (r - dp) * (r - dp)
    d0 = np.linalg.norm(recs.inputs - target.project_many(recs.inputs), axis=1)
    dret = np.linalg.norm(recs.outputs - target.project_many(recs.outputs), axis=1)
    bound = (d0 * d0 - dret * dret) / gain + 1.0
    calls = np.diff(trace.so_cum, prepend=0)
    over = np.flatnonzero(~(calls <= bound + 1e-6))
    assert not over.size, f"round {over[0] + 1}: SO calls {calls[over[0]]} exceed {bound[over[0]]}"


def record_outward_schedule(set_, T, c=None):
    """The play-dependent loss c_t = -sign(x_t)/sqrt(n) (sign(0) taken
    as 1), which pushes each play outward, recorded against ``so_ogd``
    as an ordinary schedule: one ``LinearLosses`` row per round.  The
    learner is deterministic, so ``so_run`` with ``so_ogd_params(set_,
    1.0, T, c)`` on the recorded schedule plays the recorded points."""
    n = set_.n
    params = so_ogd_params(set_, 1.0, T, c=c)
    C = np.empty((T, n))
    x = np.zeros(n)
    for t in range(T):
        C[t] = np.where(x < 0.0, 1.0, -1.0) / math.sqrt(n)
        x = cip_so(set_, set_.r, params.delta, 0.0, x - params.eta * C[t]).y
    return LossSchedule(LinearLosses(C), np.arange(T), [1], G_f=1.0, M=set_.R)


@dataclasses.dataclass
class FWState:
    """Terminal state of a Frank-Wolfe solve.

    ``iterations`` counts update steps taken; the LOO bill is
    ``iterations + 1`` (one certificate evaluation per visited iterate).
    ``history`` (when recorded) holds one (value, gap) pair per visited
    iterate, index i corresponding to the iterate after i updates.
    """

    x: np.ndarray
    iterations: int
    v: np.ndarray
    sigma: float
    gap: float
    converged: bool
    history: Optional[list] = None


def frank_wolfe_min_distance(set_, x0, y, gap_tol, max_iters, counters=None, record_history=False):
    """Classic Frank-Wolfe with exact line search on 0.5*||x - y||^2 from
    a feasible start: the high-accuracy reference solve.

    Stops when the gap certificate max_v (x - v) @ (x - y) falls to
    ``gap_tol`` or after ``max_iters`` update steps, whichever is first;
    the returned state says which through ``converged``.  The gap after
    i update steps decays like O(R^2 / i) and upper-bounds the primal
    suboptimality of every iterate.
    """
    if gap_tol < 0:
        raise ValueError("gap_tol must be nonnegative")
    if max_iters < 0:
        raise ValueError("max_iters must be nonnegative")
    x = np.array(x0, dtype=np.float64)
    history = [] if record_history else None
    sigma = 0.0
    for i in range(max_iters + 1):
        v = loo_query(set_, x - y, counters)
        gap = float((x - v) @ (x - y))
        if history is not None:
            history.append((0.5 * float((x - y) @ (x - y)), gap))
        if gap <= gap_tol or i == max_iters:
            return FWState(x=x, iterations=i, v=v, sigma=sigma, gap=gap, converged=gap <= gap_tol, history=history)
        sigma = exact_line_search_quadratic(x, v, y)
        x = x + sigma * (v - x)
    raise AssertionError("unreachable")


def min_over_set_linear(set_, c, counters=None):
    """Exact minimum of c @ x over the set (one LOO call)."""
    v = loo_query(set_, c, counters)
    return float(c @ v), v


# ----------------------------------------------------------------------
# Monte-Carlo statistics for the one-point gradient estimator


def estimate_gradient_mc(family, i, x, delta, samples, rng):
    """Empirical mean and per-coordinate SEM of the one-point estimator
    for loss row i of a loss family."""
    from pfoco.losses import sample_unit_sphere

    n = family.shape[1]
    U = sample_unit_sphere(rng, n, samples)
    vals = family.values(i, np.asarray(x) + delta * U)
    G = (n / delta) * vals[:, None] * U
    return G.mean(axis=0), G.std(axis=0, ddof=1) / math.sqrt(samples)


def smoothed_value_mc(family, i, x, delta, samples, rng):
    """Monte-Carlo estimate of loss row i's delta-ball-smoothed value at x,
    as (estimate, standard error)."""
    if samples < 2:
        raise ValueError("need at least 2 samples for a standard error")
    U = sample_unit_ball(rng, family.shape[1], samples)
    vals = family.values(i, np.asarray(x) + delta * U)
    return float(np.mean(vals)), float(np.std(vals, ddof=1) / np.sqrt(samples))


def smoothed_fd_gradient(family, i, x, delta, h, samples, seed):
    """Central finite differences of loss row i's MC-smoothed value.

    Common random numbers: both sides of each difference reuse the same
    sample stream, so the smoothing noise cancels and only the bias of
    the difference quotient remains."""
    x = np.asarray(x, dtype=np.float64)
    out = np.empty(family.shape[1])
    for k in range(family.shape[1]):
        e = np.zeros(family.shape[1])
        e[k] = h
        plus, _ = smoothed_value_mc(family, i, x + e, delta, samples, np.random.default_rng(seed))
        minus, _ = smoothed_value_mc(family, i, x - e, delta, samples, np.random.default_rng(seed))
        out[k] = (plus - minus) / (2.0 * h)
    return out


def block_sum_moment_samples(C, x, delta, blocks, rng):
    """Draws of ||sum_t g_t||^2 over independent blocks at a fixed play x.

    C is the (L, n) matrix of the block's linear-loss coefficients.
    Returns the squared norms (one per block); square them for the
    fourth-moment statistics."""
    from pfoco.losses import sample_unit_sphere

    L, n = C.shape
    U = sample_unit_sphere(rng, n, blocks * L).reshape(blocks, L, n)
    vals = C @ np.asarray(x) + delta * np.einsum("bln,ln->bl", U, C)
    G = (n / delta) * vals[..., None] * U
    S = G.sum(axis=1)
    return np.sum(S * S, axis=1)


def block_sum_moment_bounds(L, n, M, delta, G_f):
    """Certified bounds on E||sum g||^2 and E||sum g||^4."""
    a = (n * M / delta) ** 2
    second = L * a + L * L * G_f * G_f
    fourth = 3 * L**2 * a * a + 6 * L**3 * a * G_f * G_f + L**4 * G_f**4
    return second, fourth
