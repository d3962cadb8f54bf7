import numpy as np
import pytest

from pfoco.frankwolfe import (
    exact_line_search_quadratic,
    fw_stop_ceiling,
    separating_hyperplane_fw,
)
from pfoco.geometry import Ball, OracleContractError, OracleCounters, loo_query, squeeze
from pfoco.projection import cip_loo
from support import (
    SET_KINDS,
    frank_wolfe_min_distance,
    make_cut_cube,
    random_set,
    sample_members,
    separating_hyperplane_fw_literal,
)


def test_line_search_closed_form():
    x = np.array([0.0, 0.0])
    v = np.array([2.0, 0.0])
    assert exact_line_search_quadratic(x, v, np.array([1.0, 0.0])) == 0.5
    assert exact_line_search_quadratic(x, v, np.array([5.0, 0.0])) == 1.0
    assert exact_line_search_quadratic(x, v, np.array([-3.0, 0.0])) == 0.0
    assert exact_line_search_quadratic(x, x, np.array([1.0, 1.0])) == 0.0


def test_min_distance_converges_on_ball():
    ball = Ball(2, 1.0)
    y = np.array([3.0, 0.0])
    counters = OracleCounters()
    state = frank_wolfe_min_distance(ball, np.array([0.0, 1.0]), y, gap_tol=1e-9, max_iters=10000, counters=counters)
    assert state.converged
    np.testing.assert_allclose(state.x, [1.0, 0.0], atol=1e-4)
    assert counters.loo_calls == state.iterations + 1


def test_min_distance_flags_iteration_exhaustion():
    ball = Ball(2, 1.0)
    state = frank_wolfe_min_distance(ball, np.array([0.0, 1.0]), np.array([3.0, 0.0]), gap_tol=0.0, max_iters=3)
    assert not state.converged
    assert state.iterations == 3


def test_min_distance_rate_and_weak_duality():
    # primal gap of iterate i (i >= 1) is at most 8 R^2/(i+2); the gap
    # certificate upper-bounds the primal gap at every iterate; values
    # never increase
    rng = np.random.default_rng(41)
    for kind in ("ball", "box", "simplex", "l1"):
        for _ in range(4):
            set_ = random_set(rng, kind)
            y = rng.standard_normal(set_.n) * 1.5 * set_.R
            x0 = set_.loo(rng.standard_normal(set_.n))
            state = frank_wolfe_min_distance(set_, x0, y, gap_tol=0.0, max_iters=60, record_history=True)
            f_star = 0.5 * float(np.sum((set_.project(y) - y) ** 2))
            values = [h[0] for h in state.history]
            gaps = [h[1] for h in state.history]
            for i, (val, gap) in enumerate(zip(values, gaps)):
                assert gap >= (val - f_star) - 1e-9
                if i >= 1:
                    assert val - f_star <= 8.0 * set_.R**2 / (i + 2) + 1e-12
            for a, b in zip(values, values[1:]):
                assert b <= a + 1e-12


def test_min_distance_gap_dips_at_inverse_rate():
    # somewhere in the first K iterates (i >= 2) the certificate is
    # already at most 27 R^2/(K+2)
    rng = np.random.default_rng(43)
    for kind in ("box", "simplex", "l1"):
        set_ = random_set(rng, kind)
        y = rng.standard_normal(set_.n) * 2.0 * set_.R
        x0 = set_.loo(rng.standard_normal(set_.n))
        for K in (2, 10, 50):
            state = frank_wolfe_min_distance(set_, x0, y, gap_tol=0.0, max_iters=K, record_history=True)
            bound = 27.0 * set_.R**2 / (K + 2) + 1e-12
            gaps = [h[1] for h in state.history][2 : K + 1]
            if gaps:
                assert min(gaps) <= bound
            else:  # converged to gap 0 before the window opened
                assert state.converged and state.gap <= bound


def test_separating_run_certifies_far_point():
    ball = Ball(2, 1.0)
    y = np.array([3.0, 0.0])
    eps = 0.01
    counters = OracleCounters()
    res = separating_hyperplane_fw(ball, np.array([0.0, 1.0]), y, eps, counters)
    assert not res.close
    assert counters.loo_calls == res.iterations
    assert res.iterations <= fw_stop_ceiling(1.0, eps)
    # the certified margin: (y - z) @ (y - x) > 2*eps for every member z
    w = y - res.point
    z_star = ball.loo(-w)
    assert float((y - z_star) @ w) > 2.0 * eps


def test_separating_run_reaches_nearby_point():
    ball = Ball(2, 1.0)
    y = np.array([0.5, 0.0])  # interior, so the run must come close
    res = separating_hyperplane_fw(ball, np.array([0.0, 1.0]), y, eps=0.01)
    assert res.close
    assert float(np.sum((res.point - y) ** 2)) <= 3.0 * 0.01


def test_separating_run_contract_on_random_instances():
    rng = np.random.default_rng(47)
    for kind in SET_KINDS:
        for _ in range(6):
            set_ = random_set(rng, kind)
            R = set_.R
            x1 = sample_members(set_, rng, 1)[0]
            y = rng.standard_normal(set_.n) * 1.5 * R
            eps = rng.uniform(0.02, 0.5) * R * R
            counters = OracleCounters()
            res = separating_hyperplane_fw(set_, x1, y, eps, counters)
            assert res.iterations <= fw_stop_ceiling(R, eps)
            assert counters.loo_calls == res.iterations
            assert set_.contains(res.point)
            # never ends farther from y than it started
            assert np.linalg.norm(res.point - y) <= np.linalg.norm(x1 - y) + 1e-9
            d2 = float(np.sum((res.point - y) ** 2))
            if res.close:
                assert d2 <= 3.0 * eps
            else:
                assert d2 > 3.0 * eps
                w = y - res.point
                z_star = loo_query(set_, -w)
                assert float((y - z_star) @ w) > 2.0 * eps - 1e-9


def _assert_equals_the_paper_order(set_, x1, y, eps):
    """The run and the paper's order from x1 toward y: the same point and
    flag, one call fewer on a run that ends close.  Returns both."""
    counters, ref_counters = OracleCounters(), OracleCounters()
    res = separating_hyperplane_fw(set_, x1, y, eps, counters)
    ref = separating_hyperplane_fw_literal(set_, x1, y, eps, ref_counters)
    assert np.array_equal(res.point, ref.point)
    assert res.close == ref.close
    assert res.iterations == counters.loo_calls
    assert ref.iterations == ref_counters.loo_calls
    assert res.iterations == ref.iterations - res.close
    if float((x1 - y) @ (x1 - y)) <= 3.0 * eps:
        assert res.close and res.iterations == 0 and counters == OracleCounters()
    return res, ref


def test_separating_run_equals_the_paper_order_less_the_close_call():
    # the paper's run asks the LOO before its distance test, so a run that
    # ends close pays for an answer it never reads: the same point and flag,
    # one call fewer, and none at all when the start is already close
    rng = np.random.default_rng(53)
    sets = [random_set(rng, kind) for kind in SET_KINDS for _ in range(4)]
    sets += [squeeze(random_set(rng, kind), 0.7) for kind in ("l1", "polytope") for _ in range(2)]
    ends = {"separated": 0, "close": 0, "started close": 0}
    for set_ in sets:
        R = set_.R
        for _ in range(6):
            x1 = sample_members(set_, rng, 1)[0]
            y = x1 + rng.standard_normal(set_.n) * rng.uniform(0.02, 1.5) * R
            eps = rng.uniform(0.005, 0.1) * R * R
            res, ref = _assert_equals_the_paper_order(set_, x1, y, eps)
            if res.iterations == 0:
                ends["started close"] += 1
            else:
                ends["close" if res.close else "separated"] += 1
    assert min(ends.values()) > 0, ends
    # long runs on the benchmark's LP-bound cut cubes (n = 10, m = 60),
    # where each warm simplex answer takes several pivots
    long_ends = {"separated": 0, "close": 0}
    for set_ in [make_cut_cube(rng, 10, 60) for _ in range(2)]:
        R = set_.R
        for _ in range(5):
            x1 = sample_members(set_, rng, 1)[0]
            y = x1 + rng.standard_normal(set_.n) * rng.uniform(0.2, 0.6) * R / np.sqrt(set_.n)
            res, ref = _assert_equals_the_paper_order(set_, x1, y, rng.uniform(0.001, 0.003) * R * R)
            if ref.iterations >= 5:
                long_ends["close" if res.close else "separated"] += 1
    assert min(long_ends.values()) >= 3, long_ends


def test_separating_run_rejects_bad_eps():
    ball = Ball(2, 1.0)
    with pytest.raises(ValueError):
        separating_hyperplane_fw(ball, np.array([1.0, 0.0]), np.array([2.0, 0.0]), eps=0.0)


class _NanLooBall(Ball):
    """An LOO that answers NaN: a contract breaker."""

    def loo(self, direction):
        return np.full(self.n, np.nan)


class _CreepingLooBall(Ball):
    """An LOO that answers x - 0.01 (x - y) for the direction x - y: each
    step moves 1% of the way to y, and the gap stays above eps.  A
    contract breaker."""

    def __init__(self, y):
        super().__init__(2, 1.0)
        self.y = y

    def loo(self, direction):
        return self.y + 0.99 * direction


_FAR = np.array([100.0, 0.0])


@pytest.mark.parametrize(
    "call, message, diagnostics",
    [
        pytest.param(
            lambda: separating_hyperplane_fw(_NanLooBall(2, 1.0), np.zeros(2), _FAR, 0.1),
            "linear-optimization oracle returned a non-finite point",
            {"iterations": 1, "eps": 0.1},
            id="fw-nan",
        ),
        # cip_loo once returned x = [nan, nan] here, with no error
        pytest.param(
            lambda: cip_loo(_NanLooBall(2, 1.0), np.zeros(2), _FAR, 0.1),
            "linear-optimization oracle returned a non-finite point",
            {"iterations": 1, "eps": 0.1},
            id="cip_loo-nan",
        ),
        # eps >= 9 R^2 makes the certified ceiling 1, so the cap is 10 calls
        pytest.param(
            lambda: separating_hyperplane_fw(_CreepingLooBall(_FAR), np.zeros(2), _FAR, 9.0),
            "nearest-point loop exceeded 10x its certified ceiling",
            {"ceiling": 1, "iterations": 10, "eps": 9.0},
            id="fw-cap",
        ),
    ],
)
def test_separating_run_refuses_a_broken_oracle(call, message, diagnostics):
    with pytest.raises(OracleContractError, match=message) as exc:
        call()
    assert diagnostics.items() <= exc.value.diagnostics.items()
