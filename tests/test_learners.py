import dataclasses
import json
import math

import numpy as np
import pytest

from pfoco import learners, projection
from pfoco.cli import main as cli_main
from pfoco.geometry import Ball, Box, L1Ball, OracleCounters, Simplex, squeeze
from pfoco.harness import ConfigError, learner_params, run_learner
from pfoco.learners import (
    STRETCH_CHUNK,
    loo_bbgd_params,
    loo_bogd_params,
    loo_bogd_sc_params,
    loo_run,
    ogd_wf_run,
    so_bgd_params,
    so_ogd_params,
    so_run,
    theoretical_bounds,
)
from pfoco.losses import (
    LinearLosses,
    LossSchedule,
    QuadraticLosses,
    bandit_gradient_estimate,
    make_iid_absdev_schedule,
    make_iid_linear_schedule,
    make_iid_quadratic_schedule,
    make_switching_linear_schedule,
    make_switching_quadratic_schedule,
    sample_unit_sphere,
)
from pfoco.projection import SoProjection, cip_loo, cip_so
from support import (
    INTERIOR_KINDS,
    SET_KINDS,
    assert_refused,
    check_cip_loo_record,
    check_cip_so_records,
    cip_loo_literal,
    make_polytope,
    random_set,
    record_outward_schedule,
)


# ----------------------------------------------------------------------
# parameter builders


def test_loo_bogd_parameters_at_reference_horizon():
    ball = Ball(2, 1.0)
    p = loo_bogd_params(ball, 1.0, 10000)
    assert p.K == 500 and p.B == 20
    assert p.eta == pytest.approx(1e-3)
    assert p.eps == pytest.approx(0.6)


def test_loo_bogd_block_length_clamps():
    ball = Ball(2, 1.0)
    assert loo_bogd_params(ball, 1.0, 1).K == 1
    assert loo_bogd_params(ball, 1.0, 4).K == 4  # ceil(10) clamped to T


def test_sc_parameters_at_reference_horizon():
    ball = Ball(2, 1.0)
    p = loo_bogd_sc_params(ball, 1.0, 1000, alpha=1.0)
    assert p.K == 100 and p.B == 10
    assert p.eps_m[0] == pytest.approx(25.0)
    assert p.eta_m[0] == pytest.approx(0.02)
    assert p.eta_m[4] == pytest.approx(2.0 / (1.0 * 100 * 5))


def test_sc_parameters_name_the_horizon_floor():
    ball = Ball(2, 1.0)
    with pytest.raises(ValueError, match=r"T >= 27\*\(alpha\*R/G_f\)\^2"):
        loo_bogd_sc_params(ball, 0.1, 100, alpha=2.0)


def test_bandit_loo_parameters_at_reference_horizon():
    ball = Ball(2, 1.0)
    p = loo_bbgd_params(ball, 1.0, 10000, c=5.0)
    assert p.delta == pytest.approx(0.5)
    assert p.K == 1200
    assert p.B == 9
    assert p.eta == pytest.approx((1.0 / math.sqrt(2.0)) * 1e-3)
    assert p.eps == pytest.approx(0.25 / 3.0)


def test_bandit_loo_parameters_name_the_margin_constraint():
    ball = Ball(2, 1.0)
    with pytest.raises(ValueError, match=r"c\*T\^\(-1/4\) < r"):
        loo_bbgd_params(ball, 1.0, 16, c=3.0)


def test_so_ogd_parameters_and_default_constant():
    ball = Ball(2, 1.0)
    p = so_ogd_params(ball, 1.0, 10000, c=4.0)
    assert p.delta == pytest.approx(0.04)
    assert p.eta == pytest.approx(0.005)
    assert so_ogd_params(ball, 1.0, 10000).c == pytest.approx(4.0)  # 4R/r
    with pytest.raises(ValueError, match=r"c\*T\^\(-1/2\) < 1"):
        so_ogd_params(ball, 1.0, 9, c=4.0)


def test_so_bgd_parameters_and_constraints():
    ball = Ball(2, 1.0)
    p = so_bgd_params(ball, 1.0, 10000)
    assert p.c == pytest.approx(8.0)
    assert p.c_prime == pytest.approx(math.sqrt(2.0))
    assert p.delta == pytest.approx(0.8)
    assert p.delta_prime == pytest.approx(math.sqrt(2.0) / 10.0)
    with pytest.raises(ValueError, match=r"c\*T\^\(-1/4\) < 1"):
        so_bgd_params(ball, 1.0, 10000, c=11.0)
    with pytest.raises(ValueError, match=r"2\*c'\*T\^\(-1/4\) < r"):
        so_bgd_params(ball, 1.0, 10000, c_prime=6.0)


def test_so_bgd_refuses_non_positive_constants_by_name():
    ball = Ball(2, 1.0)
    for c in (0.0, -1.0):
        with pytest.raises(ValueError, match=r"needs c > 0"):
            so_bgd_params(ball, 1.0, 10000, c=c)
        with pytest.raises(ValueError, match=r"needs c_prime > 0"):
            so_bgd_params(ball, 1.0, 10000, c_prime=c)


def test_loo_bogd_sc_refuses_a_block_length_outside_the_horizon():
    ball = Ball(2, 1.0)
    for K in (0, -3, 1001):
        with pytest.raises(ValueError, match=r"needs 1 <= K <= T"):
            loo_bogd_sc_params(ball, 1.0, 1000, alpha=1.0, K=K)
    assert loo_bogd_sc_params(ball, 1.0, 1000, alpha=1.0, K=1000).B == 1


def test_ogd_wf_run_refuses_steps_that_are_not_positive_and_finite():
    ball = Ball(2, 1.0)
    sched = make_iid_linear_schedule(5, 2, ball.R, np.random.default_rng(0))
    for etas in (0.0, -0.1, np.inf, np.nan, np.array([0.1, 0.1, -0.1, 0.1, 0.1])):
        with pytest.raises(ValueError, match="etas must be positive and finite"):
            ogd_wf_run(ball, sched, etas)


def test_parameter_builders_need_a_horizon():
    ball = Ball(2, 1.0)
    for build in (
        lambda T: loo_bogd_params(ball, 1.0, T),
        lambda T: loo_bbgd_params(ball, 1.0, T, c=0.5),
        lambda T: so_ogd_params(ball, 1.0, T),
        lambda T: so_bgd_params(ball, 1.0, T),
    ):
        for T in (0, -3):
            with pytest.raises(ValueError, match=r"needs T >= 1"):
                build(T)


_MARGIN = "needs an interior margin r > 0"


def _validate_on_simplex(tmp_path, learner):
    """``pfoco validate`` on iid linear losses over the simplex, which has r = 0."""
    cfg = {"T": 100, "set": {"kind": "simplex", "n": 3}, "loss": {"kind": "iid_linear"}, "learner": learner}
    path = tmp_path / "simplex.json"
    path.write_text(json.dumps(cfg))
    return cli_main(["validate", str(path)])


def _linear_schedule(T):
    return make_iid_linear_schedule(T, 2, 1.0, np.random.default_rng(0))


@pytest.mark.parametrize(
    "call, want, message",
    [
        pytest.param(lambda tmp: loo_bbgd_params(Simplex(3), 1.0, 100, c=0.5), ValueError, _MARGIN, id="loo_bbgd"),
        pytest.param(lambda tmp: so_ogd_params(Simplex(3), 1.0, 100), ValueError, _MARGIN, id="so_ogd"),
        pytest.param(lambda tmp: so_bgd_params(Simplex(3), 1.0, 100), ValueError, _MARGIN, id="so_bgd"),
        pytest.param(lambda tmp: _validate_on_simplex(tmp, {"kind": "loo_bbgd", "c": 0.5}), 2, _MARGIN, id="validate-loo_bbgd"),
        pytest.param(lambda tmp: _validate_on_simplex(tmp, {"kind": "so_ogd"}), 2, _MARGIN, id="validate-so_ogd"),
        pytest.param(lambda tmp: _validate_on_simplex(tmp, {"kind": "so_bgd"}), 2, _MARGIN, id="validate-so_bgd"),
        pytest.param(
            lambda tmp: learner_params({"kind": "loo_bogd_sc"}, Ball(2, 1.0), _linear_schedule(100), 100),
            ConfigError,
            "learner parameters rejected: needs a strongly convex schedule (alpha > 0)",
            id="loo_bogd_sc-linear",
        ),
        pytest.param(
            lambda tmp: ogd_wf_run(Ball(2, 1.0), _linear_schedule(5), np.full(4, 0.1)),
            ValueError,
            "etas must be a scalar or a length-T array",
            id="ogd_wf-etas",
        ),
        pytest.param(
            lambda tmp: theoretical_bounds(dataclasses.replace(so_ogd_params(Ball(2, 1.0), 1.0, 100), kind="ogd_wf")),
            ValueError,
            "learner kind 'ogd_wf' has no governing bounds",
            id="bounds-ogd_wf",
        ),
        pytest.param(
            lambda tmp: theoretical_bounds(dataclasses.replace(so_ogd_params(Ball(2, 1.0), 1.0, 100), kind="adagrad")),
            ValueError,
            "unknown learner kind 'adagrad'",
            id="bounds-unknown",
        ),
    ],
)
def test_learner_refusals_by_name(call, want, message, tmp_path, capsys):
    assert_refused(lambda: call(tmp_path), want, message, capsys)


def test_reference_bounds_reproduce_hand_values():
    ball = Ball(2, 1.0)
    b = theoretical_bounds(so_ogd_params(ball, 1.0, 10000, c=4.0))
    assert b["regret"] == pytest.approx(825.0)
    assert b["oracle_calls"] == pytest.approx((5.0 / 4.0 + 1.0 / 64.0) * 10000)
    b = theoretical_bounds(loo_bogd_params(ball, 1.0, 10000))
    assert b["regret"] == pytest.approx(math.sqrt(1.8) * 1e4 + 2000 + 4000 + 2500)
    assert b["regret"] <= 20.0 * 1e4**0.5 + 20.0 * 1e4**0.75  # closed display form
    assert b["oracle_calls"] == pytest.approx(9868.75)
    assert b["oracle_calls"] <= 10000


def test_so_bgd_bounds_match_plugged_display_form():
    ball = Ball(2, 1.0)
    p = so_bgd_params(ball, 1.0, 10000, G_f=1.0)
    b = theoretical_bounds(p)
    R = r = G = 1.0
    nM = 2.0
    display_calls = 10000 + (R / 4.0) * 10000**0.75 + (r * r / 256.0) * 100.0
    assert b["oracle_calls"] == pytest.approx(display_calls)
    display_regret = (
        R * math.sqrt(nM) * (4 * G / r + 4 / r + r / (8 * R)) * 10000**0.75
        + (8 * G * R / r) * 10000**0.75
        + G * R * (8 * math.sqrt(nM) / r**2) * 100.0
    )
    assert b["regret"] <= display_regret + 1e-9


# ----------------------------------------------------------------------
# exact-projection OGD baseline


def test_ogd_baseline_static_regret_bound():
    rng = np.random.default_rng(109)
    ball = Ball(3, 1.0)
    T = 300
    sched = make_iid_linear_schedule(T, 3, ball.R, rng)
    eta = ball.R / (sched.G_f * math.sqrt(T))
    trace = ogd_wf_run(ball, sched, eta)
    assert all(ball.contains(x) for x in trace.plays)
    c_sum = sched.family.C[sched.rows].sum(axis=0)
    x_star = ball.loo(c_sum)
    regret = float(trace.losses.sum() - c_sum @ x_star)
    bound = np.sum((trace.plays[0] - x_star) ** 2) / (2 * eta) + 0.5 * eta * float(np.sum(trace.grad_norms**2))
    assert regret <= bound + 1e-9


def test_ogd_baseline_strongly_convex_step_schedule():
    rng = np.random.default_rng(113)
    ball = Ball(2, 1.0)
    T = 400
    alpha = 1.5
    sched = make_iid_quadratic_schedule(T, 2, ball.R, rng, alpha=alpha, spread=0.2)
    etas = 1.0 / (alpha * np.arange(1, T + 1))
    trace = ogd_wf_run(ball, sched, etas)
    x_star = ball.project(sched.family.B[sched.rows].mean(axis=0))
    opt = sum(sched.family.value(i, x_star) for i in sched.rows)
    regret = float(trace.losses.sum() - opt)
    bound = float(np.sum(trace.grad_norms**2 / (2.0 * alpha * np.arange(1, T + 1))))
    assert regret <= bound + 1e-9


def test_ogd_wf_records_a_step_schedule_by_its_first_and_last_step():
    ball = Ball(2, 1.0)
    for T in (64, 65):
        sched = make_switching_linear_schedule(T, 2, 1.0, [(T, [1.0, 0.0])])
        steps = 1.0 / np.arange(1, T + 1)  # alpha = 1
        decaying = run_learner({"kind": "ogd_wf", "alpha": 1.0}, ball, sched, T, None).params["etas"]
        constant = run_learner({"kind": "ogd_wf", "eta": 0.1}, ball, sched, T, None).params["etas"]
        if T <= 64:
            assert decaying == steps.tolist() and constant == [0.1] * T
        else:
            assert decaying == {"first": 1.0, "last": 1.0 / 65} and constant == 0.1


def _per_round_ogd_wf_run(set_, schedule, etas):
    """ogd_wf one round at a time: value, subgradient, norm and exact
    projection each round; also the rounds whose projection moved the
    point."""
    family, T = schedule.family, schedule.T
    x = np.array(set_.center, dtype=np.float64)
    plays, losses, gnorms = np.empty((T, set_.n)), np.empty(T), np.empty(T)
    moved = 0
    for t in range(T):
        i = schedule.rows[t]
        plays[t] = x
        losses[t] = family.value(i, x)
        g = family.subgrad(i, x)
        gnorms[t] = np.linalg.norm(g)
        step = x - etas[t] * g
        x = set_.project(step)
        moved += not np.array_equal(x, step)
    return plays, losses, gnorms, moved


@pytest.mark.parametrize("kind", SET_KINDS)
def test_ogd_wf_run_equals_the_per_round_loop(kind):
    """ogd_wf_run, whose losses are one values call after its loop,
    against the per-round loop on random sets of each kind, over iid
    linear, quadratic (targets out to 2R) and abs-dev losses, with a
    constant step and with 1/(alpha t)."""
    rng = np.random.default_rng(131)
    T, alpha = 80, 1.5
    moved = {"constant": 0, "1/(alpha t)": 0}  # rounds whose projection acts
    for _ in range(3):
        set_ = random_set(rng, kind)
        n, R = set_.n, set_.R
        for sched in (
            make_iid_linear_schedule(T, n, R, rng),
            make_iid_quadratic_schedule(T, n, R, rng, alpha=alpha, spread=2.0 * R),
            make_iid_absdev_schedule(T, n, R, rng),
        ):
            eta = R / (sched.G_f * math.sqrt(T))
            decaying = 1.0 / (alpha * np.arange(1, T + 1))
            for name, etas, steps in (("constant", eta, np.full(T, eta)), ("1/(alpha t)", decaying, decaying)):
                trace = ogd_wf_run(set_, sched, etas)
                plays, losses, gnorms, rounds = _per_round_ogd_wf_run(set_, sched, steps)
                assert np.array_equal(trace.plays, plays)
                assert np.array_equal(trace.losses, losses)
                assert np.array_equal(trace.grad_norms, gnorms)
                moved[name] += rounds
    assert min(moved.values()) > 0, moved


# ----------------------------------------------------------------------
# blocked LOO learner


def _small_bogd_setup(T=240, seed=127):
    rng = np.random.default_rng(seed)
    ball = Ball(3, 1.0)
    sched = make_iid_linear_schedule(T, 3, ball.R, rng)
    params = loo_bogd_params(ball, sched.G_f, T, K=40)
    return ball, sched, params


def test_loo_bogd_block_structure():
    ball, sched, params = _small_bogd_setup()
    trace = loo_run(ball, sched, params)
    T, K, B = params.T, params.K, params.B
    assert len(trace.projections) == B - 1
    assert trace.block_index[0] == 1 and trace.block_index[-1] == B
    for m in range(1, B + 1):
        rows = trace.plays[trace.block_index == m]
        assert np.all(rows == rows[0])  # plays constant within a block
    # first two blocks play the start point
    np.testing.assert_array_equal(trace.plays[0], ball.center)
    np.testing.assert_array_equal(trace.plays[K], ball.center)
    assert all(ball.contains(x) for x in trace.plays[:: K // 2])
    assert trace.counters.loo_calls == sum(r.loo_calls for r in trace.projections)
    assert np.all(np.diff(trace.loo_cum) >= 0)
    assert trace.loo_cum[-1] == trace.counters.loo_calls
    assert trace.counters.so_calls == 0


def test_loo_bogd_projection_budgets_and_input_bound():
    ball, sched, params = _small_bogd_setup()
    trace = loo_run(ball, sched, params)
    K, G = params.K, sched.G_f
    for j, rec in enumerate(trace.projections):
        check_cip_loo_record(rec)
        m = j + 2
        eps_prev = float(params.eps_m[m - 3]) if m >= 3 else 0.0
        eta_prev = float(params.eta_m[m - 2])
        length = min(K, params.T - (m - 2) * K)
        bound = 6.0 * eps_prev + 2.0 * (eta_prev * length * G) ** 2
        assert rec.input_dist_sq <= bound + 1e-9


def test_loo_bogd_matches_eager_end_of_block_realization():
    # computing the next block's projection immediately after the last
    # update of the current block must give bit-identical traces
    ball, sched, params = _small_bogd_setup()
    expected = loo_run(ball, sched, params)

    T, K, B = params.T, params.K, params.B
    counters = OracleCounters()
    start = np.array(ball.center)
    anchors = [start, start.copy()]
    targets = [start.copy(), start.copy()]
    y = start.copy()
    plays = np.empty((T, ball.n))
    losses = np.empty(T)
    pending = None
    t = 0
    for m in range(1, B + 1):
        if m >= 2:
            anchors.append(pending.x)
            targets.append(pending.y)
            y = targets[m - 1].copy()
        play = anchors[m - 1]
        target = targets[m - 1]
        eta = float(params.eta_m[m - 1])
        for _ in range(min(K, T - (m - 1) * K)):
            i = sched.rows[t]
            plays[t] = play
            losses[t] = sched.family.value(i, play)
            y = y - eta * sched.family.subgrad(i, target)
            t += 1
        if m + 1 <= B:
            pending = cip_loo(ball, anchors[m - 1], y, float(params.eps_m[m]), counters)

    np.testing.assert_array_equal(plays, expected.plays)
    np.testing.assert_array_equal(losses, expected.losses)


def _per_round_loo_run(set_, schedule, params, rng=None):
    """The blocked learner one round at a time: plays, losses, gradient
    norms, cumulative LOO counts and the (anchor, y, eps) input of every
    projection.  With an rng it is the bandit loop (loo_bbgd): anchors on
    the squeezed set, z = anchor + delta*u_t, the value at z, then a
    step along the one-point estimate; its gradient norms are None."""
    T, K, B, n = params.T, params.K, params.B, set_.n
    bandit = rng is not None
    delta = params.delta
    view = squeeze(set_, 1.0 - delta / set_.r) if bandit else set_
    U = sample_unit_sphere(rng, n, T) if bandit else None
    family = schedule.family
    counters = OracleCounters()
    start = np.array(view.center)
    anchor, target = start, start.copy()
    upcoming = (start.copy(), start.copy())
    y = start.copy()
    plays, losses = np.empty((T, n)), np.empty(T)
    gnorms = None if bandit else np.empty(T)
    loo_cum = np.empty(T, dtype=np.int64)
    inputs = []
    for m in range(1, B + 1):
        if m >= 2:
            eps = float(params.eps_m[m - 1])
            inputs.append((anchor, y, eps))
            res = cip_loo(view, anchor, y, eps, counters)
            (anchor, target), upcoming = upcoming, (res.x, res.y)
            y = target.copy()
        eta = float(params.eta_m[m - 1])
        for t in range((m - 1) * K, min(m * K, T)):
            i = schedule.rows[t]
            if bandit:
                z = anchor + delta * U[t]
                plays[t] = z
                val = family.value(i, z)
                losses[t] = val
                y = y - eta * bandit_gradient_estimate(val, U[t], n, delta)
            else:
                plays[t] = anchor
                losses[t] = family.value(i, anchor)
                g = family.subgrad(i, target)
                gnorms[t] = np.linalg.norm(g)
                y = y - eta * g
            loo_cum[t] = counters.loo_calls
    return plays, losses, gnorms, loo_cum, inputs


def _assert_run_equals_per_round_loop(set_, sched, params, monkeypatch, play_seed=None):
    seen = []

    def recording_cip_loo(view, x0, y0, eps, counters):
        seen.append((x0.copy(), y0.copy(), eps))
        return cip_loo(view, x0, y0, eps, counters)

    monkeypatch.setattr(learners, "cip_loo", recording_cip_loo)

    def play_rng():
        return None if play_seed is None else np.random.default_rng(play_seed)

    trace = loo_run(set_, sched, params, play_rng())
    plays, losses, gnorms, loo_cum, inputs = _per_round_loo_run(set_, sched, params, play_rng())
    assert np.array_equal(trace.plays, plays)
    assert np.array_equal(trace.losses, losses)
    assert (trace.grad_norms is None) if gnorms is None else np.array_equal(trace.grad_norms, gnorms)
    assert np.array_equal(trace.loo_cum, loo_cum)
    assert len(seen) == len(inputs) == params.B - 1
    for (x0, y0, eps), (ref_x0, ref_y0, ref_eps) in zip(seen, inputs):
        assert np.array_equal(x0, ref_x0) and np.array_equal(y0, ref_y0) and eps == ref_eps
    assert any(rec.outer_iterations > 0 for rec in trace.projections)


# T = 250 with K = 40: blocks start at rounds 1, 41, ..., 241 and the
# last block has 10 rounds; segment boundaries at rounds 56, 126 and 166
# fall inside blocks
_SEGMENTS = [(55, [1.0, -0.5, 0.2]), (70, [-1.5, 0.3, 1.0]), (40, [0.2, 2.0, -0.7]), (85, [0.9, 0.4, -1.8])]


_SCHEDULES = {
    "switching_linear": lambda R: make_switching_linear_schedule(250, 3, R, _SEGMENTS, gain=2.0),
    "switching_quadratic": lambda R: make_switching_quadratic_schedule(250, 3, R, _SEGMENTS, alpha=1.0),
    "iid_linear": lambda R: make_iid_linear_schedule(250, 3, R, np.random.default_rng(41)),
    "iid_quadratic": lambda R: make_iid_quadratic_schedule(250, 3, R, np.random.default_rng(43), spread=2.0),
    "iid_absdev": lambda R: make_iid_absdev_schedule(250, 3, R, np.random.default_rng(47)),
}


@pytest.mark.parametrize("make", list(_SCHEDULES.values()), ids=list(_SCHEDULES))
def test_loo_run_collapsed_blocks_equal_the_per_round_loop(make, monkeypatch):
    set_ = L1Ball(3, 1.0)
    sched = make(set_.R)
    params = loo_bogd_params(set_, sched.G_f, sched.T, eta=0.05, eps=0.01, K=40)
    assert params.T % params.K != 0
    _assert_run_equals_per_round_loop(set_, sched, params, monkeypatch)


@pytest.mark.parametrize("make", list(_SCHEDULES.values()), ids=list(_SCHEDULES))
def test_loo_run_bandit_blocks_equal_the_per_round_loop(make, monkeypatch):
    # the theorem block length is the whole horizon at this scale; K = 40
    # and a larger step put segment switches inside blocks, leave a
    # 10-round last block and make the projections leave their anchors
    set_ = L1Ball(3, 1.0)
    sched = make(set_.R)
    p = loo_bbgd_params(set_, sched.M, sched.T, c=1.0, G_f=sched.G_f)
    B = math.ceil(p.T / 40)
    params = dataclasses.replace(p, K=40, B=B, eta_m=np.full(B, 0.05), eps_m=np.full(B, p.eps))
    assert params.T % params.K != 0
    _assert_run_equals_per_round_loop(set_, sched, params, monkeypatch, play_seed=5)


@pytest.mark.parametrize("kind", ["l1", "polytope"])
def test_loo_run_equals_the_paper_literal_projection(kind, monkeypatch):
    # implied pull-loop passes and the LOO call skipped at a close iterate
    # save LOO calls and change nothing else
    set_ = L1Ball(3, 1.0) if kind == "l1" else make_polytope(np.random.default_rng(71), 3)
    sched = make_switching_linear_schedule(250, 3, set_.R, _SEGMENTS, gain=2.0)
    params = loo_bogd_params(set_, sched.G_f, sched.T, eta=0.05, eps=0.01, K=40)
    trace = loo_run(set_, sched, params)
    monkeypatch.setattr(learners, "cip_loo", cip_loo_literal)
    ref = loo_run(set_, sched, params)
    assert np.array_equal(trace.plays, ref.plays) and np.array_equal(trace.losses, ref.losses)
    assert np.array_equal(trace.block_index, ref.block_index)
    for rec, ref_rec in zip(trace.projections, ref.projections, strict=True):
        assert np.array_equal(rec.x, ref_rec.x) and np.array_equal(rec.y, ref_rec.y)
        assert rec.outer_iterations == ref_rec.outer_iterations
        assert rec.anchor_dists == ref_rec.anchor_dists
        assert rec.literal_loo_calls == ref_rec.loo_calls
    implied = sum(rec.implied_passes for rec in trace.projections)
    close_runs = sum(rec.close_runs for rec in trace.projections)
    assert implied > 0
    assert close_runs > 0 or kind == "polytope"  # every polytope run ends separated
    assert ref.counters.loo_calls == trace.counters.loo_calls + implied + close_runs


def test_loo_bogd_strongly_convex_schedule_arrays():
    rng = np.random.default_rng(131)
    ball = Ball(2, 1.0)
    T = 400
    sched = make_iid_quadratic_schedule(T, 2, ball.R, rng, alpha=1.0, spread=0.2)
    params = loo_bogd_sc_params(ball, sched.G_f, T, alpha=1.0)
    trace = loo_run(ball, sched, params)
    assert len(trace.projections) == params.B - 1
    for j, rec in enumerate(trace.projections):
        check_cip_loo_record(rec)
        assert rec.eps == pytest.approx(float(params.eps_m[j + 1]))
    assert all(ball.contains(x) for x in trace.plays[:: params.K])


def test_loo_bogd_rejects_foreign_params():
    ball, sched, _ = _small_bogd_setup()
    with pytest.raises(ValueError):
        loo_run(ball, sched, so_ogd_params(ball, 1.0, sched.T))


# ----------------------------------------------------------------------
# bandit LOO learner


def test_loo_bbgd_plays_feasible_and_deterministic():
    rng = np.random.default_rng(137)
    box = Box([-1.0, -1.0], [1.0, 1.0])
    T = 256
    sched = make_iid_linear_schedule(T, 2, box.R, rng)
    params = loo_bbgd_params(box, sched.M, T, c=1.0, G_f=sched.G_f)
    view = squeeze(box, 1.0 - params.delta / box.r)
    tr1 = loo_run(box, sched, params, np.random.default_rng(7))
    tr2 = loo_run(box, sched, params, np.random.default_rng(7))
    np.testing.assert_array_equal(tr1.plays, tr2.plays)
    with pytest.raises(ValueError, match="loo_bbgd' needs an rng"):
        loo_run(box, sched, params)
    assert all(box.contains(z) for z in tr1.plays)
    for rec in tr1.projections:
        check_cip_loo_record(rec)
        assert view.contains(rec.x)
    assert tr1.counters.loo_calls == sum(r.loo_calls for r in tr1.projections)


# ----------------------------------------------------------------------
# SO learners


def test_so_ogd_round_mechanics():
    rng = np.random.default_rng(139)
    ball = Ball(2, 1.0)
    T = 400
    sched = make_iid_linear_schedule(T, 2, ball.R, rng)
    params = so_ogd_params(ball, sched.G_f, T)
    trace = so_run(ball, sched, params)
    assert len(trace.projections) == T  # one projection per round
    assert all(ball.contains(x) for x in trace.plays)
    assert trace.counters.so_calls == sum(r.so_calls for r in trace.projections)
    assert trace.counters.so_calls >= T
    assert trace.counters.loo_calls == 0
    check_cip_so_records(trace, ball)
    assert all(ball.contains(y) for y in trace.projections.outputs[:: T // 50])


def test_so_bgd_round_mechanics():
    rng = np.random.default_rng(149)
    ball = Ball(2, 1.0)
    T = 256
    sched = make_iid_linear_schedule(T, 2, ball.R, rng)
    params = so_bgd_params(ball, sched.M, T, c=2.0, c_prime=1.0, G_f=sched.G_f)
    trace = so_run(ball, sched, params, np.random.default_rng(3))
    assert all(ball.contains(z) for z in trace.plays)
    scale = 1.0 - params.delta_prime / ball.r
    check_cip_so_records(trace, ball)
    assert all(ball.contains(y / scale) for y in trace.projections.outputs[:: T // 40])
    again = so_run(ball, sched, params, np.random.default_rng(3))
    np.testing.assert_array_equal(trace.plays, again.plays)
    with pytest.raises(ValueError, match="so_bgd' needs an rng"):
        so_run(ball, sched, params)


def _per_round_so_run(set_, schedule, params, rng=None):
    """so_run one round at a time, with cip_so on every round: plays,
    losses, gradient norms, cumulative SO counts, each projection's input
    and output, and the counters.  With an rng it is the bandit loop
    (so_bgd); its gradient norms are None."""
    T, n = params.T, set_.n
    bandit = rng is not None
    dp = params.delta_prime if bandit else 0.0
    U = sample_unit_sphere(rng, n, T) if bandit else None
    family = schedule.family
    counters = OracleCounters()
    ytil = np.zeros(n)
    plays, losses = np.empty((T, n)), np.empty(T)
    gnorms = None if bandit else np.empty(T)
    so_cum = np.empty(T, dtype=np.int64)
    inputs, outputs = np.empty((T, n)), np.empty((T, n))
    for t in range(T):
        i = schedule.rows[t]
        if bandit:
            z = ytil + dp * U[t]
            plays[t] = z
            val = family.value(i, z)
            losses[t] = val
            g = bandit_gradient_estimate(val, U[t], n, dp)
        else:
            plays[t] = ytil
            losses[t] = family.value(i, ytil)
            g = family.subgrad(i, ytil)
            gnorms[t] = np.linalg.norm(g)
        y_in = ytil - params.eta * g
        ytil = cip_so(set_, set_.r, params.delta, dp, y_in, counters).y
        inputs[t], outputs[t] = y_in, ytil
        so_cum[t] = counters.so_calls
    return plays, losses, gnorms, so_cum, inputs, outputs, counters


def _mixed_runs_on_the_ball(T, quadratic=False):
    # one-round runs (iid rows) first, then long runs of equal rows that
    # carry the iterate from the interior across the sphere (linear), or
    # toward targets of norm 2 outside it (quadratic)
    lengths = [1] * 60 + [150, 1, 1, 120, 2, 1, 160, 1, 4]
    assert sum(lengths) == T
    C = sample_unit_sphere(np.random.default_rng(53), 3, len(lengths))
    rows = np.repeat(np.arange(len(lengths)), lengths)
    if quadratic:
        family = QuadraticLosses(1.0, 2.0 * C)
        return LossSchedule(family, rows, [1], *family.bounds(1.0))
    return LossSchedule(LinearLosses(C), rows, [1], G_f=1.0, M=1.0)


def _chunk_regimes(schedule, calls, inputs, outputs, R, known):
    """The regimes of so_run's chunk pass that a run meets, read off its
    SO columns, and the SO calls charged before each block query it
    makes.  Chunks start at round 0, after a chunk whose every round is
    accepted and after the round that ends a chunk early (refused, or in
    need of the rescale).  Known steps take chunks of STRETCH_CHUNK
    rounds; speculative steps take one round after an early end and
    double the length after each full chunk, up to STRETCH_CHUNK.  A
    one-round chunk goes to cip_so, and is full if its round takes one
    SO call; it makes no block query, nor does a chunk whose first input
    needs the rescale."""
    accepted = (calls == 1) & np.all(inputs == outputs, axis=1)
    rescaled = np.array([math.sqrt(y.dot(y)) > R for y in inputs])
    starts, blocks, t, size = [], [], 0, STRETCH_CHUNK
    while t < len(calls):
        starts.append(t)
        run = accepted[t : t + size]
        blocks.append(len(run) > 1)
        # a one-round chunk goes to cip_so whole, and counts as full after one call
        full = run.all() if len(run) > 1 else calls[t] == 1
        t += len(run) if full else int(run.argmin()) + 1
        if not known:
            size = min(2 * size, STRETCH_CHUNK) if full else 1
    starts, blocks = np.array(starts), np.array(blocks)
    last = starts[1:] - 1  # the last round of each chunk but the run's last
    switches = np.flatnonzero(np.diff(schedule.rows)) + 1
    ends = np.append(starts[1:], len(calls))
    found = {
        "full_chunk": bool(np.any((ends - starts == STRETCH_CHUNK) & accepted[ends - 1])),
        "refused_first_row": bool(np.any(~accepted[starts] & ~rescaled[starts])),
        "rescale_first_row": bool(np.any(rescaled[starts])),
        "rescale_stop": bool(np.any(rescaled[last] & (last > starts[:-1]))),
        "refused_later_row": bool(np.any(~accepted[last] & ~rescaled[last] & (last > starts[:-1]))),
        "one_round_segment": bool(np.any(np.diff(np.concatenate(([0], switches, [len(calls)]))) == 1)),
        "switch_on_chunk_edge": bool(np.intersect1d(switches, starts).size),
        "switch_inside_chunk": bool(np.any(accepted[switches - 1] & accepted[switches] & ~np.isin(switches, starts))),
    }
    queried = np.cumsum(calls) - calls  # SO calls charged before each round
    return {name for name, hit in found.items() if hit}, queried[starts[blocks & ~rescaled[starts]]].tolist()


def _so_run_recording_blocks(monkeypatch, *args):
    """so_run, and the SO calls charged before each block query it made."""
    asked, so_query = [], projection.so_query

    def record(set_, point, counters=None):
        if np.ndim(point) == 2:
            asked.append(counters.so_calls)
        return so_query(set_, point, counters)

    with monkeypatch.context() as m:
        m.setattr(projection, "so_query", record)
        return so_run(*args), asked


def _pull_heavy():
    # the two segments of the smoke_so_pull CI config; at c = 0.05 most
    # rounds pull, some of them more than ten times
    segments = [(200, [1.0, 0.5, -0.3, 0.2]), (200, [-0.4, -1.0, 0.6, 0.3])]
    return make_switching_linear_schedule(400, 4, 1.0, segments)


# on the l1 ball the switches at rounds 151 and 246 fall inside
# feasible stretches, and the longest stretch (110 rounds) spans several
# STRETCH_CHUNKs
_SO_SEGMENTS = [(150, [1.0, -0.5, 0.2, 0.4]), (95, [-1.5, 0.3, 1.0, 0.1]), (170, [0.2, 2.0, -0.7, -0.3]), (85, [0.9, 0.4, -1.8, 0.6])]
_CHUNK_REGIMES = {
    "full_chunk",
    "refused_first_row",
    "refused_later_row",
    "rescale_first_row",
    "rescale_stop",
    "one_round_segment",
    "switch_on_chunk_edge",
    "switch_inside_chunk",
}
# name: (set, schedule builder, bandit, c (None: the default), the chunk
# regimes the case must meet)
_SO_CASES = {
    "l1_switching_linear": (
        L1Ball(4, 1.0),
        lambda: make_switching_linear_schedule(500, 4, 1.0, _SO_SEGMENTS),
        False,
        None,
        {"full_chunk", "refused_first_row", "refused_later_row", "switch_inside_chunk"},
    ),
    "ball_linear_runs_and_iid": (
        Ball(3, 1.0),
        lambda: _mixed_runs_on_the_ball(500),
        False,
        None,
        {"full_chunk", "rescale_stop", "one_round_segment", "switch_on_chunk_edge"},
    ),
    "l1_pull_heavy": (L1Ball(4, 1.0), _pull_heavy, False, 0.05, {"refused_first_row", "rescale_first_row"}),
    # every round has its own row, so every segment is one round
    "l1_outward_recorded": (
        L1Ball(4, 1.0),
        lambda: record_outward_schedule(L1Ball(4, 1.0), 300, c=0.2),
        False,
        0.2,
        {"one_round_segment", "refused_first_row", "switch_inside_chunk"},
    ),
    "l1_switching_quadratic": (
        L1Ball(4, 1.0),
        lambda: make_switching_quadratic_schedule(500, 4, 1.0, _SO_SEGMENTS),
        False,
        None,
        {"full_chunk", "refused_later_row", "switch_inside_chunk"},
    ),
    # each long run reaches the sphere toward its target of norm 2
    "ball_quadratic_runs_and_iid": (
        Ball(3, 1.0),
        lambda: _mixed_runs_on_the_ball(500, quadratic=True),
        False,
        None,
        {"rescale_first_row", "rescale_stop", "one_round_segment", "switch_on_chunk_edge"},
    ),
    # a large gain makes the bandit steps long enough to pull
    "l1_switching_linear_bandit": (
        L1Ball(4, 1.0),
        lambda: make_switching_linear_schedule(500, 4, 1.0, _SO_SEGMENTS, gain=32.0),
        True,
        0.5,
        {"refused_first_row", "refused_later_row"},
    ),
}


def _known_steps(case) -> bool:
    """Whether so_run knows a case's steps before the run."""
    _, make, bandit, _, _ = case
    return not bandit and make().kind == "linear"


def test_so_cases_cover_every_chunk_regime():
    for known in (True, False):
        cases = [case for case in _SO_CASES.values() if _known_steps(case) == known]
        assert set().union(*(case[-1] for case in cases)) == _CHUNK_REGIMES


@pytest.mark.parametrize("case", list(_SO_CASES.values()), ids=list(_SO_CASES))
def test_so_run_equals_the_per_round_loop(case, monkeypatch):
    set_, make, bandit, c, regimes = case
    sched = make()
    if bandit:
        params = so_bgd_params(set_, sched.M, sched.T, c=c, c_prime=0.1, G_f=sched.G_f)
    else:
        params = so_ogd_params(set_, sched.G_f, sched.T, c=c)
    rng = (lambda: np.random.default_rng(9)) if bandit else (lambda: None)
    trace, asked = _so_run_recording_blocks(monkeypatch, set_, sched, params, rng())
    plays, losses, gnorms, so_cum, inputs, outputs, counters = _per_round_so_run(set_, sched, params, rng())
    assert np.array_equal(trace.plays, plays)
    assert np.array_equal(trace.losses, losses)
    assert (trace.grad_norms is None) if gnorms is None else np.array_equal(trace.grad_norms, gnorms)
    assert np.array_equal(trace.so_cum, so_cum)
    assert trace.counters == counters
    assert np.array_equal(trace.projections.inputs, inputs)
    assert np.array_equal(trace.projections.outputs, outputs)
    calls = np.diff(so_cum, prepend=0)
    assert [rec.so_calls for rec in trace.projections] == calls.tolist()
    # the projections pull on the l1 ball; on the ball the rescale is the projection
    assert (calls.max() > 1) == isinstance(set_, L1Ball)
    met, queried = _chunk_regimes(sched, calls, inputs, outputs, set_.R, _known_steps(case))
    assert met >= regimes
    assert asked == queried


@pytest.mark.parametrize("kind", INTERIOR_KINDS)
def test_so_run_equals_the_per_round_loop_on_random_sets(kind, monkeypatch):
    """The chunk pass against one cip_so per round on random sets of
    each kind, with known steps (full information, switching linear
    losses) and speculative ones (switching quadratics with targets at
    2R, and bandit feedback on the linear losses), all with steps of
    R/20 or of R/1e4, so that chunks end at a refusal or the rescale and
    run full."""
    rng = np.random.default_rng(79)
    stops = {True: set(), False: set()}
    for _ in range(6):
        set_ = random_set(rng, kind)
        n, T = set_.n, 2 * STRETCH_CHUNK + 40
        segments = [(STRETCH_CHUNK + 5, rng.standard_normal(n)), (STRETCH_CHUNK + 35, rng.standard_normal(n))]
        linear = make_switching_linear_schedule(T, n, set_.R, segments)
        full_info = so_ogd_params(set_, linear.G_f, T, c=float(rng.choice([0.05, 1.0])))
        eta = set_.R / rng.choice([20.0, 1e4])
        targets = [(length, 2.0 * set_.R * v / np.linalg.norm(v)) for length, v in segments]
        quad = make_switching_quadratic_schedule(T, n, set_.R, targets)
        # at c = 1: a quadratic's step pushes a play on the boundary out every round
        quad_info = so_ogd_params(set_, quad.G_f, T, c=1.0)
        bandit = so_bgd_params(set_, linear.M, T, c=0.5, c_prime=set_.r, G_f=linear.G_f)
        for sched, params, seed in ((linear, full_info, None), (quad, quad_info, None), (linear, bandit, 5)):
            params = dataclasses.replace(params, eta=eta)
            play_rng = (lambda: None) if seed is None else (lambda: np.random.default_rng(seed))
            trace, asked = _so_run_recording_blocks(monkeypatch, set_, sched, params, play_rng())
            plays, losses, gnorms, so_cum, inputs, outputs, counters = _per_round_so_run(set_, sched, params, play_rng())
            assert np.array_equal(trace.plays, plays) and np.array_equal(trace.losses, losses)
            assert (trace.grad_norms is None) if gnorms is None else np.array_equal(trace.grad_norms, gnorms)
            assert np.array_equal(trace.so_cum, so_cum)
            assert trace.counters == counters
            assert np.array_equal(trace.projections.inputs, inputs)
            assert np.array_equal(trace.projections.outputs, outputs)
            known = seed is None and sched.kind == "linear"
            met, queried = _chunk_regimes(sched, np.diff(so_cum, prepend=0), inputs, outputs, set_.R, known)
            assert asked == queried
            stops[known] |= met
    for met in stops.values():
        assert "full_chunk" in met
        assert met & {"refused_first_row", "refused_later_row", "rescale_first_row", "rescale_stop"}


def test_so_run_checks_the_projection_parameters_once_per_run():
    # steps this short never leave the ball, so no round calls cip_so
    ball = Ball(2, 1.0)
    sched = make_switching_linear_schedule(100, 2, 1.0, [(100, [1.0, 0.0])])
    params = dataclasses.replace(so_ogd_params(ball, sched.G_f, 100), eta=1e-4)
    assert so_run(ball, sched, params).counters.so_calls == 100
    for bad in (dict(delta=0.0), dict(delta=1.0), dict(delta=float("nan"))):
        with pytest.raises(ValueError, match="delta"):
            so_run(ball, sched, dataclasses.replace(params, **bad))
    bandit = so_bgd_params(ball, sched.M, 100, c=0.5, c_prime=0.1)
    with pytest.raises(ValueError, match="delta_prime"):
        so_run(ball, sched, dataclasses.replace(bandit, delta_prime=ball.r), np.random.default_rng(0))


def test_so_records_are_built_on_access_from_read_only_columns():
    set_ = L1Ball(4, 1.0)
    sched = make_switching_linear_schedule(500, 4, 1.0, _SO_SEGMENTS)
    trace = so_run(set_, sched, so_ogd_params(set_, sched.G_f, sched.T))
    recs = trace.projections
    assert len(recs) == 500
    last = recs[-1]
    assert isinstance(last, SoProjection)
    assert np.array_equal(last.y, recs.outputs[499]) and np.array_equal(last.y0, recs.inputs[499])
    assert last.so_calls == trace.so_cum[499] - trace.so_cum[498]
    assert recs[0].so_calls == trace.so_cum[0]
    assert [r.so_calls for r in recs[10:20:3]] == [recs[t].so_calls for t in (10, 13, 16, 19)]
    with pytest.raises(IndexError):
        recs[500]
    with pytest.raises(IndexError):
        recs[-501]
    with pytest.raises(ValueError):
        recs.inputs[0, 0] = 1.0
    with pytest.raises(ValueError):
        last.y[0] = 1.0
    check_cip_so_records(trace, set_)


def test_learners_reject_mismatched_horizon():
    rng = np.random.default_rng(151)
    ball = Ball(2, 1.0)
    sched = make_iid_linear_schedule(100, 2, ball.R, rng)
    params = so_ogd_params(ball, sched.G_f, 200)
    with pytest.raises(ValueError):
        so_run(ball, sched, params)
