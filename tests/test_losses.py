import dataclasses

import numpy as np
import pytest

from pfoco.losses import (
    AbsDevLoss,
    LinearLoss,
    QuadraticLoss,
    bandit_gradient_estimate,
    make_iid_absdev_schedule,
    make_iid_linear_schedule,
    make_iid_quadratic_schedule,
    make_switching_linear_schedule,
    make_switching_quadratic_schedule,
    sample_unit_ball,
    sample_unit_sphere,
    smoothed_value_mc,
)
from support import (
    block_sum_moment_bounds,
    block_sum_moment_samples,
    estimate_gradient_mc,
)


def _random_losses(rng, n, R):
    return [
        LinearLoss(rng.standard_normal(n), R),
        QuadraticLoss(rng.uniform(0.5, 2.0), 0.3 * rng.standard_normal(n), R, c=0.2 * rng.standard_normal(n)),
        AbsDevLoss(rng.standard_normal(n), rng.uniform(-1, 1), R),
    ]


def test_declared_bounds_hold_on_the_domain():
    rng = np.random.default_rng(73)
    for _ in range(10):
        n, R = int(rng.integers(2, 6)), rng.uniform(0.5, 2.0)
        for loss in _random_losses(rng, n, R):
            for _ in range(50):
                x = rng.standard_normal(n)
                x *= rng.uniform(0, R) / np.linalg.norm(x)
                val, g = loss.value(x), loss.subgrad(x)
                assert abs(val) <= loss.M + 1e-9
                assert np.linalg.norm(g) <= loss.G_f + 1e-9


def test_subgradient_inequality():
    rng = np.random.default_rng(79)
    for _ in range(10):
        n, R = int(rng.integers(2, 6)), 1.5
        for loss in _random_losses(rng, n, R):
            for _ in range(20):
                x = rng.standard_normal(n) * 0.5
                z = rng.standard_normal(n) * 0.5
                vx, g = loss.value(x), loss.subgrad(x)
                assert loss.value(z) >= vx + float(g @ (z - x)) - 1e-9


def test_quadratic_gradient_bound_is_tight():
    loss = QuadraticLoss(1.3, np.array([0.4, -0.2]), R=1.0, c=np.array([0.1, 0.3]))
    w = loss.alpha * loss.b - loss.c
    x_star = -loss.R * w / np.linalg.norm(w)
    assert np.linalg.norm(loss.subgrad(x_star)) == pytest.approx(loss.G_f, rel=1e-12)


def test_absdev_kink_subgradient_is_zero():
    loss = AbsDevLoss(np.array([1.0, 1.0]), 1.0, R=2.0)
    np.testing.assert_array_equal(loss.subgrad(np.array([0.5, 0.5])), [0.0, 0.0])


def test_sphere_and_ball_samplers():
    rng = np.random.default_rng(83)
    S = sample_unit_sphere(rng, 4, 5000)
    np.testing.assert_allclose(np.linalg.norm(S, axis=1), 1.0, atol=1e-12)
    B = sample_unit_ball(rng, 4, 5000)
    radii = np.linalg.norm(B, axis=1)
    assert np.all(radii <= 1.0 + 1e-12)
    # mean radius of a uniform ball draw is n/(n+1)
    sem = radii.std(ddof=1) / np.sqrt(radii.size)
    assert abs(radii.mean() - 4.0 / 5.0) <= 5 * sem
    # single draws work too
    assert np.linalg.norm(sample_unit_sphere(rng, 3)) == pytest.approx(1.0)
    assert np.linalg.norm(sample_unit_ball(rng, 3)) <= 1.0


def test_gradient_estimate_formula():
    u = np.array([0.6, 0.8])
    g = bandit_gradient_estimate(0.5, u, n=2, delta=0.1)
    np.testing.assert_allclose(g, (2 / 0.1) * 0.5 * u)
    with pytest.raises(ValueError):
        bandit_gradient_estimate(1.0, u, n=2, delta=0.0)


def test_estimator_mean_matches_linear_gradient():
    rng = np.random.default_rng(89)
    c = np.array([0.6, -0.2, 0.3])
    loss = LinearLoss(c, R=1.0)
    x = np.array([0.1, 0.2, -0.1])
    mean, sem = estimate_gradient_mc(loss, x, delta=0.5, samples=40000, rng=rng)
    assert np.all(np.abs(mean - c) <= 5 * sem + 1e-12)


def test_estimator_mean_matches_smoothed_quadratic_gradient():
    # ball smoothing leaves a quadratic's gradient unchanged
    rng = np.random.default_rng(97)
    loss = QuadraticLoss(1.2, np.array([0.3, -0.1]), R=1.0, c=np.array([0.05, 0.2]))
    x = np.array([0.2, 0.4])
    mean, sem = estimate_gradient_mc(loss, x, delta=0.4, samples=60000, rng=rng)
    assert np.all(np.abs(mean - loss.subgrad(x)) <= 5 * sem)


def test_smoothed_value_stays_within_delta_lipschitz_band():
    rng = np.random.default_rng(101)
    for loss in _random_losses(rng, 3, 1.0):
        x = np.array([0.2, -0.3, 0.1])
        delta = 0.3
        est, stderr = smoothed_value_mc(loss, x, delta, 20000, rng)
        assert abs(est - loss.value(x)) <= delta * loss.G_f + 5 * stderr


def test_block_sum_moments_within_bounds():
    rng = np.random.default_rng(103)
    L, n, R, delta = 6, 3, 1.0, 0.4
    sched = make_iid_linear_schedule(L, n, R, rng)
    C = sched.linear_coefficients()
    x = np.array([0.3, 0.0, 0.0])
    sq = block_sum_moment_samples(C, x, delta, blocks=20000, rng=rng)
    b2, b4 = block_sum_moment_bounds(L, n, sched.M, delta, sched.G_f)
    sem2 = sq.std(ddof=1) / np.sqrt(sq.size)
    q = sq * sq
    sem4 = q.std(ddof=1) / np.sqrt(q.size)
    assert sq.mean() <= b2 + 5 * sem2
    assert q.mean() <= b4 + 5 * sem4


def test_schedule_builders():
    rng = np.random.default_rng(107)
    s = make_iid_linear_schedule(100, 3, 1.0, rng, scale=0.7)
    assert s.T == 100 and s.kind == "linear"
    assert s.G_f == pytest.approx(0.7)
    assert s.M == pytest.approx(0.7)
    assert s.alpha_min == 0.0
    assert s.boundaries == [1]
    assert s.linear_coefficients().shape == (100, 3)

    sw = make_switching_linear_schedule(10, 2, 1.0, [(6, [1.0, 0.0]), (4, [0.0, -1.0])], gain=2.0)
    assert sw.boundaries == [1, 7]
    np.testing.assert_allclose(sw.loss_at(1).c, [-2.0, 0.0])
    np.testing.assert_allclose(sw.loss_at(7).c, [0.0, 2.0])
    with pytest.raises(ValueError):
        make_switching_linear_schedule(9, 2, 1.0, [(6, [1.0, 0.0]), (4, [0.0, 1.0])])

    q = make_switching_quadratic_schedule(8, 2, 1.0, [(8, [0.2, 0.1])], alpha=1.5)
    assert q.alpha_min == 1.5
    alpha, B, Clin = q.quadratic_parts()
    assert alpha == 1.5
    np.testing.assert_allclose(B[0], [0.2, 0.1])
    np.testing.assert_array_equal(Clin, np.zeros((8, 2)))

    with pytest.raises(ValueError):
        q.linear_coefficients()

    a = make_iid_absdev_schedule(50, 2, 1.0, rng)
    assert a.kind == "absdev"
    assert a.G_f == pytest.approx(1.0)


def test_schedule_tables_hold_one_loss_per_segment():
    segments = [(3, [1.0, 0.0]), (5, [0.0, -1.0]), (2, [1.0, 1.0])]
    sw = make_switching_linear_schedule(10, 2, 1.0, segments)
    assert len(sw.table) == 3
    assert sw.rows.tolist() == [0, 0, 0, 1, 1, 1, 1, 1, 2, 2]
    assert all(sw.loss_at(t) is sw.table[sw.rows[t - 1]] for t in range(1, 11))
    C = sw.linear_coefficients()
    np.testing.assert_array_equal(C, np.stack([f.c for f in sw.table])[sw.rows])
    q = make_switching_quadratic_schedule(10, 2, 1.0, segments, alpha=2.0)
    assert len(q.table) == 3 and q.rows.tolist() == sw.rows.tolist()
    _, B, _ = q.quadratic_parts()
    assert B.shape == (10, 2)
    np.testing.assert_array_equal(B[3:8], np.tile([0.0, -1.0], (5, 1)))

    iid = make_iid_quadratic_schedule(7, 2, 1.0, np.random.default_rng(3))
    assert len(iid.table) == 7 and iid.rows.tolist() == list(range(7))

    for bad in ([(0, [1.0, 0.0]), (10, [0.0, 1.0])], [(-2, [1.0, 0.0]), (12, [0.0, 1.0])], [(2.5, [1.0, 0.0])]):
        with pytest.raises(ValueError, match="positive integers"):
            make_switching_linear_schedule(10, 2, 1.0, bad)
    with pytest.raises(ValueError, match="outside the 3-row loss table"):
        dataclasses.replace(sw, rows=np.array([0, 3]))


def test_schedules_deterministic_given_seed():
    s1 = make_iid_linear_schedule(50, 3, 1.0, np.random.default_rng(5))
    s2 = make_iid_linear_schedule(50, 3, 1.0, np.random.default_rng(5))
    np.testing.assert_array_equal(s1.linear_coefficients(), s2.linear_coefficients())


def test_iid_quadratic_schedule_declared_curvature():
    sched = make_iid_quadratic_schedule(20, 2, 1.0, np.random.default_rng(9), alpha=2.0, spread=0.1)
    assert sched.alpha_min == 2.0
    assert sched.kind == "quadratic"
    # targets stay inside the spread ball, so G_f <= alpha*(R + spread)
    assert sched.G_f <= 2.0 * 1.1 + 1e-12
