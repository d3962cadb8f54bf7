import dataclasses

import numpy as np
import pytest

from pfoco.losses import (
    AbsDevLosses,
    LinearLosses,
    LossSchedule,
    QuadraticLosses,
    bandit_gradient_estimate,
    make_iid_absdev_schedule,
    make_iid_linear_schedule,
    make_iid_quadratic_schedule,
    make_switching_linear_schedule,
    make_switching_quadratic_schedule,
    sample_unit_ball,
    sample_unit_sphere,
)
from support import (
    assert_refused,
    block_sum_moment_bounds,
    block_sum_moment_samples,
    estimate_gradient_mc,
    smoothed_value_mc,
)


def _random_families(rng, n, k=4):
    return [
        LinearLosses(rng.standard_normal((k, n))),
        QuadraticLosses(rng.uniform(0.5, 2.0), 0.3 * rng.standard_normal((k, n))),
        AbsDevLosses(rng.standard_normal((k, n)), rng.uniform(-1, 1, k)),
    ]


def test_declared_bounds_hold_on_the_domain():
    rng = np.random.default_rng(73)
    for _ in range(10):
        n, R = int(rng.integers(2, 6)), rng.uniform(0.5, 2.0)
        for fam in _random_families(rng, n):
            G_f, M = fam.bounds(R)
            for _ in range(50):
                x = rng.standard_normal(n)
                x *= rng.uniform(0, R) / np.linalg.norm(x)
                for i in range(fam.shape[0]):
                    val, g = fam.value(i, x), fam.subgrad(i, x)
                    assert abs(val) <= M + 1e-9
                    assert np.linalg.norm(g) <= G_f + 1e-9


def test_subgradient_inequality():
    rng = np.random.default_rng(79)
    for _ in range(10):
        n = int(rng.integers(2, 6))
        for fam in _random_families(rng, n):
            for _ in range(20):
                x = rng.standard_normal(n) * 0.5
                z = rng.standard_normal(n) * 0.5
                for i in range(fam.shape[0]):
                    vx, g = fam.value(i, x), fam.subgrad(i, x)
                    assert fam.value(i, z) >= vx + float(g @ (z - x)) - 1e-9


def test_batched_values_equal_row_by_row():
    # the batched kernel rounds each dot product as the one-row path does
    rng = np.random.default_rng(71)
    for n in (2, 3, 8, 17):
        X = rng.standard_normal((300, n))
        I = rng.integers(0, 5, 300)
        for fam in _random_families(rng, n, k=5):
            want = np.array([fam.value(i, x) for i, x in zip(I, X)])
            assert np.array_equal(fam.values(I, X), want)


def test_quadratic_gradient_bound_is_tight():
    loss = QuadraticLosses(1.3, [[0.4, -0.2]])
    b = loss.B[0]
    x_star = -b / np.linalg.norm(b)  # R = 1
    assert np.linalg.norm(loss.subgrad(0, x_star)) == pytest.approx(loss.bounds(1.0)[0], rel=1e-12)


def test_families_check_their_rows():
    with pytest.raises(ValueError, match="alpha must be positive"):
        QuadraticLosses(0.0, [[0.1, 0.2]])
    with pytest.raises(ValueError, match=r"finite \(k, n\) array, got shape \(2,\)"):
        LinearLosses([0.1, 0.2])
    with pytest.raises(ValueError, match=r"finite \(k, n\) array"):
        LinearLosses([[0.1, np.inf]])
    with pytest.raises(ValueError, match="one finite offset per row"):
        AbsDevLosses([[1.0, 0.0], [0.0, 1.0]], [0.5])


def test_absdev_kink_subgradient_is_zero():
    loss = AbsDevLosses([[1.0, 1.0]], [1.0])
    np.testing.assert_array_equal(loss.subgrad(0, np.array([0.5, 0.5])), [0.0, 0.0])


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
    loss = LinearLosses([c])
    x = np.array([0.1, 0.2, -0.1])
    mean, sem = estimate_gradient_mc(loss, 0, x, delta=0.5, samples=40000, rng=rng)
    assert np.all(np.abs(mean - c) <= 5 * sem + 1e-12)


def test_estimator_mean_matches_smoothed_quadratic_gradient():
    # ball smoothing leaves a quadratic's gradient unchanged
    rng = np.random.default_rng(97)
    loss = QuadraticLosses(1.2, [[0.3, -0.1]])
    x = np.array([0.2, 0.4])
    mean, sem = estimate_gradient_mc(loss, 0, x, delta=0.4, samples=60000, rng=rng)
    assert np.all(np.abs(mean - loss.subgrad(0, x)) <= 5 * sem)


def test_smoothed_value_stays_within_delta_lipschitz_band():
    rng = np.random.default_rng(101)
    for fam in _random_families(rng, 3, k=1):
        x = np.array([0.2, -0.3, 0.1])
        delta = 0.3
        est, stderr = smoothed_value_mc(fam, 0, x, delta, 20000, rng)
        assert abs(est - fam.value(0, x)) <= delta * fam.bounds(1.0)[0] + 5 * stderr


def test_block_sum_moments_within_bounds():
    rng = np.random.default_rng(103)
    L, n, R, delta = 6, 3, 1.0, 0.4
    sched = make_iid_linear_schedule(L, n, R, rng)
    C = sched.family.C[sched.rows]
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
    assert s.family.alpha == 0.0
    assert s.boundaries == [1]
    assert s.family.C.shape == (100, 3)

    sw = make_switching_linear_schedule(10, 2, 1.0, [(6, [1.0, 0.0]), (4, [0.0, -1.0])], gain=2.0)
    assert sw.boundaries == [1, 7]
    np.testing.assert_allclose(sw.family.C[sw.rows[0]], [-2.0, 0.0])
    np.testing.assert_allclose(sw.family.C[sw.rows[6]], [0.0, 2.0])
    with pytest.raises(ValueError):
        make_switching_linear_schedule(9, 2, 1.0, [(6, [1.0, 0.0]), (4, [0.0, 1.0])])

    q = make_switching_quadratic_schedule(8, 2, 1.0, [(8, [0.2, 0.1])], alpha=1.5)
    assert q.kind == "quadratic" and q.family.alpha == 1.5
    np.testing.assert_allclose(q.family.B[q.rows[0]], [0.2, 0.1])

    a = make_iid_absdev_schedule(50, 2, 1.0, rng)
    assert a.kind == "absdev"
    assert a.G_f == pytest.approx(1.0)


@pytest.mark.parametrize(
    "make", [make_iid_linear_schedule, make_iid_quadratic_schedule, make_iid_absdev_schedule], ids=lambda f: f.__name__
)
def test_iid_schedule_makers_refuse_an_empty_horizon(make):
    assert_refused(lambda: make(0, 2, 1.0, np.random.default_rng(0)), ValueError, "T must be >= 1")


def test_schedule_tables_hold_one_loss_per_segment():
    segments = [(3, [1.0, 0.0]), (5, [0.0, -1.0]), (2, [1.0, 1.0])]
    sw = make_switching_linear_schedule(10, 2, 1.0, segments)
    assert sw.family.shape[0] == 3
    assert sw.rows.tolist() == [0, 0, 0, 1, 1, 1, 1, 1, 2, 2]
    np.testing.assert_array_equal(sw.family.C[1], [0.0, 1.0])
    q = make_switching_quadratic_schedule(10, 2, 1.0, segments, alpha=2.0)
    assert q.family.shape[0] == 3 and q.rows.tolist() == sw.rows.tolist()
    np.testing.assert_array_equal(q.family.B[q.rows][3:8], np.tile([0.0, -1.0], (5, 1)))

    iid = make_iid_quadratic_schedule(7, 2, 1.0, np.random.default_rng(3))
    assert iid.family.shape[0] == 7 and iid.rows.tolist() == list(range(7))

    for bad in ([(0, [1.0, 0.0]), (10, [0.0, 1.0])], [(-2, [1.0, 0.0]), (12, [0.0, 1.0])], [(2.5, [1.0, 0.0])]):
        with pytest.raises(ValueError, match="positive integers"):
            make_switching_linear_schedule(10, 2, 1.0, bad)
    with pytest.raises(ValueError, match="outside the 3-row loss family"):
        dataclasses.replace(sw, rows=np.array([0, 3]))


def test_schedule_rows_must_be_integers():
    # float rows were truncated: [0.7, 1.9, True] played rows [0, 1, 1]
    family = LinearLosses(np.eye(2))
    for rows in ([0.7, 1.9, True], [0.0, 1.0], [True, False]):
        with pytest.raises(ValueError, match="integer array"):
            LossSchedule(family, rows, [1], 1.0, 1.0)
    with pytest.raises(ValueError, match="non-empty 1-D"):
        LossSchedule(family, [], [1], 1.0, 1.0)
    sched = LossSchedule(family, np.array([0, 1, 1], dtype=np.uint8), [1], 1.0, 1.0)
    assert sched.rows.dtype == np.intp and sched.rows.tolist() == [0, 1, 1]


def test_declared_bounds_are_the_row_maxima():
    # exactly the maxima of the per-row bounds: learners size their steps from them
    rng = np.random.default_rng(61)
    R = 1.7
    lin = make_iid_linear_schedule(50, 3, R, rng, scale=0.7)
    g = max(float(np.linalg.norm(c)) for c in lin.family.C)
    assert (lin.G_f, lin.M) == (g, R * g)
    q = make_iid_quadratic_schedule(50, 3, R, rng, alpha=1.3, spread=0.4)
    assert q.G_f == max(1.3 * R + float(np.linalg.norm(1.3 * b)) for b in q.family.B)
    assert q.M == max(0.5 * 1.3 * (R + float(np.linalg.norm(b))) ** 2 for b in q.family.B)
    a = make_iid_absdev_schedule(50, 3, R, rng)
    assert a.G_f == max(float(np.linalg.norm(r)) for r in a.family.A)
    assert a.M == max(R * float(np.linalg.norm(r)) + abs(b) for r, b in zip(a.family.A, a.family.b))


def test_schedules_deterministic_given_seed():
    s1 = make_iid_linear_schedule(50, 3, 1.0, np.random.default_rng(5))
    s2 = make_iid_linear_schedule(50, 3, 1.0, np.random.default_rng(5))
    np.testing.assert_array_equal(s1.family.C, s2.family.C)


def test_iid_quadratic_schedule_declared_curvature():
    sched = make_iid_quadratic_schedule(20, 2, 1.0, np.random.default_rng(9), alpha=2.0, spread=0.1)
    assert sched.family.alpha == 2.0
    assert sched.kind == "quadratic"
    # targets stay inside the spread ball, so G_f <= alpha*(R + spread)
    assert sched.G_f <= 2.0 * 1.1 + 1e-12
