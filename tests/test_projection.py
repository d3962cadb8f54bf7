import math

import numpy as np
import pytest

from pfoco.frankwolfe import separating_hyperplane_fw
from pfoco.geometry import (
    Ball,
    OracleContractError,
    OracleCounters,
    L1Ball,
    SeparationAnswer,
    so_query,
    squeeze,
)
from pfoco.projection import cip_loo, cip_so
from support import (
    INTERIOR_KINDS,
    SET_KINDS,
    check_cip_loo_record,
    check_cip_so_record,
    cip_loo_literal,
    pull_toward,
    random_set,
    sample_members,
)


# ----------------------------------------------------------------------
# pull step


def test_pull_step_arithmetic():
    y = np.array([2.0, 0.0])
    g = np.array([1.0, 0.0])
    ytil = pull_toward(y, g, Q=1.0, C=2.0)
    np.testing.assert_allclose(ytil, [1.75, 0.0])
    # distance to a covered member shrinks by at least (Q/C)^2
    z = np.array([0.5, 0.0])
    assert np.sum((ytil - z) ** 2) <= np.sum((y - z) ** 2) - 0.25 + 1e-15


def test_pull_step_validation():
    y = np.array([1.0, 0.0])
    g = np.array([3.0, 0.0])
    with pytest.raises(ValueError):
        pull_toward(y, g, Q=-0.1, C=3.0)
    with pytest.raises(ValueError):
        pull_toward(y, g, Q=1.0, C=1.0)  # C < ||g||
    with pytest.raises(ValueError):
        pull_toward(y, g, Q=1.0, C=0.0)


def test_pull_step_contracts_toward_all_certified_members():
    rng = np.random.default_rng(53)
    for _ in range(40):
        n = int(rng.integers(2, 6))
        set_ = random_set(rng, "ball")
        n = set_.n
        y = rng.standard_normal(n) * 3.0 * set_.R
        ans = set_.separate(y)
        if ans.feasible:
            continue
        g = ans.g
        gn = np.linalg.norm(g)
        # a valid margin for the ball separator g = y
        Q = (np.linalg.norm(y) - set_.R) * gn
        ytil = pull_toward(y, g, Q, gn)
        for z in sample_members(set_, rng, 30):
            lhs = np.sum((ytil - z) ** 2)
            rhs = np.sum((y - z) ** 2) - (Q / gn) ** 2
            assert lhs <= rhs + 1e-9


# ----------------------------------------------------------------------
# cip_loo


def test_cip_loo_early_return_keeps_anchor():
    ball = Ball(2, 1.0)
    res = cip_loo(ball, np.array([1.0, 0.0]), np.array([1.1, 0.0]), eps=0.1)
    np.testing.assert_array_equal(res.x, [1.0, 0.0])
    np.testing.assert_allclose(res.y, [1.0, 0.0])  # clipped to the R-ball
    assert res.outer_iterations == 0
    assert res.loo_calls == 0


def test_cip_loo_rejects_bad_inputs():
    ball = Ball(2, 1.0)
    with pytest.raises(ValueError):
        cip_loo(ball, np.array([1.0, 0.0]), np.array([2.0, 0.0]), eps=0.0)
    with pytest.raises(ValueError):
        cip_loo(ball, np.array([2.0, 0.0]), np.array([0.5, 0.0]), eps=0.1)  # anchor outside
    with pytest.raises(ValueError):
        cip_loo(ball, np.array([1.0, 0.0, 0.0]), np.array([0.5, 0.0]), eps=0.1)


def test_cip_loo_contract_on_random_instances():
    rng = np.random.default_rng(59)
    for kind in SET_KINDS:
        for _ in range(6):
            set_ = random_set(rng, kind)
            R = set_.R
            x0 = sample_members(set_, rng, 1)[0]
            y0 = rng.standard_normal(set_.n) * rng.uniform(0.3, 1.6) * R
            eps = rng.uniform(0.05, 0.4) * R * R
            counters = OracleCounters()
            res = cip_loo(set_, x0, y0, eps, counters)
            assert set_.contains(res.x)
            assert np.sum((res.x - res.y) ** 2) <= 3.0 * eps + 1e-9
            assert counters.loo_calls == res.loo_calls == sum(res.fw_iterations)
            check_cip_loo_record(res)
            # no farther than y0 from any member
            for z in sample_members(set_, rng, 60):
                assert np.sum((res.y - z) ** 2) <= np.sum((y0 - z) ** 2) + 1e-9


def test_cip_loo_pull_iterations_strictly_approach_the_set():
    # mirror of the pull loop, watching the exact distance to the set
    rng = np.random.default_rng(61)
    for kind in ("ball", "box", "l1"):
        set_ = random_set(rng, kind)
        R = set_.R
        x = sample_members(set_, rng, 1)[0]
        y0 = rng.standard_normal(set_.n) * 1.5 * R
        eps = 0.05 * R * R
        d2 = float(np.sum((x - y0) ** 2))
        if d2 <= 3 * eps:
            continue
        gamma = 2.0 * eps / d2
        y = y0 / max(1.0, np.linalg.norm(y0) / R)
        for _ in range(200):
            inner = separating_hyperplane_fw(set_, x, y, eps)
            x = inner.point
            if float(np.sum((x - y) ** 2)) <= 3 * eps:
                break
            before = np.sum((set_.project(y) - y) ** 2)
            y = y - gamma * (y - x)
            after = np.sum((set_.project(y) - y) ** 2)
            assert after <= before - 4.0 * eps * eps / d2 + 1e-9
        else:
            pytest.fail("pull loop failed to finish in 200 passes")


def test_cip_loo_matches_the_paper_literal_loop():
    # cip_loo skips the Frank-Wolfe run of every pass after a separating
    # one, where the paper's loop pays one LOO call for it and gets x back
    # unchanged; and its runs skip the LOO call the paper's run makes at
    # an iterate that is already close.  The record's ledger says which
    # pass saved what, to the call.  Chains of projections (each anchored
    # at the last one's x) also catch an implied pass that leaks into the
    # next call.
    rng = np.random.default_rng(67)
    sets = [random_set(rng, kind) for kind in SET_KINDS for _ in range(3)]
    sets += [squeeze(random_set(rng, kind), 0.7) for kind in ("l1", "polytope")]
    implied = close_runs = 0
    for set_ in sets:
        R = set_.R
        x = sample_members(set_, rng, 1)[0]
        for _ in range(4):
            y0 = rng.standard_normal(set_.n) * rng.uniform(0.5, 2.0) * R
            eps = rng.uniform(0.005, 0.05) * R * R
            counters, ref_counters = OracleCounters(), OracleCounters()
            res = cip_loo(set_, x, y0, eps, counters)
            ref = cip_loo_literal(set_, x, y0, eps, ref_counters)
            assert np.array_equal(res.x, ref.x) and np.array_equal(res.y, ref.y)
            assert res.outer_iterations == ref.outer_iterations
            assert res.anchor_dists == ref.anchor_dists
            assert res.loo_calls == counters.loo_calls
            assert ref_counters.loo_calls == ref.loo_calls == res.literal_loo_calls
            # passes run Frank-Wolfe until one ends separated (every run
            # before it ended close, one call short of the paper's run);
            # the rest are implied, where the paper's run spends one call
            runs = res.fw_runs
            assert runs + res.implied_passes == res.outer_iterations
            assert res.fw_iterations[runs:] == [0] * res.implied_passes
            assert ref.fw_iterations[runs:] == [1] * res.implied_passes
            saved = [b - a for a, b in zip(res.fw_iterations[:runs], ref.fw_iterations[:runs], strict=True)]
            assert set(saved) <= {0, 1} and saved[:-1] == [1] * (runs - 1)
            assert sum(saved) == res.close_runs
            assert res.implied_passes == 0 or saved[-1] == 0
            assert res.started_close == res.fw_iterations[:runs].count(0)
            check_cip_loo_record(res)
            check_cip_loo_record(ref)
            implied += res.implied_passes
            close_runs += res.close_runs
            x = res.x
    assert implied > 0 and close_runs > 0


# ----------------------------------------------------------------------
# cip_so


def test_cip_so_clip_alone_can_finish():
    ball = Ball(2, 1.0)
    res = cip_so(ball, r=1.0, delta=0.2, delta_prime=0.0, y0=np.array([1.5, 0.0]))
    np.testing.assert_allclose(res.y, [1.0, 0.0])
    assert res.so_calls == 1


def test_cip_so_walks_in_fixed_steps_on_the_ball():
    # with delta=0.2, delta_prime=0.5 every pull shortens ||y|| by
    # exactly 0.1 until y/0.5 becomes feasible
    ball = Ball(2, 1.0)
    counters = OracleCounters()
    res = cip_so(ball, r=1.0, delta=0.2, delta_prime=0.5, y0=np.array([1.5, 0.0]), counters=counters)
    np.testing.assert_allclose(res.y, [0.5, 0.0], atol=1e-12)
    assert res.so_calls == counters.so_calls == 6
    # certified membership: y / (1 - delta_prime/r) inside the set
    assert ball.contains(res.y / 0.5)


def test_cip_so_rejects_bad_parameters():
    ball = Ball(2, 1.0)
    y0 = np.array([1.5, 0.0])
    with pytest.raises(ValueError):
        cip_so(ball, r=1.0, delta=0.0, delta_prime=0.0, y0=y0)
    with pytest.raises(ValueError):
        cip_so(ball, r=1.0, delta=1.0, delta_prime=0.0, y0=y0)
    with pytest.raises(ValueError):
        cip_so(ball, r=1.0, delta=0.2, delta_prime=1.0, y0=y0)  # delta_prime >= r
    with pytest.raises(ValueError):
        cip_so(ball, r=2.0, delta=0.2, delta_prime=0.0, y0=y0)  # r beyond the set's
    with pytest.raises(ValueError):
        cip_so(ball, r=0.0, delta=0.2, delta_prime=0.0, y0=y0)
    with pytest.raises(ValueError, match="non-finite"):
        cip_so(ball, r=1.0, delta=0.2, delta_prime=0.0, y0=np.array([np.nan, 0.0]))
    with pytest.raises(ValueError, match="dimension mismatch"):
        cip_so(ball, r=1.0, delta=0.2, delta_prime=0.0, y0=np.array([1.5, 0.0, 0.0]))


def _first_query_point(set_, r, delta_prime, y0):
    """The point cip_so queries first: y0 rescaled into the R-ball, over
    1 - delta_prime/r."""
    nrm = math.sqrt(y0.dot(y0))
    y = y0 if nrm <= set_.R else y0 / (nrm / set_.R)
    return y / (1.0 - delta_prime / r)


def test_cip_so_goes_on_from_a_first_answer():
    rng = np.random.default_rng(73)
    pulled = 0
    for kind in INTERIOR_KINDS:
        for _ in range(6):
            set_ = random_set(rng, kind)
            r = set_.r
            delta, delta_prime = rng.uniform(0.05, 0.5), rng.uniform(0.0, 0.6) * r
            y0 = rng.standard_normal(set_.n) * rng.uniform(0.3, 1.6) * set_.R
            fresh, given = OracleCounters(), OracleCounters()
            want = cip_so(set_, r, delta, delta_prime, y0, fresh)
            first = so_query(set_, _first_query_point(set_, r, delta_prime, y0), given)
            got = cip_so(set_, r, delta, delta_prime, y0, given, first=first)
            assert np.array_equal(got.y, want.y) and np.array_equal(got.y0, want.y0)
            assert got.so_calls == want.so_calls == fresh.so_calls == given.so_calls
            pulled += want.so_calls > 1
    assert pulled > 0


def test_cip_so_rejects_a_bad_first_answer():
    ball = Ball(2, 1.0)
    y0 = np.array([1.5, 0.0])
    with pytest.raises(ValueError, match="first"):
        cip_so(ball, 1.0, 0.2, 0.0, y0, first=(False, np.array([1.0, 0.0])))
    with pytest.raises(ValueError, match="first"):
        cip_so(ball, 1.0, 0.2, 0.0, y0, first=SeparationAnswer(False, np.array([1.0, 0.0, 0.0])))


def test_cip_so_contract_on_random_instances():
    rng = np.random.default_rng(67)
    for kind in INTERIOR_KINDS:
        for _ in range(6):
            set_ = random_set(rng, kind)
            r = set_.r
            delta = rng.uniform(0.05, 0.5)
            delta_prime = rng.uniform(0.0, 0.6) * r
            y0 = rng.standard_normal(set_.n) * rng.uniform(0.3, 1.6) * set_.R
            counters = OracleCounters()
            res = cip_so(set_, r, delta, delta_prime, y0, counters)
            assert counters.so_calls == res.so_calls
            scale = 1.0 - delta_prime / r
            assert set_.contains(res.y / scale)
            check_cip_so_record(res, set_)
            # no farther than y0 from any member of the doubly squeezed set
            target = squeeze(set_, (1.0 - delta) * scale)
            for z in sample_members(target, rng, 60):
                assert np.sum((res.y - z) ** 2) <= np.sum((y0 - z) ** 2) + 1e-9


def test_cip_so_every_pull_approaches_the_squeezed_target():
    rng = np.random.default_rng(71)
    set_ = random_set(rng, "box")
    r = set_.r
    delta, delta_prime = 0.25, 0.3 * r
    scale = 1.0 - delta_prime / r
    target = squeeze(set_, (1.0 - delta) * scale)
    gain = delta * (r - delta_prime)
    y = rng.standard_normal(set_.n) * 1.4 * set_.R
    y = y / max(1.0, np.linalg.norm(y) / set_.R)
    for _ in range(10000):
        ans = set_.separate(y / scale)
        if ans.feasible:
            break
        g = ans.g
        gn = np.linalg.norm(g)
        before = np.sum((target.project(y) - y) ** 2)
        y = pull_toward(y, g, gain * gn, gn)
        after = np.sum((target.project(y) - y) ** 2)
        assert after <= before - gain * gain + 1e-9
    else:
        pytest.fail("pull sequence failed to reach the squeezed set")


class _StonewallingBall(Ball):
    """Separation oracle that never admits membership: contract breaker."""

    def separate(self, point):
        return SeparationAnswer(False, np.array(point) + np.array([1e-9] * self.n))


def test_cip_so_aborts_on_oracle_contract_breach():
    bad = _StonewallingBall(2, 1.0)
    with pytest.raises(OracleContractError) as exc:
        cip_so(bad, r=1.0, delta=0.3, delta_prime=0.0, y0=np.array([1.5, 0.0]))
    assert "ceiling" in exc.value.diagnostics


def test_cip_so_refuses_a_zero_normal(monkeypatch):
    # [0.7, 0.7] is inside the R-ball but outside the l1 ball, so the first
    # query is refused, with the normal the broken oracle gives
    monkeypatch.setattr(L1Ball, "_normal", lambda self, y: np.zeros(self.n))
    set_ = L1Ball(2, 1.0)
    with pytest.raises(OracleContractError, match="separation oracle returned a zero normal") as exc:
        cip_so(set_, r=set_.r, delta=0.3, delta_prime=0.0, y0=np.array([0.7, 0.7]))
    assert exc.value.diagnostics == {"iterations": 1}
