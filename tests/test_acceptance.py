"""Acceptance battery: one test per shipped guarantee, tolerances pinned.

Each test asserts a gate of the delivered toolkit -- projection
contracts, per-invocation oracle budgets, convergence rates, end-to-end
regret and call counts at the documented parameters, estimator
statistics, interval-policy fidelity, and byte-level determinism --
with its runtime budget enforced inside the test.  Heavy artifacts
(the 200-instance contract batch, the T=10^4 runs) are built once per
session and shared, so the battery stays close to the per-gate budgets
when run together.
"""

import math
import time

import numpy as np

from pfoco.frankwolfe import separating_hyperplane_fw
from pfoco.geometry import (
    MEMBERSHIP_RTOL,
    Ball,
    L1Ball,
    OracleCounters,
    squeeze,
)
from pfoco.harness import (
    exhaustive_intervals,
    interval_regret_report,
    parse_config_dict,
    run_one,
    strided_intervals,
    write_trace_csv,
)
from pfoco.learners import (
    SoRecords,
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
    AbsDevLosses,
    LinearLosses,
    LossSchedule,
    QuadraticLosses,
    make_iid_linear_schedule,
    make_iid_quadratic_schedule,
    make_switching_linear_schedule,
)
from pfoco.projection import LooProjection, cip_loo, cip_so
from support import (
    INTERIOR_KINDS,
    SET_KINDS,
    block_sum_moment_bounds,
    block_sum_moment_samples,
    check_cip_loo_record,
    check_cip_so_record,
    check_cip_so_records,
    estimate_gradient_mc,
    frank_wolfe_min_distance,
    random_set,
    sample_members,
    smoothed_fd_gradient,
)

T_BIG = 10_000
_CACHE: dict = {}


# ----------------------------------------------------------------------
# shared artifacts


def _contract_batch():
    """200 random projection instances with outputs and sampled members."""
    if "batch" not in _CACHE:
        t0 = time.perf_counter()
        rng = np.random.default_rng(8101)
        entries = []
        for kind in SET_KINDS:
            for _ in range(20):
                set_ = random_set(rng, kind)
                R = set_.R
                x0 = sample_members(set_, rng, 1)[0]
                y0 = rng.standard_normal(set_.n) * rng.uniform(0.3, 2.2) * R
                eps = float(rng.uniform(0.02, 0.4) * R * R)
                counters = OracleCounters()
                res = cip_loo(set_, x0, y0, eps, counters)
                zs = sample_members(set_, rng, 100)
                entries.append(
                    {"oracle": "loo", "set": set_, "y0": y0, "eps": eps, "res": res, "zs": zs, "counters": counters}
                )
        for kind in INTERIOR_KINDS:
            for _ in range(25):
                set_ = random_set(rng, kind)
                r = set_.r
                delta = float(rng.uniform(0.05, 0.5))
                dp = float(rng.uniform(0.0, 0.6) * r)
                y0 = rng.standard_normal(set_.n) * rng.uniform(0.3, 2.2) * set_.R
                counters = OracleCounters()
                res = cip_so(set_, r, delta, dp, y0, counters)
                target = squeeze(set_, (1.0 - delta) * (1.0 - dp / r))
                zs = sample_members(target, rng, 100)
                entries.append(
                    {"oracle": "so", "set": set_, "y0": y0, "res": res, "zs": zs, "counters": counters}
                )
        _CACHE["batch"] = (entries, time.perf_counter() - t0)
    return _CACHE["batch"]


def _blocked_loo_result():
    """Blocked LOO learner at default parameters: l1 ball, iid unit linear."""
    if "bogd" not in _CACHE:
        t0 = time.perf_counter()
        set_ = L1Ball(2, 1.0)
        ss_sched, _ = np.random.SeedSequence(8404).spawn(2)
        sched = make_iid_linear_schedule(T_BIG, 2, set_.R, np.random.default_rng(ss_sched))
        params = loo_bogd_params(set_, sched.G_f, T_BIG)
        trace = loo_run(set_, sched, params)
        report = interval_regret_report(trace, sched, set_, strided_intervals(T_BIG, sched.boundaries))
        _CACHE["bogd"] = (trace, sched, set_, params, report, time.perf_counter() - t0)
    return _CACHE["bogd"]


def _strongly_convex_result():
    if "sc" not in _CACHE:
        t0 = time.perf_counter()
        set_ = Ball(2, 1.0)
        ss_sched, _ = np.random.SeedSequence(8505).spawn(2)
        sched = make_iid_quadratic_schedule(T_BIG, 2, set_.R, np.random.default_rng(ss_sched), alpha=1.0, spread=0.2)
        params = loo_bogd_sc_params(set_, sched.G_f, T_BIG, alpha=1.0)
        trace = loo_run(set_, sched, params)
        sr = interval_regret_report(trace, sched, set_, [(1, T_BIG)]).static_regret
        _CACHE["sc"] = (trace, sched, set_, params, sr, time.perf_counter() - t0)
    return _CACHE["sc"]


def _separation_ogd_result():
    if "so_ogd" not in _CACHE:
        t0 = time.perf_counter()
        set_ = Ball(2, 1.0)
        ss_sched, _ = np.random.SeedSequence(8606).spawn(2)
        sched = make_iid_linear_schedule(T_BIG, 2, set_.R, np.random.default_rng(ss_sched))
        params = so_ogd_params(set_, sched.G_f, T_BIG, c=4.0)
        trace = so_run(set_, sched, params)
        report = interval_regret_report(trace, sched, set_, strided_intervals(T_BIG, sched.boundaries))
        _CACHE["so_ogd"] = (trace, sched, set_, params, report, time.perf_counter() - t0)
    return _CACHE["so_ogd"]


# ----------------------------------------------------------------------
# gates


def test_a01_infeasible_projection_contract():
    # 200 random (set, y0) instances across ball/box/simplex/l1/polytope:
    # the returned point is never farther than y0 from any of 100 sampled
    # members (+1e-9), and the LOO route is 3-eps close to its anchor.
    entries, build_s = _contract_batch()
    t0 = time.perf_counter()
    assert len(entries) == 200
    pulls = 0
    for ent in entries:
        res, zs, y0 = ent["res"], ent["zs"], ent["y0"]
        before = np.sum((y0[None, :] - zs) ** 2, axis=1)
        after = np.sum((res.y[None, :] - zs) ** 2, axis=1)
        assert np.all(after <= before + 1e-9)
        if ent["oracle"] == "loo":
            assert float(np.sum((res.x - res.y) ** 2)) <= 3.0 * ent["eps"] + 1e-9
            assert ent["set"].contains(res.x)
            pulls += res.outer_iterations
        else:
            scale = 1.0 - res.delta_prime / res.r
            assert ent["set"].contains(res.y / scale)
            pulls += res.so_calls - 1
    elapsed = build_s + time.perf_counter() - t0
    print(f"\n[contract] 200 instances, {pulls} pull steps total, {elapsed:.1f}s (budget 30s)")
    assert elapsed < 30.0


def test_a02_oracle_iteration_budgets():
    # per-invocation iteration ceilings hold on every recorded projection:
    # the contract batch plus all projections made by the big runs
    entries, _ = _contract_batch()
    checked = 0
    for ent in entries:
        if ent["oracle"] == "loo":
            check_cip_loo_record(ent["res"])
            assert ent["counters"].loo_calls == ent["res"].loo_calls == sum(ent["res"].fw_iterations)
        else:
            check_cip_so_record(ent["res"], ent["set"])
            assert ent["counters"].so_calls == ent["res"].so_calls
        checked += 1
    for result in (_blocked_loo_result(), _strongly_convex_result(), _separation_ogd_result()):
        trace, _, set_, *_ = result
        if isinstance(trace.projections, SoRecords):
            check_cip_so_records(trace, set_)
        else:
            for rec in trace.projections:
                assert isinstance(rec, LooProjection)
                check_cip_loo_record(rec)
        checked += len(trace.projections)
    print(f"\n[budgets] {checked} invocations checked, zero violations")
    assert checked >= 200


def test_a03_frank_wolfe_rates():
    # on the squared distance over ball/box/simplex, the primal gap at
    # iterate i is at most 2(2R)^2/(i+2) and the certificate never
    # undershoots it; 50 random instances
    t0 = time.perf_counter()
    rng = np.random.default_rng(8303)
    count = 0
    for kind, reps in (("ball", 17), ("box", 17), ("simplex", 16)):
        for _ in range(reps):
            set_ = random_set(rng, kind)
            d = rng.standard_normal(set_.n)
            y = d * (rng.uniform(0.2, 1.5) * set_.R / np.linalg.norm(d))
            x0 = set_.loo(rng.standard_normal(set_.n))
            state = frank_wolfe_min_distance(set_, x0, y, gap_tol=0.0, max_iters=50, record_history=True)
            f_star = 0.5 * float(np.sum((set_.project(y) - y) ** 2))
            for i, (val, gap) in enumerate(state.history):
                h = val - f_star
                assert h <= 2.0 * (2.0 * set_.R) ** 2 / (i + 2) + 1e-12
                assert gap >= h - 1e-9
            count += 1
    elapsed = time.perf_counter() - t0
    print(f"\n[fw-rates] {count} instances, {elapsed:.1f}s (budget 10s)")
    assert count == 50
    assert elapsed < 10.0


def test_a03_separation_run_rates():
    # the same rate on the Frank-Wolfe run the LOO learners make: at the
    # i-th LOO call of separating_hyperplane_fw (the iterate after i
    # updates) the primal gap is at most 2(2R)^2/(i+2) and the certificate
    # (x - y) @ (x - v) never undershoots it; 50 random instances, the
    # polytope among them, each run read off the directions x - y it asks
    t0 = time.perf_counter()
    rng = np.random.default_rng(8304)
    count = steps = 0
    for kind, reps in (("ball", 13), ("box", 13), ("simplex", 12), ("polytope", 12)):
        for _ in range(reps):
            set_ = random_set(rng, kind)
            d = rng.standard_normal(set_.n)
            y = d * (rng.uniform(0.2, 1.5) * set_.R / np.linalg.norm(d))
            x0 = set_.loo(rng.standard_normal(set_.n))
            f_star = 0.5 * float(np.sum((set_.project(y) - y) ** 2))
            calls, loo = [], set_.loo
            set_.loo = lambda c: calls.append((c, v := loo(c))) or v
            res = separating_hyperplane_fw(set_, x0, y, 0.002 * set_.R**2)
            assert res.iterations == len(calls)
            for i, (c, v) in enumerate(calls):  # c = x_i - y
                h = 0.5 * float(c @ c) - f_star
                assert h <= 2.0 * (2.0 * set_.R) ** 2 / (i + 2) + 1e-12
                assert float(c @ (c + y - v)) >= h - 1e-9
            count += 1
            steps += len(calls)
    elapsed = time.perf_counter() - t0
    print(f"\n[fw-separation-rates] {count} instances, {steps} iterates, {elapsed:.1f}s (budget 10s)")
    assert count == 50
    assert steps >= 500
    assert elapsed < 10.0


def test_a04_blocked_loo_learner_end_to_end():
    # l1 ball (R=1), iid unit linear losses (G_f=1), T=10^4, default
    # parameters: LOO calls <= T, strided adaptive regret <= 22000, and
    # measured regret <= 5% of the governing bound (plausibility floor)
    trace, sched, set_, params, report, build_s = _blocked_loo_result()
    t0 = time.perf_counter()
    assert abs(sched.G_f - 1.0) <= 1e-12 and set_.R == 1.0
    bound = theoretical_bounds(params)["regret"]
    assert trace.counters.loo_calls <= T_BIG
    assert report.max_regret <= 22_000.0
    assert bound <= 22_000.0
    assert report.max_regret <= 0.05 * bound
    elapsed = build_s + time.perf_counter() - t0
    print(
        f"\n[blocked-loo] adaptive regret {report.max_regret:.1f} "
        f"(gates: 5% of {bound:.0f} = {0.05 * bound:.0f}, display 22000), "
        f"loo calls {trace.counters.loo_calls} <= {T_BIG}, {elapsed:.1f}s (budget 60s)"
    )
    assert elapsed < 60.0


def test_a05_strongly_convex_run():
    # curvature 1 quadratics on the unit ball at T=10^4: static regret
    # within the T^{2/3} log bound at the declared G_f; LOO calls <= 0.94T
    trace, sched, set_, params, sr, build_s = _strongly_convex_result()
    t0 = time.perf_counter()
    alpha, R, G, T = 1.0, set_.R, sched.G_f, T_BIG
    assert T >= 27.0 * (alpha * R / G) ** 2
    bound = (
        36.0
        * (G**4 * R * R / alpha) ** (1.0 / 3.0)
        * T ** (2.0 / 3.0)
        * (1.0 + (2.0 / 3.0) * math.log(math.sqrt(T) * G / (alpha * R)))
    )
    assert abs(bound - theoretical_bounds(params)["regret"]) <= 1e-9 * bound
    assert sr <= bound
    assert trace.counters.loo_calls <= 0.94 * T
    elapsed = build_s + time.perf_counter() - t0
    print(
        f"\n[strongly-convex] static regret {sr:.2f} <= {bound:.0f}, "
        f"loo calls {trace.counters.loo_calls} <= {0.94 * T:.0f}, G_f = {G:.4f}, {elapsed:.1f}s (budget 60s)"
    )
    assert elapsed < 60.0


def test_a06_separation_learner_end_to_end():
    # unit ball (R=r=1), linear losses, T=10^4, c=4: strided adaptive
    # regret <= G(r/4 + 8R^2/r) sqrt(T) = 825, SO calls <= (5/4+1/64) T
    trace, sched, set_, params, report, build_s = _separation_ogd_result()
    t0 = time.perf_counter()
    G, R, r, T = sched.G_f, set_.R, set_.r, T_BIG
    regret_gate = G * (r / 4.0 + 8.0 * R * R / r) * math.sqrt(T)
    calls_gate = (5.0 / 4.0 + 1.0 / 64.0) * T
    assert abs(regret_gate - 825.0) < 1e-9
    assert report.max_regret <= regret_gate
    assert trace.counters.so_calls <= calls_gate
    elapsed = build_s + time.perf_counter() - t0
    print(
        f"\n[separation-ogd] adaptive regret {report.max_regret:.1f} <= {regret_gate:.2f}, "
        f"so calls {trace.counters.so_calls} <= {calls_gate:.2f}, {elapsed:.1f}s (budget 30s)"
    )
    assert elapsed < 30.0


def _drifting_linear_schedule(T, n, R, rng, drift_scale=0.7):
    d = rng.standard_normal(n)
    d /= np.linalg.norm(d)
    C = rng.standard_normal((T, n)) * (1.0 - drift_scale) + drift_scale * d
    C /= np.maximum(np.linalg.norm(C, axis=1, keepdims=True), 1e-12)
    # declared bounds: derived from the normalized rows they read
    # 1.0000000000000002, which moves loo_bbgd's block length
    return LossSchedule(LinearLosses(C), rows=np.arange(T), boundaries=[1], G_f=1.0, M=R)


def test_a07_bandit_feasibility_and_budgets():
    # both bandit learners on the unit ball, 20 seeds each at T=10^4:
    # every play feasible, SO-BGD call count within its display bound on
    # every run, per-invocation projection budgets hold, and the
    # seed-mean adaptive regret sits under the documented bound.  Five
    # of the seeds use drifting losses that ride the iterates onto the
    # boundary, so feasibility is checked where it is actually tight.
    t0 = time.perf_counter()
    set_ = Ball(2, 1.0)
    R, r, T = set_.R, set_.r, T_BIG
    tol = MEMBERSHIP_RTOL * max(R, 1.0)
    intervals = strided_intervals(T)
    so_display_gate = T + (R / 4.0) * T**0.75 + (r * r / 256.0) * math.sqrt(T)
    seeds = range(20)
    stats = {}
    for name in ("loo_bbgd", "so_bgd"):
        regrets, calls, max_norm = [], [], 0.0
        bound = None
        for seed in seeds:
            ss_sched, ss_play = np.random.SeedSequence(8700 + seed).spawn(2)
            sched_rng = np.random.default_rng(ss_sched)
            if seed < 15:
                sched = make_iid_linear_schedule(T, 2, R, sched_rng)
            else:
                sched = _drifting_linear_schedule(T, 2, R, sched_rng, drift_scale=0.85)
            if name == "loo_bbgd":
                params = loo_bbgd_params(set_, sched.M, T, c=5.0, G_f=sched.G_f)
                trace = loo_run(set_, sched, params, np.random.default_rng(ss_play))
                calls.append(trace.counters.loo_calls)
                for rec in trace.projections:
                    check_cip_loo_record(rec)
            else:
                params = so_bgd_params(set_, sched.M, T, G_f=sched.G_f)
                trace = so_run(set_, sched, params, np.random.default_rng(ss_play))
                calls.append(trace.counters.so_calls)
                assert trace.counters.so_calls <= so_display_gate
                check_cip_so_records(trace, set_)
            norms = np.linalg.norm(trace.plays, axis=1)
            max_norm = max(max_norm, float(norms.max()))
            assert norms.max() <= R + tol
            bound = theoretical_bounds(params)["regret"]
            regrets.append(interval_regret_report(trace, sched, set_, intervals).max_regret)
        mean_regret = float(np.mean(regrets))
        assert mean_regret <= bound
        # the drifting seeds must actually reach the boundary regime,
        # otherwise the feasibility gate is only testing interior plays
        assert max_norm >= 0.95 * R
        stats[name] = (mean_regret, bound, max(calls), max_norm)
    elapsed = time.perf_counter() - t0
    for name, (mr, bd, mc, mn) in stats.items():
        print(f"\n[bandit:{name}] seed-mean adaptive regret {mr:.1f} <= {bd:.0f}, max calls {mc}, max play norm {mn:.12f}")
    print(f"[bandit] R = {R}, {elapsed:.1f}s (budget 300s)")
    assert elapsed < 300.0


def test_a08_estimator_statistics():
    # one-point sphere estimator: unbiased for the smoothed gradient
    # (analytic target for linear/quadratic, common-random-number finite
    # differences for the nonsmooth case) and block-sum moments within
    # their certified bounds; all at 5 sigma with 1e5 samples
    t0 = time.perf_counter()
    rng = np.random.default_rng(8808)
    samples = 100_000

    lin = LinearLosses([[0.6, -0.2, 0.4]])
    x = np.array([0.1, -0.3, 0.2])
    mean, sem = estimate_gradient_mc(lin, 0, x, 0.3, samples, rng)
    assert np.all(np.abs(mean - lin.subgrad(0, x)) <= 5.0 * sem)

    quad = QuadraticLosses(1.3, [[0.2, -0.1]])
    x2 = np.array([-0.2, 0.4])
    mean, sem = estimate_gradient_mc(quad, 0, x2, 0.25, samples, rng)
    assert np.all(np.abs(mean - quad.subgrad(0, x2)) <= 5.0 * sem)

    ad = AbsDevLosses([[0.8, -0.5]], [0.1])
    x3 = np.array([0.05, 0.1])
    delta = 0.3
    mean, sem = estimate_gradient_mc(ad, 0, x3, delta, samples, rng)
    fd = smoothed_fd_gradient(ad, 0, x3, delta, h=1e-3, samples=samples, seed=771)
    fd_noise = ad.bounds(1.0)[0] / math.sqrt(samples)
    assert np.all(np.abs(mean - fd) <= 5.0 * (sem + fd_noise) + 1e-4)

    for L, n, dlt in ((6, 3, 0.4), (12, 2, 0.25)):
        C = rng.standard_normal((L, n))
        C /= np.linalg.norm(C, axis=1, keepdims=True)
        s2 = block_sum_moment_samples(C, np.zeros(n), dlt, samples, rng)
        b2, b4 = block_sum_moment_bounds(L, n, 1.0, dlt, 1.0)
        assert s2.mean() <= b2 + 5.0 * s2.std(ddof=1) / math.sqrt(samples)
        s4 = s2 * s2
        assert s4.mean() <= b4 + 5.0 * s4.std(ddof=1) / math.sqrt(samples)

    elapsed = time.perf_counter() - t0
    print(f"\n[estimator] unbiasedness + moment bounds at 5 sigma, {samples} samples/config, {elapsed:.1f}s (budget 60s)")
    assert elapsed < 60.0


def test_a09_strided_scan_tracks_exhaustive_scan():
    # 10 structured linear instances at T <= 256: the strided policy's
    # maximum interval regret is at least 0.9x the exhaustive scan's
    t0 = time.perf_counter()
    rng = np.random.default_rng(2024)
    ratios = []
    for i in range(5):  # switching schedules, random segmentation
        T = int(rng.integers(128, 257))
        n = int(rng.integers(2, 4))
        k = int(rng.integers(2, 5))
        cuts = np.sort(rng.choice(np.arange(16, T - 8), size=k - 1, replace=False))
        segs = []
        for length in np.diff(np.concatenate([[0], cuts, [T]])).tolist():
            tgt = rng.standard_normal(n)
            segs.append([int(length), (tgt / np.linalg.norm(tgt)).tolist()])
        set_ = L1Ball(n, 1.0) if i % 2 == 0 else Ball(n, 1.0)
        sched = make_switching_linear_schedule(T, n, set_.R, segs)
        trace = ogd_wf_run(set_, sched, float(rng.uniform(0.02, 0.1)))
        st = interval_regret_report(trace, sched, set_, strided_intervals(T, sched.boundaries))
        ex = interval_regret_report(trace, sched, set_, exhaustive_intervals(T))
        ratios.append(st.max_regret / ex.max_regret)
    for _ in range(5):  # drifting iid mixtures
        T = int(rng.integers(128, 257))
        n = int(rng.integers(2, 4))
        set_ = Ball(n, 1.0)
        sched = _drifting_linear_schedule(T, n, set_.R, rng)
        trace = so_run(set_, sched, so_ogd_params(set_, sched.G_f, T, c=2.0))
        st = interval_regret_report(trace, sched, set_, strided_intervals(T, sched.boundaries))
        ex = interval_regret_report(trace, sched, set_, exhaustive_intervals(T))
        ratios.append(st.max_regret / ex.max_regret)
    elapsed = time.perf_counter() - t0
    print(f"\n[intervals] min strided/exhaustive ratio {min(ratios):.4f} over 10 instances, {elapsed:.1f}s (budget 30s)")
    assert len(ratios) == 10
    assert all(rr >= 0.9 for rr in ratios)
    assert elapsed < 30.0


def test_a10_deterministic_traces(tmp_path):
    # repeating any run with the same (config, seed) yields byte-identical
    # trace CSVs; exercised on a bandit learner, a blocked learner, and
    # the baseline
    configs = [
        {
            "T": 400,
            "seeds": [3],
            "set": {"kind": "ball", "n": 2, "radius": 1.0},
            "loss": {"kind": "iid_linear"},
            "learner": {"kind": "so_bgd", "c": 2.0, "c_prime": 0.5},
        },
        {
            "T": 400,
            "seeds": [5],
            "set": {"kind": "ball", "n": 2, "radius": 1.0},
            "loss": {"kind": "iid_linear"},
            "learner": {"kind": "loo_bbgd", "c": 2.0},
        },
        {
            "T": 300,
            "seeds": [7],
            "set": {"kind": "l1", "n": 3, "radius": 1.0},
            "loss": {"kind": "iid_linear"},
            "learner": {"kind": "loo_bogd"},
        },
        {
            "T": 200,
            "seeds": [9],
            "set": {"kind": "box", "lower": [-1.0, -0.5], "upper": [0.5, 1.0]},
            "loss": {"kind": "iid_quadratic"},
            "learner": {"kind": "ogd_wf"},
        },
    ]
    for idx, raw in enumerate(configs):
        cfg = parse_config_dict(raw)
        seed = cfg.seeds[0]
        paths = []
        for rep in range(2):
            trace, _, _, _ = run_one(cfg, seed)
            p = tmp_path / f"c{idx}_rep{rep}.csv"
            write_trace_csv(trace, str(p))
            paths.append(p)
        assert paths[0].read_bytes() == paths[1].read_bytes(), f"config {idx} not deterministic"
    # sanity: the bandit trace actually depends on the seed
    cfg = parse_config_dict(configs[0])
    a, _, _, _ = run_one(cfg, 3)
    b, _, _, _ = run_one(cfg, 4)
    assert not np.array_equal(a.plays, b.plays)
    print("\n[determinism] 4 configs x 2 repeats byte-identical")
