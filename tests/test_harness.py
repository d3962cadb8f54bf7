"""Config validation, regret evaluators, interval policies, trace files, CLI."""

import csv
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

from pfoco.cli import main as cli_main
from pfoco.geometry import Ball, L1Ball, exact_project
from pfoco.harness import (
    ConfigError,
    build_schedule,
    build_set,
    exhaustive_intervals,
    interval_regret_report,
    intervals_from_cfg,
    parse_config_dict,
    read_trace_csv,
    resolve_out_dir,
    run_one,
    static_regret,
    strided_intervals,
    write_trace_csv,
)
from pfoco.learners import ogd_wf_run
from pfoco.losses import make_iid_absdev_schedule, make_iid_linear_schedule, make_iid_quadratic_schedule

from support import SET_KINDS, random_set, sample_members


def _base_config(**overrides):
    cfg = {
        "T": 64,
        "seeds": [0],
        "set": {"kind": "ball", "n": 2, "radius": 1.0},
        "loss": {"kind": "iid_linear"},
        "learner": {"kind": "so_ogd", "c": 1.0},
    }
    cfg.update(overrides)
    return cfg


# ----------------------------------------------------------------------
# config validation


def test_unknown_keys_rejected_at_every_level():
    with pytest.raises(ConfigError, match="unknown keys \\['bogus'\\] in config"):
        parse_config_dict(_base_config(bogus=1))
    with pytest.raises(ConfigError, match="set"):
        parse_config_dict(_base_config(set={"kind": "ball", "n": 2, "radius": 1.0, "color": "red"}))
    with pytest.raises(ConfigError, match="loss"):
        parse_config_dict(_base_config(loss={"kind": "iid_linear", "shift": 2}))
    with pytest.raises(ConfigError, match="learner"):
        parse_config_dict(_base_config(learner={"kind": "so_ogd", "step": 0.1}))
    with pytest.raises(ConfigError, match="intervals"):
        parse_config_dict(_base_config(intervals={"policy": "strided", "stride": 4}))


def test_missing_and_mistyped_fields_rejected():
    with pytest.raises(ConfigError, match="missing keys"):
        parse_config_dict({"T": 10, "set": {"kind": "ball", "n": 2, "radius": 1.0}, "loss": {"kind": "iid_linear"}})
    with pytest.raises(ConfigError, match="must be an integer"):
        parse_config_dict(_base_config(T=10.5))
    with pytest.raises(ConfigError, match="seeds"):
        parse_config_dict(_base_config(seeds=[]))
    with pytest.raises(ConfigError, match="seeds"):
        parse_config_dict(_base_config(seeds=[0, True]))
    with pytest.raises(ConfigError, match="unknown set kind"):
        parse_config_dict(_base_config(set={"kind": "cylinder"}))
    with pytest.raises(ConfigError, match="unknown loss kind"):
        parse_config_dict(_base_config(loss={"kind": "hinge"}))
    with pytest.raises(ConfigError, match="unknown learner kind"):
        parse_config_dict(_base_config(learner={"kind": "adagrad"}))


def test_learner_keys_must_match_kind():
    with pytest.raises(ConfigError, match="do not apply to learner 'so_ogd'"):
        parse_config_dict(_base_config(learner={"kind": "so_ogd", "eta": 0.1}))
    with pytest.raises(ConfigError, match="requires an explicit exploration constant"):
        parse_config_dict(_base_config(learner={"kind": "loo_bbgd"}))


def test_learner_values_are_validated_not_coerced():
    for learner, message in (
        ({"kind": "loo_bogd", "K": 2.5}, "learner.K must be an integer"),
        ({"kind": "loo_bogd", "K": 0}, "learner.K must be >= 1"),
        ({"kind": "loo_bogd", "K": True}, "learner.K must be a number"),
        ({"kind": "loo_bogd", "eps": True}, "learner.eps must be a number"),
        ({"kind": "loo_bogd", "eta": "0.1"}, "learner.eta must be a number"),
        ({"kind": "loo_bogd_sc", "alpha": None}, "learner.alpha must be a number"),
        ({"kind": "loo_bbgd", "c": [1.0]}, "learner.c must be a number"),
        ({"kind": "so_bgd", "c_prime": False}, "learner.c_prime must be a number"),
    ):
        with pytest.raises(ConfigError, match=message):
            parse_config_dict(_base_config(learner=learner))
    cfg = parse_config_dict(_base_config(learner={"kind": "loo_bogd", "K": 4.0, "eps": 1, "eta": 0.5}))
    assert cfg.learner_cfg["K"] == 4.0


def test_set_and_loss_values_are_validated_not_coerced():
    ball = {"kind": "ball", "n": 2, "radius": 1.0}
    for set_cfg, loss, message in (
        ({**ball, "n": 2.5}, None, "set.n must be an integer"),
        ({**ball, "n": 0}, None, "set.n must be >= 1"),
        ({**ball, "n": float("inf")}, None, "set.n must be a finite number"),
        ({**ball, "radius": float("nan")}, None, "set.radius must be a finite number"),
        ({**ball, "radius": True}, None, "set.radius must be a number"),
        ({"kind": "simplex", "n": 2, "scale": True}, None, "set.scale must be a number"),
        (None, {"kind": "iid_linear", "scale": True}, "loss.scale must be a number"),
        (None, {"kind": "iid_linear", "scale": None}, "loss.scale must be a number"),
        (None, {"kind": "iid_quadratic", "spread": "0.2"}, "loss.spread must be a number"),
        (None, {"kind": "iid_quadratic", "alpha": False}, "loss.alpha must be a number"),
        (None, {"kind": "switching_linear", "gain": "3", "segments": [[64, [1.0, 0.0]]]}, "loss.gain must be a number"),
        (None, {"kind": "switching_linear", "segments": [[64, [True, 0]]]}, r"loss.segments\[0\] must be"),
        (None, {"kind": "switching_linear", "segments": [[63, [1, 0]], [True, [0, 1]]]}, r"loss.segments\[1\] must be"),
        (None, {"kind": "switching_linear", "segments": [[64.0, [1, 0]]]}, r"loss.segments\[0\] must be"),
        (None, {"kind": "switching_linear", "segments": [[64, [float("nan"), 1]]]}, r"loss.segments\[0\] must be"),
        (None, {"kind": "iid_linear", "scale": float("-inf")}, "loss.scale must be a finite number"),
    ):
        overrides = {"set": set_cfg} if set_cfg else {"loss": loss}
        with pytest.raises(ConfigError, match=message):
            parse_config_dict(_base_config(**overrides))
    cfg = parse_config_dict(_base_config(set={**ball, "n": 2.0, "radius": 2}, loss={"kind": "iid_linear", "scale": 1}))
    assert cfg.set_cfg["n"] == 2.0
    # build_schedule checks its dict as parse_config_dict does
    for loss, message in (
        ({"kind": "switching_linear", "segments": [[5, [True, "1"]], [5, [0, 1]]]}, r"loss.segments\[0\] must be"),
        ({"kind": "iid_linear", "gain": 5.0}, r"keys \['gain'\] do not apply to loss 'iid_linear'"),
    ):
        with pytest.raises(ConfigError, match=message):
            build_schedule(loss, 10, Ball(2, 1.0), np.random.default_rng(0))


def test_segment_lengths_must_sum_to_horizon():
    loss = {"kind": "switching_linear", "segments": [[30, [1.0, 0.0]], [30, [0.0, 1.0]]]}
    with pytest.raises(ConfigError, match="segment lengths sum to 60, but T = 64"):
        parse_config_dict(_base_config(loss=loss))


def test_interval_config_validation():
    with pytest.raises(ConfigError, match="unknown interval policy"):
        parse_config_dict(_base_config(intervals={"policy": "dyadic"}))
    with pytest.raises(ConfigError, match="out of range"):
        parse_config_dict(_base_config(intervals={"policy": "list", "intervals": [[1, 65]]}))
    with pytest.raises(ConfigError, match="non-empty list"):
        parse_config_dict(_base_config(intervals={"policy": "list", "intervals": []}))
    with pytest.raises(ConfigError, match="does not apply to policy"):
        parse_config_dict(_base_config(intervals={"policy": "list", "intervals": [[1, 4]], "extra": [[1, 2]]}))
    with pytest.raises(ConfigError, match="limited to T <= 512"):
        parse_config_dict(_base_config(T=600, intervals={"policy": "exhaustive"}))


def test_precondition_failures_name_the_inequality():
    # so_ogd default c = 4R/r = 4 needs T > 16
    cfg = parse_config_dict(_base_config(T=9, learner={"kind": "so_ogd"}))
    with pytest.raises(ConfigError, match=r"c\*T\^\(-1/2\) < 1"):
        run_one(cfg, 0)
    cfg = parse_config_dict(_base_config(T=16, learner={"kind": "loo_bbgd", "c": 5.0}))
    with pytest.raises(ConfigError, match=r"c\*T\^\(-1/4\) < r"):
        run_one(cfg, 0)
    sc = _base_config(
        T=4,
        loss={"kind": "iid_quadratic", "alpha": 1.0},
        learner={"kind": "loo_bogd_sc"},
    )
    with pytest.raises(ConfigError, match=r"T >= 27\*\(alpha\*R/G_f\)\^2"):
        run_one(parse_config_dict(sc), 0)


def test_build_set_covers_all_kinds():
    ball = build_set({"kind": "ball", "n": 3, "radius": 2.0})
    assert isinstance(ball, Ball) and ball.R == 2.0
    box = build_set({"kind": "box", "lower": [-1.0, -2.0], "upper": [1.0, 1.0]})
    assert box.n == 2
    simplex = build_set({"kind": "simplex", "n": 4})
    assert simplex.r == 0.0
    l1 = build_set({"kind": "l1", "n": 2, "radius": 1.5})
    assert isinstance(l1, L1Ball)
    poly = build_set({"kind": "polytope", "A": [[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]], "b": [1.0, 1.0, 1.0, 1.0]})
    assert poly.r == pytest.approx(1.0)
    with pytest.raises(ConfigError, match="bad set config"):
        build_set({"kind": "box", "lower": [0.5, 0.5], "upper": [1.0, 1.0]})
    # arrays are checked, not cast by NumPy
    for key, bad in (
        ("upper", {"kind": "box", "lower": [-1.0, -1.0], "upper": [True, 1.0]}),
        ("b", {"kind": "polytope", "A": [[1.0, 0.0], [-1.0, 0.0]], "b": [1.0, float("nan")]}),
        ("A", {"kind": "polytope", "A": [[1.0, "0"], [-1.0, 0.0]], "b": [1.0, 1.0]}),
        ("A", {"kind": "polytope", "A": [1.0, -1.0], "b": [1.0, 1.0]}),
    ):
        with pytest.raises(ConfigError, match=f"set.{key} must be a list of"):
            build_set(bad)


# ----------------------------------------------------------------------
# interval policies


def test_strided_intervals_shape():
    T = 128
    iv = strided_intervals(T)
    assert (1, T) in iv
    assert all(1 <= s <= e <= T for s, e in iv)
    assert len(iv) == len(set(iv))
    lengths = sorted({e - s + 1 for s, e in iv}, reverse=True)
    expect = []
    L = T
    while True:
        expect.append(L)
        if math.ceil(L / 2) < 8:
            break
        L = math.ceil(L / 2)
    assert lengths == sorted(expect, reverse=True)
    # every length is placed flush against the right edge too
    for L in expect:
        assert (T - L + 1, T) in iv


def test_strided_intervals_tiny_horizon_and_extras():
    assert strided_intervals(5) == [(1, 5)]
    iv = strided_intervals(64, boundaries=[1, 21], extra=[[3, 7]])
    assert (1, 20) in iv and (21, 64) in iv and (1, 64) in iv
    assert (3, 7) in iv


def test_exhaustive_intervals_count_and_limit():
    T = 24
    iv = exhaustive_intervals(T)
    assert len(iv) == T * (T + 1) // 2
    assert len(set(iv)) == len(iv)
    with pytest.raises(ValueError, match="limited to"):
        exhaustive_intervals(513)


def test_intervals_from_cfg_list_policy():
    got = intervals_from_cfg({"policy": "list", "intervals": [[4, 9], [1, 3], [4, 9]]}, 16)
    assert got == [(1, 3), (4, 9)]


# ----------------------------------------------------------------------
# regret evaluators


def _played_trace(set_, schedule, rng):
    # an arbitrary feasible play sequence with recorded losses
    plays = sample_members(set_, rng, schedule.T)
    losses = np.array([schedule.family.value(i, x) for i, x in zip(schedule.rows, plays)])
    zeros = np.zeros(schedule.T, dtype=np.int64)
    from pfoco.learners import RunTrace

    return RunTrace(plays, losses, zeros.copy(), zeros.copy(), zeros.copy(), None, [], {})


def test_linear_interval_regret_matches_direct_sum():
    rng = np.random.default_rng(7)
    set_ = L1Ball(3, 1.0)
    schedule = make_iid_linear_schedule(40, 3, set_.R, rng)
    trace = _played_trace(set_, schedule, rng)
    report = interval_regret_report(trace, schedule, set_, exhaustive_intervals(40))
    by_pair = {(r.start, r.end): r for r in report.intervals}
    for s, e in [(1, 40), (5, 5), (13, 29), (40, 40), (2, 39)]:
        csum = np.sum(schedule.family.C[schedule.rows[s - 1 : e]], axis=0)
        comp = float(csum @ set_.loo(csum))
        direct = sum(schedule.family.value(schedule.rows[t - 1], trace.plays[t - 1]) for t in range(s, e + 1))
        r = by_pair[(s, e)]
        assert r.regret == pytest.approx(direct - comp, abs=1e-9)
        assert r.certificate.method == "loo_exact"
    assert report.max_regret == max(r.regret for r in report.intervals)
    with pytest.raises(ValueError, match="no intervals"):
        interval_regret_report(trace, schedule, set_, [])


def _reference_scan(trace, schedule, set_, intervals):
    """The per-interval scan: one loo, and one project for quadratics, per
    interval; (start, end, regret, gap) rows."""
    played = np.concatenate([[0.0], np.cumsum(trace.losses)])
    rows = []
    if schedule.kind == "linear":
        C = schedule.family.C[schedule.rows]
        prefix = np.vstack([np.zeros((1, C.shape[1])), np.cumsum(C, axis=0)])
    else:
        alpha, B = schedule.family.alpha, schedule.family.B[schedule.rows]
        Sw = np.vstack([np.zeros((1, B.shape[1])), np.cumsum(alpha * B, axis=0)])
        Sb2 = np.concatenate([[0.0], np.cumsum(np.sum(B * B, axis=1))])
    for s, e in intervals:
        if schedule.kind == "linear":
            csum = prefix[e] - prefix[s - 1]
            opt, gap = float(csum @ set_.loo(csum)), 0.0
        else:
            length = e - s + 1
            w = Sw[e] - Sw[s - 1]
            x = set_.project(w / (alpha * length))
            opt = 0.5 * alpha * length * float(x @ x) - float(w @ x) + 0.5 * alpha * (Sb2[e] - Sb2[s - 1])
            grad = alpha * length * x - w
            gap = float(grad @ (x - set_.loo(grad)))
        rows.append((s, e, float(played[e] - played[s - 1] - opt), gap))
    return rows


@pytest.mark.parametrize("loss", ["linear", "quadratic"])
@pytest.mark.parametrize("kind", SET_KINDS)
def test_batched_report_matches_per_interval_scan(kind, loss):
    T = 24
    for seed in range(3):
        # twin sets: the polytope's answer on tied optima depends on its query history
        set_, twin = (random_set(np.random.default_rng([seed, 5]), kind) for _ in range(2))
        rng = np.random.default_rng([seed, 6])
        if loss == "linear":
            schedule = make_iid_linear_schedule(T, set_.n, set_.R, rng)
        else:  # targets mostly outside the set, so the projections do work
            schedule = make_iid_quadratic_schedule(T, set_.n, set_.R, rng, alpha=1.5, spread=2.0 * set_.R)
        trace = _played_trace(set_, schedule, rng)
        intervals = strided_intervals(T, [1, 9, 17])[::-1]
        report = interval_regret_report(trace, schedule, set_, intervals)
        ref = _reference_scan(trace, schedule, twin, intervals)
        assert report.n_intervals == len(intervals)
        assert [(r.start, r.end) for r in report.intervals] == intervals
        assert report.regrets.tolist() == pytest.approx([r[2] for r in ref], rel=1e-12, abs=1e-12)
        assert report.gaps.tolist() == pytest.approx([r[3] for r in ref], rel=1e-12, abs=1e-12)
        method = "loo_exact" if loss == "linear" else "projected_quadratic"
        assert {r.certificate.method for r in report.intervals} == {method}
        first_max = int(np.argmax(report.regrets))
        assert report.max_regret == report.regrets[first_max] == max(report.regrets)
        assert report.argmax == intervals[first_max]


def test_certificate_failure_names_the_first_failing_interval():
    rng = np.random.default_rng(29)
    set_ = L1Ball(4, 1.0)
    schedule = make_iid_quadratic_schedule(30, 4, set_.R, rng, alpha=1.0, spread=2.0)
    trace = _played_trace(set_, schedule, rng)
    intervals = strided_intervals(30)[::-1]
    gaps = interval_regret_report(trace, schedule, set_, intervals).gaps
    # a tolerance that the first interval meets but a later one does not
    order = np.argsort(gaps, kind="stable")
    intervals = [intervals[i] for i in order]
    gaps = gaps[order]
    assert gaps[0] < gaps[-1]
    first_failing = intervals[int(np.flatnonzero(gaps > gaps[0])[0])]
    with pytest.raises(RuntimeError, match=rf"certificate failed on \[{first_failing[0]}, {first_failing[1]}\]"):
        interval_regret_report(trace, schedule, set_, intervals, comparator_tol=float(gaps[0]))
    with pytest.raises(RuntimeError, match=rf"failed on \[{intervals[0][0]}, {intervals[0][1]}\]"):
        interval_regret_report(trace, schedule, set_, intervals, comparator_tol=-1.0)


def test_out_of_range_and_malformed_intervals_raise():
    rng = np.random.default_rng(31)
    set_ = Ball(2, 1.0)
    schedule = make_iid_linear_schedule(10, 2, set_.R, rng)
    trace = _played_trace(set_, schedule, rng)
    for bad, first in (([(1, 5), (0, 3), (4, 11)], (0, 3)), ([(2, 4), (6, 5)], (6, 5)), ([(3, 11)], (3, 11))):
        with pytest.raises(ValueError, match=rf"interval \[{first[0]}, {first[1]}\] out of range"):
            interval_regret_report(trace, schedule, set_, bad)
    with pytest.raises(ValueError, match="integer pairs"):
        interval_regret_report(trace, schedule, set_, [(1.5, 3)])


def test_linear_comparator_beats_sampled_points():
    rng = np.random.default_rng(11)
    set_ = Ball(4, 1.0)
    schedule = make_iid_linear_schedule(30, 4, set_.R, rng)
    trace = _played_trace(set_, schedule, rng)
    members = sample_members(set_, rng, 50)
    for s, e in [(1, 30), (10, 20)]:
        r = interval_regret_report(trace, schedule, set_, [(s, e)]).intervals[0]
        played = float(np.sum(trace.losses[s - 1 : e]))
        for z in members:
            at_z = sum(schedule.family.value(schedule.rows[t - 1], z) for t in range(s, e + 1))
            assert played - at_z <= r.regret + 1e-9


def test_quadratic_comparator_certified_and_consistent():
    rng = np.random.default_rng(23)
    set_ = Ball(3, 1.0)
    schedule = make_iid_quadratic_schedule(25, 3, set_.R, rng, alpha=1.5, spread=0.5)
    trace = _played_trace(set_, schedule, rng)
    report = interval_regret_report(trace, schedule, set_, [(1, 25), (7, 19), (4, 4)])
    members = sample_members(set_, rng, 60)
    for r in report.intervals:
        assert r.certificate.method == "projected_quadratic"
        assert 0.0 <= r.certificate.gap <= r.certificate.tol
        played = float(np.sum(trace.losses[r.start - 1 : r.end]))
        comp = played - r.regret
        direct_at = lambda z: sum(  # noqa: E731
            schedule.family.value(schedule.rows[t - 1], z) for t in range(r.start, r.end + 1)
        )
        # the certified value is attained by an actual feasible point
        alpha, B = schedule.family.alpha, schedule.family.B[schedule.rows]
        w = np.sum(alpha * B[r.start - 1 : r.end], axis=0)
        x_star = exact_project(set_, w / (alpha * (r.end - r.start + 1)))
        assert direct_at(x_star) == pytest.approx(comp, rel=1e-10, abs=1e-10)
        for z in members:
            assert comp <= direct_at(z) + 1e-8


def test_absdev_schedule_has_no_certified_comparator():
    rng = np.random.default_rng(3)
    set_ = Ball(2, 1.0)
    schedule = make_iid_absdev_schedule(20, 2, set_.R, rng)
    trace = _played_trace(set_, schedule, rng)
    with pytest.raises(ValueError, match="no certified comparator"):
        static_regret(trace, schedule, set_)


def test_static_regret_equals_full_interval():
    rng = np.random.default_rng(5)
    set_ = Ball(2, 1.0)
    schedule = make_iid_linear_schedule(32, 2, set_.R, rng)
    trace = _played_trace(set_, schedule, rng)
    sr = static_regret(trace, schedule, set_)
    full = interval_regret_report(trace, schedule, set_, [(1, 32)]).intervals[0]
    assert sr == full


def test_strided_max_never_exceeds_exhaustive_max():
    rng = np.random.default_rng(17)
    set_ = Ball(2, 1.0)
    schedule = make_iid_linear_schedule(96, 2, set_.R, rng)
    trace = _played_trace(set_, schedule, rng)
    strided = interval_regret_report(trace, schedule, set_, strided_intervals(96))
    exhaustive = interval_regret_report(trace, schedule, set_, exhaustive_intervals(96))
    assert strided.max_regret <= exhaustive.max_regret + 1e-12
    assert set(strided_intervals(96)) <= set(exhaustive_intervals(96))


# ----------------------------------------------------------------------
# trace files and determinism


def test_trace_csv_round_trip_is_exact(tmp_path):
    cfg = parse_config_dict(
        _base_config(
            T=48,
            set={"kind": "ball", "n": 2, "radius": 1.0},
            learner={"kind": "so_bgd", "c": 1.0, "c_prime": 0.25},
        )
    )
    trace, _, _, _ = run_one(cfg, 9)
    path = tmp_path / "trace.csv"
    write_trace_csv(trace, str(path))
    back = read_trace_csv(str(path))
    assert np.array_equal(back.plays, trace.plays)
    assert np.array_equal(back.losses, trace.losses)
    assert np.array_equal(back.loo_cum, trace.loo_cum)
    assert np.array_equal(back.so_cum, trace.so_cum)
    assert np.array_equal(back.block_index, trace.block_index)

    raw = path.read_bytes()
    assert b"\r" not in raw
    assert raw.splitlines()[0] == b"t,x,loss,loo_calls_cum,so_calls_cum,block_index"


def _csv_writer_trace(trace, path):
    """The trace file as ``csv.writer`` writes it, one formatted row at a time."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(["t", "x", "loss", "loo_calls_cum", "so_calls_cum", "block_index"])
        for t in range(trace.T):
            w.writerow(
                [
                    t + 1,
                    ";".join(format(v, ".17g") for v in trace.plays[t]),
                    format(trace.losses[t], ".17g"),
                    int(trace.loo_cum[t]),
                    int(trace.so_cum[t]),
                    int(trace.block_index[t]),
                ]
            )


@pytest.mark.parametrize("T, n", [(40, 3), (2100, 1)])  # 2100 rows span three 1024-row chunks
def test_trace_writer_bytes_equal_csv_writer(tmp_path, T, n):
    from pfoco.learners import RunTrace

    rng = np.random.default_rng(31)
    special = np.array([-0.0, 1e-300, -1e-300, 5e-324, 0.1 + 0.2, 2.0 / 3.0, -1.2345678901234567e-5, 1e300, 7.0])
    plays = rng.standard_normal((T, n)) * 10.0 ** rng.integers(-20, 20, (T, n))
    plays.flat[: special.size] = special[: plays.size]
    losses = rng.standard_normal(T)
    losses[: special.size] = special
    counts = np.cumsum(rng.integers(0, 4, T)).astype(np.int64)
    trace = RunTrace(plays, losses, counts, 2 * counts, np.arange(T, dtype=np.int64) // 7 + 1, None, [], {})
    fast, reference = tmp_path / "fast.csv", tmp_path / "reference.csv"
    write_trace_csv(trace, str(fast))
    _csv_writer_trace(trace, str(reference))
    assert fast.read_bytes() == reference.read_bytes()
    assert fast.read_bytes().splitlines()[1].startswith(b"1,-0")  # the sign of -0.0 survives
    back = read_trace_csv(str(fast))
    assert np.array_equal(back.plays, plays) and np.array_equal(back.losses, losses)


def test_same_seed_means_byte_identical_traces(tmp_path):
    cfg = parse_config_dict(
        _base_config(
            T=40,
            loss={"kind": "iid_linear"},
            learner={"kind": "so_bgd", "c": 1.0, "c_prime": 0.25},
        )
    )
    paths = []
    for i in range(2):
        trace, _, _, _ = run_one(cfg, 4)
        p = tmp_path / f"t{i}.csv"
        write_trace_csv(trace, str(p))
        paths.append(p)
    assert paths[0].read_bytes() == paths[1].read_bytes()

    other, _, _, _ = run_one(cfg, 5)
    assert not np.array_equal(other.plays, read_trace_csv(str(paths[0])).plays)


def test_run_summary_records_bounds_and_checks():
    cfg = parse_config_dict(_base_config(T=100, learner={"kind": "so_ogd"}))
    _, _, _, summary = run_one(cfg, 0)
    assert summary["bound_scope"] == "adaptive"
    assert summary["bounds"]["oracle"] == "so"
    assert summary["checks"]["oracle_calls_within_bound"] is True
    assert "regret_within_bound" in summary["checks"]
    assert summary["observed"]["n_intervals"] >= 1


def test_ogd_wf_runs_from_config_without_bounds():
    cfg = parse_config_dict(_base_config(learner={"kind": "ogd_wf"}))
    trace, schedule, set_, summary = run_one(cfg, 1)
    assert summary["bounds"] is None
    assert trace.counters.loo_calls == 0 and trace.counters.so_calls == 0
    for t in range(trace.T):
        assert set_.contains(trace.plays[t])


def test_out_dir_resolution_order(monkeypatch):
    cfg = parse_config_dict(_base_config(out_dir="from_cfg"))
    cfg_none = parse_config_dict(_base_config())
    monkeypatch.setenv("PFOCO_OUT_DIR", "from_env")
    assert resolve_out_dir("from_cli", cfg) == "from_cli"
    assert resolve_out_dir(None, cfg) == "from_cfg"
    assert resolve_out_dir(None, cfg_none) == "from_env"
    monkeypatch.delenv("PFOCO_OUT_DIR")
    assert resolve_out_dir(None, cfg_none) == "runs"


# ----------------------------------------------------------------------
# CLI


def _write_cfg(tmp_path, cfg, name="cfg.json"):
    p = tmp_path / name
    p.write_text(json.dumps(cfg))
    return str(p)


def test_cli_run_and_regret_agree(tmp_path, capsys):
    cfg_path = _write_cfg(tmp_path, _base_config(T=60, seeds=[2], learner={"kind": "so_ogd", "c": 1.0}))
    out = str(tmp_path / "out")
    assert cli_main(["run", cfg_path, "--out", out]) == 0
    capsys.readouterr()

    trace_path = os.path.join(out, "cfg_seed2.csv")
    assert os.path.exists(trace_path)
    summary = json.loads(open(os.path.join(out, "cfg_seed2.summary.json")).read())

    assert cli_main(["regret", trace_path, cfg_path, "--seed", "2"]) == 0
    assert _static_regret_printed(capsys) == pytest.approx(summary["observed"]["static_regret"], rel=1e-9, abs=1e-9)

    # the same trace scored against a config with another set or loss is refused
    wider = {"kind": "ball", "n": 2, "radius": 2.0}
    for field, overrides in (
        ("set", {"set": wider, "loss": {"kind": "iid_linear", "scale": 3.0}}),
        ("loss", {"loss": {"kind": "iid_linear", "scale": 3.0}}),
    ):
        other = _write_cfg(tmp_path, _base_config(T=60, seeds=[2], **overrides), "other.json")
        assert cli_main(["regret", trace_path, other]) == 2
        assert f"config {field} differs" in capsys.readouterr().err

    # several config seeds and no --seed: the trace's summary names its seed
    multi = _write_cfg(tmp_path, _base_config(T=60, seeds=[0, 1], learner={"kind": "so_ogd", "c": 1.0}), "multi.json")
    assert cli_main(["run", multi, "--out", out]) == 0
    capsys.readouterr()
    trace1 = os.path.join(out, "multi_seed1.csv")
    summary1 = json.loads(open(os.path.join(out, "multi_seed1.summary.json")).read())
    assert cli_main(["regret", trace1, multi]) == 0
    assert _static_regret_printed(capsys) == pytest.approx(summary1["observed"]["static_regret"], rel=1e-9, abs=1e-9)

    # a --seed that contradicts the summary is refused
    assert cli_main(["regret", trace1, multi, "--seed", "0"]) == 2
    assert "contradicts seed 1" in capsys.readouterr().err

    # without the summary the seed is ambiguous, unless --seed names it
    os.remove(os.path.join(out, "multi_seed1.summary.json"))
    assert cli_main(["regret", trace1, multi]) == 2
    assert "ambiguous seed" in capsys.readouterr().err
    assert cli_main(["regret", trace1, multi, "--seed", "1"]) == 0
    assert _static_regret_printed(capsys) == pytest.approx(summary1["observed"]["static_regret"], rel=1e-9, abs=1e-9)


def _static_regret_printed(capsys) -> float:
    lines = capsys.readouterr().out.strip().splitlines()
    static_line = [ln for ln in lines if ln.startswith("static regret")][0]
    return float(static_line.split(":")[1].split("(")[0])


def test_cli_validate_exit_codes(tmp_path, capsys):
    good = _write_cfg(tmp_path, _base_config(), "good.json")
    assert cli_main(["validate", good]) == 0
    capsys.readouterr()

    bad = _write_cfg(tmp_path, _base_config(bogus=1), "bad.json")
    assert cli_main(["validate", bad]) == 2
    assert "unknown keys" in capsys.readouterr().err

    broken = tmp_path / "broken.json"
    broken.write_text("{not json")
    assert cli_main(["validate", str(broken)]) == 2
    assert "not valid JSON" in capsys.readouterr().err

    # theorem precondition violations are configuration errors too
    tight = _write_cfg(tmp_path, _base_config(T=9, learner={"kind": "so_ogd"}), "tight.json")
    assert cli_main(["validate", tight]) == 2
    assert "c*T^(-1/2) < 1" in capsys.readouterr().err

    # learner values are checked, not truncated or cast
    learner = {"kind": "loo_bogd", "K": 2.5, "eps": True}
    coerced = _write_cfg(tmp_path, _base_config(T=100, learner=learner), "coerced.json")
    assert cli_main(["validate", coerced]) == 2
    assert "learner.K must be an integer" in capsys.readouterr().err

    # and so are set and loss values; a null scale used to crash the build,
    # and json.load reads Infinity as a float that int() cannot convert
    for name, overrides, message in (
        ("n.json", {"set": {"kind": "ball", "n": 2.5, "radius": 1.0}}, "set.n must be an integer"),
        ("inf.json", {"set": {"kind": "ball", "n": float("inf"), "radius": 1.0}}, "set.n must be a finite number"),
        ("scale.json", {"loss": {"kind": "iid_linear", "scale": None}}, "loss.scale must be a number"),
        # keys another loss kind reads would be ignored: they are refused
        ("gain.json", {"loss": {"kind": "iid_linear", "gain": 5.0}}, "keys ['gain'] do not apply to loss 'iid_linear'"),
        # set arrays are not cast: false/true and "1" would build the box [0, 1] x [-1, 1]
        (
            "box.json",
            {"set": {"kind": "box", "lower": [False, -1], "upper": [True, "1"]}, "learner": {"kind": "ogd_wf"}},
            "set.lower must be a list of finite numbers",
        ),
    ):
        assert cli_main(["validate", _write_cfg(tmp_path, _base_config(**overrides), name)]) == 2
        assert message in capsys.readouterr().err


def test_cli_regret_checks_the_loss_column(tmp_path, capsys):
    cfg_path = _write_cfg(tmp_path, _base_config(T=64, seeds=[0, 1]))
    out = str(tmp_path / "out")
    assert cli_main(["run", cfg_path, "--out", out]) == 0
    trace_path = os.path.join(out, "cfg_seed1.csv")
    assert cli_main(["regret", trace_path, cfg_path]) == 0
    capsys.readouterr()

    with open(trace_path) as fh:
        lines = fh.read().splitlines()
    row = lines[23].split(",")  # round 23
    row[2] = format(float(row[2]) - 5.0, ".17g")
    lines[23] = ",".join(row)
    with open(trace_path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    assert cli_main(["regret", trace_path, cfg_path]) == 2
    assert "trace loss at round 23" in capsys.readouterr().err

    # without a summary the check still runs
    os.remove(os.path.join(out, "cfg_seed1.summary.json"))
    assert cli_main(["regret", trace_path, cfg_path, "--seed", "1"]) == 2
    assert "trace loss at round 23" in capsys.readouterr().err
    # nor does another seed's schedule (round 1 plays the origin, where every loss is 0)
    os.remove(os.path.join(out, "cfg_seed0.summary.json"))
    assert cli_main(["regret", os.path.join(out, "cfg_seed0.csv"), cfg_path, "--seed", "1"]) == 2
    assert "trace loss at round 2 " in capsys.readouterr().err


def test_cli_intervals_file_and_missing_config(tmp_path, capsys):
    cfg_path = _write_cfg(tmp_path, _base_config(T=30, seeds=[0]))
    out = str(tmp_path / "out")
    assert cli_main(["run", cfg_path, "--out", out]) == 0
    capsys.readouterr()
    iv_path = tmp_path / "iv.json"
    iv_path.write_text("[[1, 30], [10, 20]]")
    trace_path = os.path.join(out, "cfg_seed0.csv")
    assert cli_main(["regret", trace_path, cfg_path, "--intervals", str(iv_path)]) == 0
    assert "over 2 intervals" in capsys.readouterr().out
    assert cli_main(["regret", trace_path, cfg_path, "--intervals", str(tmp_path / "missing.json")]) == 2
    assert "intervals file not found" in capsys.readouterr().err
    for text, message in (("[[1.9, 3]]", "integer pairs"), ("[]", "non-empty list")):
        iv_path.write_text(text)
        assert cli_main(["regret", trace_path, cfg_path, "--intervals", str(iv_path)]) == 2
        assert message in capsys.readouterr().err

    assert cli_main(["validate", str(tmp_path / "nope.json")]) == 2
    assert "not found" in capsys.readouterr().err


def test_cli_entry_point_installed():
    res = subprocess.run(
        [sys.executable, "-m", "pfoco.cli", "--help"],
        capture_output=True,
        text=True,
    )
    # argparse prints help and exits 0
    assert res.returncode == 0
    assert "run" in res.stdout and "regret" in res.stdout and "validate" in res.stdout
