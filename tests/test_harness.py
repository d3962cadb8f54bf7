"""Config validation, regret evaluators, interval policies, trace files, CLI."""

import functools
import json
import math
import os
import re
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pfoco import harness
from pfoco.cli import main as cli_main
from pfoco.geometry import Ball, FeasibleSet, L1Ball, squeeze
from pfoco.harness import (
    ConfigError,
    build_instance,
    build_schedule,
    build_set,
    exhaustive_intervals,
    interval_regret_report,
    intervals_from_cfg,
    parse_config_dict,
    read_intervals_file,
    read_trace_csv,
    resolve_out_dir,
    run_one,
    strided_intervals,
    write_run_outputs,
    write_trace_csv,
)
from pfoco.learners import RunTrace, ogd_wf_run
from pfoco.losses import (
    make_iid_absdev_schedule,
    make_iid_linear_schedule,
    make_iid_quadratic_schedule,
    make_switching_linear_schedule,
    make_switching_quadratic_schedule,
)

from support import (
    SET_KINDS,
    assert_refused,
    csv_writer_trace,
    make_cut_cube,
    make_polytope,
    random_set,
    sample_members,
    strided_intervals_literal,
    trace_field,
)


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
        ({"kind": "switching_linear", "segments": [[5, [1, 0]], [5, [0, True]]]}, r"loss.segments\[1\] must be"),
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
    # true would be read as 1
    for intervals in ({"policy": "list", "intervals": [[True, 2]]}, {"policy": "strided", "extra": [[1, True]]}):
        with pytest.raises(ConfigError, match="integer pairs"):
            parse_config_dict(_base_config(intervals=intervals))
    with pytest.raises(ConfigError, match="limited to T <= 512"):
        parse_config_dict(_base_config(T=600, intervals={"policy": "exhaustive"}))


@pytest.mark.parametrize(
    "intervals, count",
    [
        pytest.param({"policy": "strided", "extra": [[3, 17], [5, 5], [1, 40]]}, None, id="strided"),
        pytest.param({"policy": "exhaustive"}, 40 * 41 // 2, id="exhaustive"),
        pytest.param({"policy": "list", "intervals": [[4, 9], [1, 3], [4, 9]]}, 2, id="list"),
    ],
)
def test_config_interval_policy_scores_the_run(intervals, count, tmp_path, capsys):
    # the config's policy reaches the summary and pfoco regret's default;
    # strided's count is the literal reference's (its [1, 40] extra repeats)
    segments = [[20, [1.0, 0.0]], [20, [-0.3, 1.0]]]
    raw = _base_config(T=40, seeds=[1], loss={"kind": "switching_linear", "segments": segments}, intervals=intervals)
    cfg = parse_config_dict(raw)
    assert cfg.intervals_cfg == intervals
    trace, schedule, set_, summary = run_one(cfg, 1)
    if count is None:
        count = len(strided_intervals_literal(40, schedule.boundaries, intervals["extra"]))
    report = interval_regret_report(trace, schedule, set_, intervals_from_cfg(intervals, 40, schedule.boundaries))
    observed = summary["observed"]
    assert observed["n_intervals"] == report.n_intervals == count
    assert observed["adaptive_regret"] == report.max_regret
    assert observed["adaptive_argmax"] == list(report.argmax)
    cfg_path, trace_path, _ = _ran(tmp_path, raw)
    capsys.readouterr()
    assert cli_main(["regret", trace_path, cfg_path]) == 0
    assert f"adaptive regret over {count} intervals: {report.max_regret:.10g}" in capsys.readouterr().out


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
        ("A", {"kind": "polytope", "A": [[1.0, 0.0], [-1.0, 0.0], [0.0, True], [0.0, -1.0]], "b": [1.0] * 4}),
    ):
        with pytest.raises(ConfigError, match=f"set.{key} must be a list of"):
            build_set(bad)


def test_a_run_checks_its_set_config_once(monkeypatch):
    # parse_config_dict checks the set's numbers; the run builds the set
    # from them without a second check
    calls = []
    check = harness._validate_set_cfg
    monkeypatch.setattr(harness, "_validate_set_cfg", lambda d: calls.append(d) or check(d))
    A = [[1, 0, 0], [-1, 0, 0], [0, 1, 0], [0, -1, 0], [0, 0, 1], [0, 0, -1], [1, 1, 1]]
    poly = {"kind": "polytope", "A": A, "b": [1, 1, 1, 1, 1, 1, 1.5]}
    cfg = parse_config_dict(_base_config(set=poly, learner={"kind": "loo_bogd", "eps": 0.05, "K": 8}))
    assert run_one(cfg, 0)[3]["observed"]["loo_calls"] >= 0
    assert calls == [poly]


# ----------------------------------------------------------------------
# interval policies


def _pairs(rows):
    """The (k, 2) int64 rows of an interval policy as a list of
    (start, end) tuples."""
    assert rows.dtype == np.int64 and rows.ndim == 2 and rows.shape[1] == 2
    return list(map(tuple, rows.tolist()))


def test_strided_intervals_shape():
    T = 128
    iv = _pairs(strided_intervals(T))
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
    assert _pairs(strided_intervals(5)) == [(1, 5)]
    iv = _pairs(strided_intervals(64, boundaries=[1, 21], extra=[[3, 7]]))
    assert (1, 20) in iv and (21, 64) in iv and (1, 64) in iv
    assert (3, 7) in iv


def _rows(pairs):
    return np.array(pairs, dtype=np.int64).reshape(-1, 2)


def test_exhaustive_intervals_count_and_limit():
    T = 24
    iv = _pairs(exhaustive_intervals(T))
    assert len(iv) == T * (T + 1) // 2
    assert len(set(iv)) == len(iv)
    for T in (1, 2, 7, 24, 64, 512):
        got = exhaustive_intervals(T)
        assert got.dtype == np.int64 and got.shape == (T * (T + 1) // 2, 2)
        assert np.array_equal(got, _rows([(s, e) for s in range(1, T + 1) for e in range(s, T + 1)]))
    with pytest.raises(ValueError, match="limited to"):
        exhaustive_intervals(513)


def test_intervals_from_cfg_list_policy(tmp_path):
    got = intervals_from_cfg({"policy": "list", "intervals": [[4, 9], [1, 3], [4, 9]]}, 16)
    assert _pairs(got) == [(1, 3), (4, 9)]
    # the list policy and an intervals file sort and de-duplicate alike
    rng = np.random.default_rng(3)
    T = 50
    pairs = [[int(s), int(rng.integers(s, T + 1))] for s in rng.integers(1, T + 1, size=40)]
    pairs += pairs[::3]
    want = _rows(sorted({tuple(p) for p in pairs}))
    path = tmp_path / "iv.json"
    path.write_text(json.dumps(pairs))
    for got in (intervals_from_cfg({"policy": "list", "intervals": pairs}, T), read_intervals_file(str(path), T)):
        assert got.dtype == np.int64 and np.array_equal(got, want)


@pytest.mark.parametrize("T", [*range(1, 18), 31, 64, 100, 127, 999, 2000, 4096, 10_000])
def test_strided_intervals_equal_the_set_of_tuples_reference(T):
    rng = np.random.default_rng(T)
    generated = strided_intervals_literal(T)
    marks = rng.integers(-2, T + 4, size=12).tolist()
    cases = (
        (None, None),
        ([1, T + 1], None),  # both ends of [1, T + 1]
        (marks + marks[:5], None),  # duplicated, and some out of range
        (sorted(marks, reverse=True) + [1, T + 1, 0, T + 2], None),
        # extras that repeat generated and boundary pairs, and each other
        ([1, T // 2 + 1], [list(p) for p in generated[:: len(generated) // 4 or 1]] + [[1, T // 2 or 1], [1, T]] * 2),
        (marks, [[int(s), int(s) + int(rng.integers(0, T - s + 1))] for s in rng.integers(1, T + 1, size=6)]),
    )
    for boundaries, extra in cases:
        got = strided_intervals(T, boundaries, extra)
        want = strided_intervals_literal(T, boundaries, extra)
        assert got.dtype == np.int64 and got.shape == (len(want), 2)
        assert np.array_equal(got, _rows(want)), (boundaries, extra)


def test_strided_intervals_refuse_an_extra_outside_the_horizon():
    # the packed key s * (T + 2) + e of [1, 14] is that of [2, 2] at T = 10:
    # an unchecked pair would alias onto a real one
    for extra, bad in (([[3, 4], [6, 5]], (6, 5)), ([[0, 3]], (0, 3)), ([[3, 11]], (3, 11)), ([[1, 14]], (1, 14))):
        with pytest.raises(ValueError, match=rf"interval \[{bad[0]}, {bad[1]}\] out of range for T = 10"):
            strided_intervals(10, [1, 5], extra)


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
    by_pair = dict(zip(zip(report.starts.tolist(), report.ends.tolist()), report.regrets.tolist()))
    for s, e in [(1, 40), (5, 5), (13, 29), (40, 40), (2, 39)]:
        csum = np.sum(schedule.family.C[schedule.rows[s - 1 : e]], axis=0)
        comp = float(csum @ set_.loo(csum))
        direct = sum(schedule.family.value(schedule.rows[t - 1], trace.plays[t - 1]) for t in range(s, e + 1))
        assert by_pair[(s, e)] == pytest.approx(direct - comp, abs=1e-9)
    assert report.method == "loo_exact"
    assert report.max_regret == max(report.regrets)
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
        rows = strided_intervals(T, [1, 9, 17])[::-1]
        intervals = _pairs(rows)
        report = interval_regret_report(trace, schedule, set_, rows)
        ref = _reference_scan(trace, schedule, twin, intervals)
        assert report.n_intervals == len(intervals)
        assert list(zip(report.starts.tolist(), report.ends.tolist())) == intervals
        assert report.regrets.tolist() == pytest.approx([r[2] for r in ref], rel=1e-12, abs=1e-12)
        assert report.gaps.tolist() == pytest.approx([r[3] for r in ref], rel=1e-12, abs=1e-12)
        method = "loo_exact" if loss == "linear" else "projected_quadratic"
        assert report.method == method
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
    intervals = _pairs(intervals[order])
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
        regret = interval_regret_report(trace, schedule, set_, [(s, e)]).regrets[0]
        played = float(np.sum(trace.losses[s - 1 : e]))
        for z in members:
            at_z = sum(schedule.family.value(schedule.rows[t - 1], z) for t in range(s, e + 1))
            assert played - at_z <= regret + 1e-9


def test_quadratic_comparator_certified_and_consistent():
    rng = np.random.default_rng(23)
    set_ = Ball(3, 1.0)
    schedule = make_iid_quadratic_schedule(25, 3, set_.R, rng, alpha=1.5, spread=0.5)
    trace = _played_trace(set_, schedule, rng)
    report = interval_regret_report(trace, schedule, set_, [(1, 25), (7, 19), (4, 4)])
    members = sample_members(set_, rng, 60)
    assert report.method == "projected_quadratic"
    for start, end, regret, gap in zip(report.starts, report.ends, report.regrets, report.gaps):
        assert 0.0 <= gap <= report.tol
        played = float(np.sum(trace.losses[start - 1 : end]))
        comp = played - regret
        direct_at = lambda z: sum(  # noqa: E731
            schedule.family.value(schedule.rows[t - 1], z) for t in range(start, end + 1)
        )
        # the certified value is attained by an actual feasible point
        alpha, B = schedule.family.alpha, schedule.family.B[schedule.rows]
        w = np.sum(alpha * B[start - 1 : end], axis=0)
        x_star = set_.project(w / (alpha * (end - start + 1)))
        assert direct_at(x_star) == pytest.approx(comp, rel=1e-10, abs=1e-10)
        for z in members:
            assert comp <= direct_at(z) + 1e-8


def test_absdev_schedule_has_no_certified_comparator():
    rng = np.random.default_rng(3)
    set_ = Ball(2, 1.0)
    schedule = make_iid_absdev_schedule(20, 2, set_.R, rng)
    trace = _played_trace(set_, schedule, rng)
    with pytest.raises(ValueError, match="no certified comparator"):
        interval_regret_report(trace, schedule, set_, [(1, 20)])


def test_static_regret_equals_full_interval():
    # the [1, T] row of a report's scan rounds as a scan of [1, T] alone,
    # whether or not the caller's intervals hold [1, T] too
    T = 32
    for kind in SET_KINDS:
        for loss in ("linear", "quadratic"):
            # twin sets: the polytope's answer on tied optima depends on its query history
            set_, twin = (random_set(np.random.default_rng([5, 1]), kind) for _ in range(2))
            rng = np.random.default_rng([5, 2])
            if loss == "linear":
                schedule = make_iid_linear_schedule(T, set_.n, set_.R, rng)
            else:
                schedule = make_iid_quadratic_schedule(T, set_.n, set_.R, rng, alpha=1.5, spread=2.0 * set_.R)
            trace = _played_trace(set_, schedule, rng)
            full = interval_regret_report(trace, schedule, twin, [(1, T)])
            assert full.static_regret == full.regrets[0] == full.max_regret
            without = _pairs(strided_intervals(T))[1:]
            for intervals in (without, [(1, T)] + without):
                report = interval_regret_report(trace, schedule, set_, intervals)
                assert report.static_regret == full.static_regret, (kind, loss)
                assert report.n_intervals == len(intervals)
                if intervals[0] == (1, T):
                    assert report.regrets[0] == full.static_regret


@pytest.mark.parametrize("loss", ["linear", "quadratic"])
def test_polytope_report_equals_row_by_row_twin(loss):
    """The polytope's block loo_many scores a run bit for bit as a twin
    that asks ``loo`` row by row, on the set and on a squeezed view; and a
    fresh polytope re-scores it to the same maximum as the set that
    played it, as the benchmark's output check requires."""
    T, lengths = 96, [30, 20, 26, 20]
    for seed in range(3):
        for make in (lambda rng: make_polytope(rng, 4, extra=8), lambda rng: make_cut_cube(rng, 10, 60)):
            played, block, twin = (make(np.random.default_rng([seed, 7])) for _ in range(3))
            twin.loo_many = functools.partial(FeasibleSet.loo_many, twin)
            rng = np.random.default_rng([seed, 8])
            # quadratic targets outside K, so the projections and their gap rows do work
            scale = 1.0 if loss == "linear" else 2.0 * played.R
            segments = [(k, scale * rng.standard_normal(played.n)) for k in lengths]
            if loss == "linear":
                schedule = make_switching_linear_schedule(T, played.n, played.R, segments)
            else:
                schedule = make_switching_quadratic_schedule(T, played.n, played.R, segments, alpha=1.5)
            trace = _played_trace(played, schedule, rng)
            intervals = strided_intervals(T, schedule.boundaries)
            for factor in (1.0, 0.7):
                got, want = (
                    interval_regret_report(trace, schedule, squeeze(s, factor), intervals) for s in (block, twin)
                )
                np.testing.assert_array_equal(got.regrets, want.regrets)
                np.testing.assert_array_equal(got.gaps, want.gaps)
                for field in ("static_regret", "max_regret", "argmax"):
                    assert getattr(got, field) == getattr(want, field)
            fresh = make(np.random.default_rng([seed, 7]))
            rescored = [interval_regret_report(trace, schedule, s, intervals).max_regret for s in (played, fresh)]
            assert rescored[0] == rescored[1]


def test_strided_max_never_exceeds_exhaustive_max():
    rng = np.random.default_rng(17)
    set_ = Ball(2, 1.0)
    schedule = make_iid_linear_schedule(96, 2, set_.R, rng)
    trace = _played_trace(set_, schedule, rng)
    strided = interval_regret_report(trace, schedule, set_, strided_intervals(96))
    exhaustive = interval_regret_report(trace, schedule, set_, exhaustive_intervals(96))
    assert strided.max_regret <= exhaustive.max_regret + 1e-12
    assert set(_pairs(strided_intervals(96))) <= set(_pairs(exhaustive_intervals(96)))


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


def _random_trace(T, n):
    """Every row distinct, with signed zeros, subnormals and extremes."""
    rng = np.random.default_rng(31)
    special = np.array([-0.0, 1e-300, -1e-300, 5e-324, 0.1 + 0.2, 2.0 / 3.0, -1.2345678901234567e-5, 1e300, 7.0])
    plays = rng.standard_normal((T, n)) * 10.0 ** rng.integers(-20, 20, (T, n))
    plays.flat[: special.size] = special[: plays.size]
    losses = rng.standard_normal(T)
    losses[: special.size] = special[:T]
    counts = np.cumsum(rng.integers(0, 4, T)).astype(np.int64)
    return RunTrace(plays, losses, counts, 2 * counts, np.arange(T, dtype=np.int64) // 7 + 1, None, [], {})


def _runs_trace(lengths, n):
    """Rows repeat in runs of the given lengths; neighbouring runs differ in every field."""
    rng = np.random.default_rng(32)
    run = np.repeat(np.arange(len(lengths)), lengths)
    counts = np.cumsum(rng.integers(1, 4, len(lengths)))[run]
    return RunTrace(
        rng.standard_normal((len(lengths), n))[run],
        rng.standard_normal(len(lengths))[run],
        counts,
        2 * counts,
        run + 1,
        None,
        [],
        {},
    )


def _counts_trace(T, rows):
    """``_random_trace(T, 2)`` with the counts of some rows set:
    ``rows[t]`` is row t's (loo_cum, so_cum, block_index)."""
    trace = _random_trace(T, 2)
    for t, (loo, so, block) in rows.items():
        trace.loo_cum[t], trace.so_cum[t], trace.block_index[t] = loo, so, block
    return trace


def _signed_zero_flip(lead=0):
    """One run under ==, whose play and loss turn from 0.0 to -0.0 mid-run,
    after ``lead`` rows that each differ from the one before."""
    trace = _runs_trace([1] * lead + [2000], 2)
    trace.plays[:, 0] = 0.0
    trace.plays[lead + 700 :, 0] = -0.0
    trace.losses[lead : lead + 1500] = 0.0
    trace.losses[lead + 1500 :] = -0.0
    return trace


def _edges_trace():
    """29 distinct rows of n = 8 whose plays and losses run through the
    non-NaN values of ``_FORMAT_EDGES``."""
    edges = np.array([v for v in _FORMAT_EDGES if not math.isnan(v)])
    T = 29
    trace = _random_trace(T, 8)
    trace.plays[:] = np.resize(edges, (T, 8))
    trace.losses[:] = np.resize(edges[::-1], T)
    return trace


def _kernel_chunk_trace(values):
    """64 distinct rows of n = 8, one kernel chunk, of values in
    1e-4 <= |x| < 1e16 but for ``values``, which run through the plays
    from row 5 on and the losses from row 40 on."""
    trace = _runs_trace([1] * 64, 8)
    trace.plays[5:, :].flat[: len(values)] = values
    trace.losses[40 : 40 + len(values)] = values
    return trace


# the edges of the kernel's range (1e-4, the largest double below 1e16) and
# values of its slow path (zeros, subnormals, three-digit exponents, inf,
# nan, and the longest texts that fit, -1e-99 and -9.9e99): a chunk of them
# stays in the kernel, while a negative value with a three-digit exponent
# sends its chunk to the row template
_KERNEL_EDGES = [0.0, -0.0, 1e-4, -1e-4, 9999999999999998.0, -9999999999999998.0, math.inf, -math.inf, math.nan]
_KERNEL_EDGES += [5e-324, 1e-300, 1e300, 1.7976931348623157e308, -1e-99, -9.9e99, 0.0, -0.0]
_TEMPLATE_TRIGGERS = [-1e-300, -5e-324]


def _one_run_of_two():
    """3,000 distinct rows but for one run: row 1,501 repeats row 1,500
    after t."""
    trace = _random_trace(3000, 8)
    for a in (trace.plays, trace.losses, trace.loo_cum, trace.so_cum, trace.block_index):
        a[1500] = a[1499]
    return trace


def _only_loss_changes():
    trace = _runs_trace([300], 3)
    trace.losses[:] = np.repeat(np.random.default_rng(33).standard_normal(30), 10)
    return trace


def _only_counts_change():
    trace = _runs_trace([1200], 2)
    trace.loo_cum[100:] += 1
    trace.so_cum[1030:] += 2
    trace.block_index[1100:] += 1
    return trace


@pytest.mark.parametrize(
    "make",
    [
        pytest.param(lambda: _random_trace(40, 3), id="40-3"),
        pytest.param(lambda: _random_trace(2100, 1), id="2100-1"),  # spans three 1024-row chunks
        # runs of 100 and 1500 rows cross the chunk boundaries at 1024, 2048 and 3072
        pytest.param(lambda: _runs_trace([1000, 100, 1, 1, 2, 1, 900, 1500, 3], 2), id="runs-across-chunks"),
        pytest.param(_signed_zero_flip, id="signed-zero-flip"),
        pytest.param(_only_loss_changes, id="only-loss-changes"),
        pytest.param(_only_counts_change, id="only-counts-change"),
        pytest.param(lambda: _runs_trace([1], 4), id="T1"),
        pytest.param(lambda: _runs_trace([3000], 5), id="all-rows-equal"),
        # the sep_l1_switch shape: 10^4 rounds of n = 8, every row formatted
        pytest.param(lambda: _random_trace(10_000, 8), id="10000-8"),
        # 5,004 formatted rows; the pieces of the 3,000-row run fall in the
        # third 1,024-row chunk of formatted rows
        pytest.param(lambda: _runs_trace([1] * 2500 + [3000] + [1] * 2500, 2), id="run-across-split"),
        # both flips fall after 3,000 rows that are each formatted
        pytest.param(lambda: _signed_zero_flip(lead=3000), id="signed-zero-flip-split"),
        # an integer slot is one word, which holds 0 to 9,999,999: counts
        # of 7 and 8 digits in one chunk, then in chunks either side of the
        # edge at 1,024 rows; negative counts; the int64 extremes
        pytest.param(lambda: _counts_trace(40, {3: (9_999_999, 5, 1)}), id="counts-7-digits"),
        pytest.param(lambda: _counts_trace(40, {3: (9_999_999, 10_000_000, 1)}), id="counts-8-digits"),
        pytest.param(
            lambda: _counts_trace(2100, {1023: (9_999_999, 1, 1), 1024: (10_000_000, 1, 1), 2047: (1, 1, 10_000_000)}),
            id="counts-8-digits-across-chunk-edge",
        ),
        pytest.param(lambda: _counts_trace(40, {0: (-1, -999_999, 1), 9: (-1_000_000, 0, -7)}), id="counts-negative"),
        pytest.param(lambda: _counts_trace(40, {7: (2**63 - 1, -(2**63), 0)}), id="counts-int64-extremes"),
        # a chunk of fewer than 28 formatted rows takes the row template, and
        # one of 28 or more the kernel: each side of that edge, and a second
        # chunk of 27 rows after a full one (rows whose floats all fit the
        # kernel's slots)
        pytest.param(lambda: _runs_trace([1] * 27, 3), id="27-distinct-rows"),
        pytest.param(lambda: _runs_trace([1] * 28, 3), id="28-distinct-rows"),
        pytest.param(lambda: _runs_trace([1] * 29, 3), id="29-distinct-rows"),
        pytest.param(lambda: _runs_trace([1] * (1024 + 27), 2), id="1024+27-distinct-rows"),
        # chunks of 31 to 33 rows whose -1e-300 sends them from the kernel
        # to the template, and a 31-row second chunk that the kernel formats
        pytest.param(lambda: _random_trace(31, 3), id="31-distinct-rows"),
        pytest.param(lambda: _random_trace(32, 3), id="32-distinct-rows"),
        pytest.param(lambda: _random_trace(33, 3), id="33-distinct-rows"),
        pytest.param(lambda: _random_trace(1024 + 31, 2), id="1024+31-distinct-rows"),
        # a blocked trace: four runs whose pieces cross the chunk edges at
        # 1,024 and 2,048 rounds, six formatted rows in all
        pytest.param(lambda: _runs_trace([600, 900, 700, 300], 8), id="blocked-runs-across-chunk-edges"),
        # the kernel's edge values, NaNs aside (they print without a sign), in
        # one chunk of 29 rows
        pytest.param(_edges_trace, id="format-edges-few-rows"),
        # traces without runs, of exactly two chunks and of a single row; one
        # run of two rows in a trace of 3,000, which moves every later row's
        # place in the chunks by one
        pytest.param(lambda: _random_trace(2048, 8), id="runless-2048-rows"),
        pytest.param(lambda: _random_trace(1, 8), id="runless-1-row"),
        pytest.param(_one_run_of_two, id="3000-rows-one-run-of-two"),
    ],
)
def test_trace_writer_bytes_equal_csv_writer(tmp_path, make):
    trace = make()
    out = tmp_path / "out"
    out.mkdir()
    fast, reference = out / "fast.csv", tmp_path / "reference.csv"
    write_trace_csv(trace, str(fast))
    assert os.listdir(out) == ["fast.csv"]
    csv_writer_trace(trace, str(reference))
    assert fast.read_bytes() == reference.read_bytes()
    back = read_trace_csv(str(fast))
    assert back.plays.tobytes() == trace.plays.tobytes() and back.losses.tobytes() == trace.losses.tobytes()


def _near(values):
    """Each value, its two neighbouring doubles and their negatives."""
    v = np.asarray(values, dtype=np.float64)
    v = np.concatenate((v, np.nextafter(v, -np.inf), np.nextafter(v, np.inf)))
    return np.concatenate((v, -v)).tolist()


_FORMAT_EDGES = (
    _near([0.0, 5e-324, 2.2250738585072014e-308, 1e-4, 1e16, 1e17, 1.0, 0.1, 0.5, 7.0, 2.0**53])
    + _near([10.0**k for k in range(-5, 18)])  # a low exponent estimate carries to 10**17 here
    + [math.inf, -math.inf, math.nan, -math.nan, 1.7976931348623157e308, 9999999999999998.0]
    # halves of large integers (17 digits, the last a 5) and quarters (18 digits,
    # the last a 5: a tie when rounded to 17), and odd multiples of 1/8 to 1/32
    + [k + f for k in (10**15, 10**15 + 3, 1234567890123456, 2**51 - 7) for f in (0.25, 0.5, 0.75)]
    + [m + 0.5 for m in (2**51 + 3, 2**52 - 1, 4 * 10**15 + 1)]
    + [(2 * k + 1) / 2**s for k in (10**15, 10**15 + 7) for s in (3, 4, 5)]
)


def _slots(words, per):
    """The text in each slot of ``per`` words, NUL bytes deleted."""
    raw = np.ascontiguousarray(words, dtype="<u8").tobytes()
    return [raw[i : i + 8 * per].translate(None, b"\0") for i in range(0, len(raw), 8 * per)]


@settings(max_examples=300, deadline=None)
@given(
    bits=st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=40),
    decimals=st.lists(st.floats(allow_nan=False, allow_infinity=False, min_value=1e-5, max_value=1e17), max_size=40),
    counts=st.lists(st.integers(0, 10**7 - 1), min_size=1, max_size=40),
)
def test_row_kernel_writes_the_bytes_of_printf(bits, decimals, counts):
    # random bit patterns cover every exponent; decimals cover the kernel's own range densely
    x = np.concatenate((np.array(bits, dtype=np.uint64).view(np.float64), decimals, _FORMAT_EDGES))
    # a text of 24 bytes (a negative value with a three-digit exponent)
    # does not fit a slot with its separator: the kernel says so, and
    # its row goes to the template
    fits = np.array([len(trace_field(v)) < 24 for v in x.tolist()])
    for v in x[~fits].tolist() + [-1e-300, -5e-324, -1e100]:
        assert not harness._float_words(np.array([1.0, v, 0.0]), np.empty((3, 3), dtype=np.uint64), 0)
    x = x[fits]
    out = np.empty((len(x), 3), dtype=np.uint64)
    assert harness._float_words(x, out, 0)
    assert _slots(out, 3) == [trace_field(v).encode() for v in x.tolist()]
    # the slots are written in place, here into a strided view of a wider
    # buffer whose other words stay as they were, with a separator after
    # each text (in its slot's top byte)
    buffer = np.zeros((len(x), 5), dtype=np.uint64)
    assert harness._float_words(x, buffer[:, 1:4], ord(";") << 56)
    assert _slots(buffer[:, 1:4], 3) == [trace_field(v).encode() + b";" for v in x.tolist()]
    assert not buffer[:, [0, 4]].any()
    # an integer slot is one word: its text, right-aligned, and the separator
    # in its top byte; a block with a text that does not fit is refused
    c = np.array(counts + [0, 1, 9, 10, 99, 999_999, 1_000_000, 9_999_999], dtype=np.int64)
    words = harness._int_words(c, ord(",") << 56)
    assert words.shape == c.shape and _slots(words, 1) == [b"%d," % v for v in c.tolist()]
    assert (words >> 56 == ord(",")).all()
    for v in (-1, 10**7, 2**63 - 1, -(2**63)):
        assert harness._int_words(np.append(c, v), 0) is None


@pytest.mark.parametrize("n", [1, 8, 10])
def test_few_row_chunks_take_the_template_with_the_kernels_bytes(n, monkeypatch):
    # _FORMAT_EDGES values, NaNs included, but for the texts too long for
    # the kernel's slots (at n = 8 and 10 the 27 rows hold every one), and
    # counts from 0 to 9,999,999, in chunks of 1 to 27 rows: the row
    # template's bytes equal the kernel's on the same rows
    x = np.resize(np.array([v for v in _FORMAT_EDGES if len(trace_field(v)) < 24]), (27, n + 1))
    counts = [np.arange(27) * 10**k for k in (0, 3, 5)]
    counts[1][3] = 9_999_999
    t = np.arange(1, 28) * 997
    fmt = harness._RowFormatter(n, 27)
    float_words, fitted = harness._float_words, []

    def spy(x, out, sep):
        fitted.append(float_words(x, out, sep))
        return fitted[-1]

    monkeypatch.setattr(harness, "_float_words", spy)
    for r in (1, 2, 17, 27):
        args = (t[:r], x[:r, :n], x[:r, n], [c[:r] for c in counts])
        template = fmt.format(*args)
        with monkeypatch.context() as m:
            m.setattr(harness, "_TEMPLATE_ROWS", 0)
            assert fmt.format(*args) == template
        assert template.count(b"\n") == r and template.startswith(b"%d," % t[0])
    assert fitted == [True] * 4  # the kernel wrote each chunk it was given


@pytest.mark.parametrize("values", [_KERNEL_EDGES] + [[v] for v in _TEMPLATE_TRIGGERS], ids=["edges", "-1e-300", "-5e-324"])
def test_kernel_chunk_sends_only_24_byte_texts_to_the_template(tmp_path, values, monkeypatch):
    float_words, fitted = harness._float_words, []

    def spy(x, out, sep):
        fitted.append(float_words(x, out, sep))
        return fitted[-1]

    monkeypatch.setattr(harness, "_float_words", spy)
    trace = _kernel_chunk_trace(values)
    write_trace_csv(trace, str(tmp_path / "t.csv"))
    assert fitted == [values is _KERNEL_EDGES]
    lines = (tmp_path / "t.csv").read_bytes().splitlines()
    csv_writer_trace(trace, str(tmp_path / "reference.csv"))
    assert lines == (tmp_path / "reference.csv").read_bytes().splitlines()
    # zeros keep their short text; -1e-300 and -5e-324 take 24 bytes
    fields = lines[6].split(b",")[1].split(b";") + [lines[41].split(b",")[2]]
    want = [b"0", b"-0", b"1.0000000000000000e-04"] if values is _KERNEL_EDGES else [b"%.16e" % values[0]]
    assert fields[: len(want)] == want and b"%.16e" % 0.0 not in b"".join(lines)
    back = read_trace_csv(str(tmp_path / "t.csv"))
    assert back.plays.tobytes() == trace.plays.tobytes() and back.losses.tobytes() == trace.losses.tobytes()


@pytest.mark.parametrize("where", ["so-cum-crosses-1e7", "negative-count"])
def test_counts_outside_a_word_send_only_their_chunks_to_the_template(tmp_path, where, monkeypatch):
    # 3,000 distinct rows, three chunks whose floats all fit the kernel's
    # slots: so_cum reaches 10**7 at row 1,500, inside the second chunk, or
    # one loo_cum of the third chunk is negative
    trace = _runs_trace([1] * 3000, 8)
    if where == "so-cum-crosses-1e7":
        trace.so_cum += 10**7 - trace.so_cum[1500]
    else:
        trace.loo_cum[2100] = -5
    int_words, fitted = harness._int_words, []

    def spy(c, sep):
        words = int_words(c, sep)
        fitted.append(words is not None)
        return words

    monkeypatch.setattr(harness, "_int_words", spy)
    write_trace_csv(trace, str(tmp_path / "t.csv"))
    assert fitted == ([True, False, False] if where == "so-cum-crosses-1e7" else [True, True, False])
    csv_writer_trace(trace, str(tmp_path / "reference.csv"))
    assert (tmp_path / "t.csv").read_bytes() == (tmp_path / "reference.csv").read_bytes()


def test_trace_writer_failing_part_way_leaves_the_earlier_outputs(tmp_path, monkeypatch):
    # an earlier run's files, which the failed write must leave as they were
    earlier = write_run_outputs(str(tmp_path), "t", _random_trace(40, 3), {"seed": 0})
    before = [open(p, "rb").read() for p in earlier]
    float_words, calls = harness._float_words, []

    def fails_on_the_third_chunk(x, out, sep):
        calls.append(len(x))
        if len(calls) == 3:
            raise RuntimeError("formatting failed")
        return float_words(x, out, sep)

    monkeypatch.setattr(harness, "_float_words", fails_on_the_third_chunk)
    with pytest.raises(RuntimeError, match="formatting failed"):
        write_run_outputs(str(tmp_path), "t", _random_trace(10_000, 8), {"seed": 1})
    assert calls == [1024, 1024, 1024]
    assert sorted(os.listdir(tmp_path)) == ["t.csv", "t.summary.json"]  # no partial file
    assert [open(p, "rb").read() for p in earlier] == before


def test_failed_summary_write_leaves_the_earlier_summary(tmp_path):
    _, summary_path = write_run_outputs(str(tmp_path), "t", _random_trace(40, 3), {"seed": 0})
    before = open(summary_path, "rb").read()
    with pytest.raises(TypeError, match="not JSON serializable"):
        write_run_outputs(str(tmp_path), "t", _random_trace(40, 3), {"seed": object()})
    assert sorted(os.listdir(tmp_path)) == ["t.csv", "t.summary.json"]
    assert open(summary_path, "rb").read() == before


def test_trace_writer_keeps_signed_zeros_inside_runs(tmp_path):
    path = tmp_path / "t.csv"
    write_trace_csv(_signed_zero_flip(), str(path))
    lines = path.read_bytes().splitlines()
    assert lines[700].startswith(b"700,0;") and lines[701].startswith(b"701,-0;")
    assert lines[1500].split(b",")[2] == b"0" and lines[1501].split(b",")[2] == b"-0"
    write_trace_csv(_random_trace(40, 3), str(path))
    assert path.read_bytes().splitlines()[1].startswith(b"1,-0")


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
    text = open(os.path.join(out, "cfg_seed2.summary.json")).read()
    assert text.count("\n") == 1 and text.endswith("}\n")  # one line of JSON
    summary = json.loads(text)

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


def test_cli_run_refuses_a_seeds_list_without_a_seed(tmp_path, capsys):
    cfg_path = _write_cfg(tmp_path, _base_config(T=30, seeds=[0]))
    out = tmp_path / "out"
    for text in (",", "", " , ,"):
        assert cli_main(["run", cfg_path, "--seeds", text, "--out", str(out)]) == 2
        assert "names no seed" in capsys.readouterr().err
    assert not out.exists()
    assert cli_main(["run", cfg_path, "--seeds", "3,", "--out", str(out)]) == 0
    assert sorted(os.listdir(out)) == ["cfg_seed3.csv", "cfg_seed3.summary.json"]


def test_cli_main_calls_each_parse_their_own_arguments(tmp_path, capsys):
    # one parser serves every call in the process; no option of one call
    # may reach the next
    cfg_path = _write_cfg(tmp_path, _base_config(T=30, seeds=[0]))
    first, second = tmp_path / "first", tmp_path / "second"
    assert cli_main(["run", cfg_path, "--seeds", "5", "--out", str(first)]) == 0
    assert cli_main(["run", cfg_path, "--out", str(second)]) == 0
    assert sorted(os.listdir(first)) == ["cfg_seed5.csv", "cfg_seed5.summary.json"]
    assert sorted(os.listdir(second)) == ["cfg_seed0.csv", "cfg_seed0.summary.json"]
    capsys.readouterr()
    assert cli_main(["regret", str(second / "cfg_seed0.csv"), cfg_path, "--intervals", "exhaustive"]) == 0
    assert "over 465 intervals" in capsys.readouterr().out
    assert cli_main(["regret", str(second / "cfg_seed0.csv"), cfg_path]) == 0
    assert "over 465 intervals" not in capsys.readouterr().out


def test_negative_and_repeated_seeds_are_refused_by_name(tmp_path, capsys):
    for seeds, why in (([-3], "seed -3 is negative"), ([1, 4, 1], "seed 1 is listed twice")):
        with pytest.raises(ConfigError, match=f"config.seeds: {why}"):
            parse_config_dict(_base_config(seeds=seeds))
        assert cli_main(["validate", _write_cfg(tmp_path, _base_config(T=30, seeds=seeds))]) == 2
        assert why in capsys.readouterr().err
    cfg_path = _write_cfg(tmp_path, _base_config(T=30, seeds=[0]))
    out = tmp_path / "out"
    for text, why in (("0,0", "--seeds: seed 0 is listed twice"), ("2,-1", "--seeds: seed -1 is negative")):
        assert cli_main(["run", cfg_path, "--seeds", text, "--out", str(out)]) == 2
        assert why in capsys.readouterr().err
    assert not out.exists()
    assert cli_main(["run", cfg_path, "--out", str(out)]) == 0
    capsys.readouterr()
    trace_path = str(out / "cfg_seed0.csv")
    assert cli_main(["regret", trace_path, cfg_path, "--seed", "-2"]) == 2
    assert "--seed: seed -2 is negative" in capsys.readouterr().err


def test_validate_refuses_learner_constants_out_of_range_by_name(tmp_path, capsys):
    # each once crashed with a traceback or validated (and ran) as given
    quad = {"kind": "iid_quadratic"}
    for learner, loss, T, why in (
        ({"kind": "so_bgd", "c": 1.0, "c_prime": 0}, None, 100, "needs c_prime > 0"),
        ({"kind": "so_bgd", "c": -1.0}, None, 100, "needs c > 0"),
        ({"kind": "loo_bogd_sc", "K": 5000}, quad, 1000, "needs 1 <= K <= T"),
        ({"kind": "ogd_wf", "eta": -0.1}, None, 100, "needs eta > 0"),
        ({"kind": "ogd_wf", "alpha": 0}, None, 100, "needs alpha > 0"),
    ):
        cfg = _base_config(T=T, learner=learner, **({"loss": loss} if loss else {}))
        assert cli_main(["validate", _write_cfg(tmp_path, cfg)]) == 2
        err = capsys.readouterr().err
        assert f"learner parameters rejected: {why}" in err and "Traceback" not in err, err


def test_cli_run_reports_an_unwritable_out_dir(tmp_path, capsys):
    cfg_path = _write_cfg(tmp_path, _base_config(T=30, seeds=[0]))
    blocker = tmp_path / "file"
    blocker.write_text("")
    out = str(blocker / "sub")
    assert cli_main(["run", cfg_path, "--out", out]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and out in err[0], err


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


def test_cli_regret_refuses_plays_outside_the_set(tmp_path, capsys):
    cfg = _base_config(T=4)
    cfg_path = _write_cfg(tmp_path, cfg)
    out = str(tmp_path / "out")
    assert cli_main(["run", cfg_path, "--out", out]) == 0
    capsys.readouterr()
    # every play moved to -10 c_t, far outside the unit ball, with the
    # losses it incurs: the loss column checks out, the plays do not
    trace_path = os.path.join(out, "cfg_seed0.csv")
    trace = read_trace_csv(trace_path)
    set_, schedule, _ = build_instance(parse_config_dict(cfg), 0)
    trace.plays = -10.0 * schedule.family.C[schedule.rows]
    trace.losses = schedule.family.values(schedule.rows, trace.plays)
    assert not set_.contains(trace.plays[0])
    write_trace_csv(trace, trace_path)
    assert cli_main(["regret", trace_path, cfg_path]) == 2
    assert "trace play at round 1 is outside the feasible set" in capsys.readouterr().err


def test_read_trace_csv_names_a_malformed_line(tmp_path, capsys):
    cfg_path = _write_cfg(tmp_path, _base_config(T=2))
    path = tmp_path / "trace.csv"
    header = "t,x,loss,loo_calls_cum,so_calls_cum,block_index\n"
    for body, message in (
        ("1,0;0,0,0,1,1\n2,0;0\n", "line 3: 2 fields, expected 6"),
        ("1,0;0,0,0,1,1\n2,0;0;0,0,0,2,2\n", "line 3: x has 3 coordinates, line 2 has 2"),
        ("1,0;0,abc,0,1,1\n2,0;0,0,0,2,2\n", "line 2: could not convert string to float: 'abc'"),
        ("1,0;0,0,0,1,1\n2,0;0,0,0,x,2\n", "line 3: invalid literal for int() with base 10: 'x'"),
        ("1,0;0,0,0,1,1\n2,0;y,0,0,2,2\n", "line 3: could not convert string to float: 'y'"),
    ):
        path.write_text(header + body)
        with pytest.raises(ValueError, match=re.escape(message)):
            read_trace_csv(str(path))
        assert cli_main(["regret", str(path), cfg_path]) == 2
        assert message in capsys.readouterr().err


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
    for text, message in (("[[1.9, 3]]", "integer pairs"), ("[[true, 3]]", "integer pairs"), ("[]", "non-empty list")):
        iv_path.write_text(text)
        assert cli_main(["regret", trace_path, cfg_path, "--intervals", str(iv_path)]) == 2
        assert message in capsys.readouterr().err

    assert cli_main(["validate", str(tmp_path / "nope.json")]) == 2
    assert "not found" in capsys.readouterr().err


def _ran(tmp_path, cfg):
    """The config file, trace and summary of ``pfoco run`` on ``cfg`` (one seed)."""
    cfg_path = _write_cfg(tmp_path, cfg)
    assert cli_main(["run", cfg_path, "--out", str(tmp_path / "out")]) == 0
    base = str(tmp_path / "out" / f"cfg_seed{cfg['seeds'][0]}")
    return cfg_path, base + ".csv", base + ".summary.json"


def _unreadable_summary(tmp_path):
    cfg_path, trace_path, summary_path = _ran(tmp_path, _base_config(T=8))
    with open(summary_path, "w") as fh:
        fh.write("{")
    return cli_main(["regret", trace_path, cfg_path])


def _regret_without_summary(tmp_path):
    # the config's one seed, 4, rebuilds the schedule whose losses the trace holds
    cfg_path, trace_path, summary_path = _ran(tmp_path, _base_config(T=8, seeds=[4]))
    os.remove(summary_path)
    return cli_main(["regret", trace_path, cfg_path])


def _not_a_trace(tmp_path):
    path = tmp_path / "plain.csv"
    path.write_text("a,b\n1,2\n")
    return read_trace_csv(str(path))


def _zero_normal_run(tmp_path):
    # so_ogd across a switch on the l1 ball pulls, and every normal is zero
    segments = [[20, [1.0, 0.5, -0.3, 0.2]], [20, [-0.4, -1.0, 0.6, 0.3]]]
    cfg = _base_config(
        T=40,
        set={"kind": "l1", "n": 4, "radius": 1.0},
        loss={"kind": "switching_linear", "segments": segments},
        learner={"kind": "so_ogd", "c": 0.05},
    )
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(L1Ball, "_normal", lambda self, y: np.zeros(self.n))
        return cli_main(["run", _write_cfg(tmp_path, cfg), "--out", str(tmp_path / "out")])


def _switching(target):
    return _base_config(T=8, loss={"kind": "switching_linear", "segments": [[8, target]]})


@pytest.mark.parametrize(
    "call, want, message",
    [
        pytest.param(
            lambda tmp: build_instance(parse_config_dict(_switching([1.0, 0.0, 0.0])), 0),
            ConfigError,
            "bad loss config: segment target has wrong dimension",
            id="segment-dimension",
        ),
        pytest.param(
            lambda tmp: build_instance(parse_config_dict(_switching([0.0, 0.0])), 0),
            ConfigError,
            "bad loss config: segment target must be nonzero",
            id="segment-zero",
        ),
        pytest.param(lambda tmp: parse_config_dict([]), ConfigError, "config must be an object", id="config-object"),
        pytest.param(
            lambda tmp: parse_config_dict(_base_config(set=["ball"])), ConfigError, "set must be an object", id="set-object"
        ),
        pytest.param(
            lambda tmp: parse_config_dict(_base_config(intervals="strided")),
            ConfigError,
            "intervals must be an object",
            id="intervals-object",
        ),
        pytest.param(
            lambda tmp: parse_config_dict(_base_config(out_dir=3)), ConfigError, "config.out_dir must be a string", id="out_dir"
        ),
        pytest.param(
            lambda tmp: parse_config_dict(_base_config(loss={"kind": "switching_quadratic"})),
            ConfigError,
            "switching losses need a non-empty loss.segments list",
            id="segments-missing",
        ),
        pytest.param(
            lambda tmp: parse_config_dict(_base_config(intervals={"policy": "list"})),
            ConfigError,
            "interval policy 'list' needs an intervals list",
            id="list-without-intervals",
        ),
        pytest.param(_not_a_trace, ValueError, "not a trace CSV", id="trace-header"),
        pytest.param(
            lambda tmp: cli_main(["run", _write_cfg(tmp, _base_config(T=8)), "--seeds", "x"]),
            2,
            "config error: bad --seeds list 'x'",
            id="cli-seeds",
        ),
        pytest.param(
            lambda tmp: cli_main(["regret", _ran(tmp, _base_config(T=8))[1], _write_cfg(tmp, _base_config(T=9), "T9.json")]),
            2,
            "trace has 8 rounds but config.T = 9",
            id="cli-trace-T",
        ),
        pytest.param(_unreadable_summary, 2, "unreadable summary", id="cli-summary"),
        pytest.param(
            _zero_normal_run,
            3,
            "oracle contract violation: separation oracle returned a zero normal\n  iterations: 1\n",
            id="cli-oracle-contract",
        ),
        pytest.param(_regret_without_summary, 0, "adaptive regret over", id="cli-config-seed"),
        pytest.param(
            lambda tmp: cli_main(["validate", _write_cfg(tmp, _base_config(learner={"kind": "ogd_wf"}))]),
            0,
            "ok: learner=ogd_wf (no oracle bounds)",
            id="cli-validate-ogd_wf",
        ),
    ],
)
def test_harness_and_cli_answers_by_name(call, want, message, tmp_path, capsys):
    # an exception type, or an exit code and a message printed; the last two
    # rows are answers, not refusals: the config's one seed scores a trace
    # without a summary, and a learner without bounds validates
    assert_refused(lambda: call(tmp_path), want, message, capsys)


def test_cli_entry_point_installed():
    res = subprocess.run(
        [sys.executable, "-m", "pfoco.cli", "--help"],
        capture_output=True,
        text=True,
    )
    # argparse prints help and exits 0
    assert res.returncode == 0
    assert "run" in res.stdout and "regret" in res.stdout and "validate" in res.stdout


_COLD_IMPORT_SCRIPT = """
import sys

import numpy as np

import pfoco
from pfoco.cli import main
from pfoco.geometry import Box, Polytope
from pfoco.harness import build_set, parse_config_dict, run_one


def scipy_loaded():
    return [m for m in sys.modules if m == "scipy" or m.startswith("scipy.")]


for cfg in (
    {"kind": "ball", "n": 3, "radius": 1.0},
    {"kind": "box", "lower": [-1.0, -0.5], "upper": [1.0, 2.0]},
    {"kind": "simplex", "n": 3},
    {"kind": "l1", "n": 4, "radius": 1.0},
):
    build_set(cfg)
segments = [[60, [1.0, 0.5, -0.3]], [60, [-0.4, -1.0, 0.6]]]
for learner in ({"kind": "so_ogd"}, {"kind": "loo_bogd", "eps": 0.05, "K": 10}):
    cfg = parse_config_dict({
        "T": 120, "seeds": [0], "set": {"kind": "l1", "n": 3, "radius": 1.0},
        "loss": {"kind": "switching_linear", "segments": segments}, "learner": learner,
    })
    assert run_one(cfg, 0)[3]["observed"]["adaptive_regret"] >= 0.0
assert not scipy_loaded(), scipy_loaded()[:3]

# invalid polytopes still fail on their input checks
A = np.vstack([np.eye(2), -np.eye(2)])
for bad_A, bad_b, message in (
    (A, [1.0, 1.0, 1.0, -0.5], "origin must be strictly interior"),
    (np.vstack([A, [0.0, 0.0]]), [1.0] * 5, "zero rows"),
    (np.where(A == 1.0, np.inf, A), [1.0] * 4, "non-finite"),
):
    try:
        Polytope(bad_A, bad_b)
    except ValueError as e:
        assert message in str(e), e
    else:
        raise AssertionError(message)
assert main(["validate", sys.argv[1]]) == 2

# a polytope build, loo and loo_many answer as the equal box does
lower, upper = np.array([-1.0, -0.5, -2.0]), np.array([1.0, 2.0, 0.5])
box = Box(lower, upper)
poly = Polytope(np.vstack([np.eye(3), -np.eye(3)]), np.concatenate([upper, -lower]))
D = np.array([[1.0, -2.0, 0.5], [-1.0, 1.0, -3.0], [0.3, 0.7, 1.1]])
for d in D:
    assert np.array_equal(poly.loo(d), box.loo(d)), d
assert np.array_equal(poly.loo_many(D), box.loo_many(D))
assert not scipy_loaded(), scipy_loaded()[:3]

# the first projection loads scipy.optimize (for its nnls) and clips as the box does
for y in ([3.0, -1.0, 0.2], [-4.0, 5.0, -6.0], [0.5, 2.5, 1.0]):
    y = np.array(y)
    assert np.max(np.abs(poly.project(y) - box.project(y))) <= 1e-12, y
assert "scipy.optimize" in sys.modules
"""


def test_cold_import_loads_scipy_only_with_the_first_projection(tmp_path):
    """A fresh interpreter runs closed-form sets, rejects invalid
    polytopes, and builds a polytope and answers its ``loo`` and
    ``loo_many`` as the equal box does, all without loading any SciPy
    module; the first projection loads ``scipy.optimize`` (for
    ``nnls``)."""
    bad = tmp_path / "bad_polytope.json"
    bad.write_text(
        json.dumps(
            _base_config(set={"kind": "polytope", "A": [[1, 0], [-1, 0], [0, 1], [0, -1]], "b": [1, 1, 1, -0.5]})
        )
    )
    res = subprocess.run(
        [sys.executable, "-c", _COLD_IMPORT_SCRIPT, str(bad)],
        capture_output=True,
        text=True,
    )
    assert res.returncode == 0, res.stderr
