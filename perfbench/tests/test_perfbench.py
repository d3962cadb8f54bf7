"""Tests of the benchmark's own machinery: span bookkeeping, wrapper
restoration, trace neutrality, host-speed scaling and the non-vacuity
gate."""

import json
import os

import numpy as np
import pytest

import bench
import hostspeed
import tracing
from pfoco.harness import build_schedule, build_set, parse_config_dict, run_learner, run_one
from workloads import WORKLOADS


def _small_configs():
    rng = np.random.default_rng(7)
    segs = lambda norm: [[100, list(norm * rng.standard_normal(4))] for _ in range(4)]  # noqa: E731
    l1 = {"kind": "l1", "n": 4, "radius": 1.0}
    return [
        {"T": 400, "set": l1, "loss": {"kind": "switching_linear", "segments": segs(1.0)}, "learner": {"kind": "so_ogd"}},
        {
            "T": 400,
            "set": l1,
            "loss": {"kind": "switching_quadratic", "segments": segs(2.0)},
            "learner": {"kind": "loo_bogd", "eps": 0.02, "K": 40},
        },
    ]


def _traced_run(raw):
    tracer = tracing.Tracer()
    with tracer.installed():
        out = run_one(parse_config_dict(raw), 0)
    return tracer, out


@pytest.mark.parametrize("raw", _small_configs())
def test_child_self_times_fit_inside_parent_span(raw):
    tracer, _ = _traced_run(raw)
    assert len(tracer.names) > 100
    dur = np.asarray(tracer.ends) - np.asarray(tracer.starts)
    own = tracing.self_times(tracer)
    assert np.all(own >= 0.0)
    child_self = np.zeros_like(dur)
    for i, p in enumerate(tracer.parents):
        if p >= 0:
            child_self[p] += own[i]
    assert np.all(child_self <= dur)
    m = tracing.layer_metrics(tracer)
    for span, self_key in (
        ("learners.loop_s", "learners.self_s"),
        ("projection.cip_so.s", "projection.cip_so.self_s"),
        ("projection.cip_loo.s", "projection.cip_loo.self_s"),
        ("harness.compare.s", "harness.compare.self_s"),
    ):
        assert 0.0 <= m[self_key] <= m[span]
    assert m["losses.rounds"] == raw["T"]


def test_wrappers_are_restored_even_on_error():
    tracer = tracing.Tracer()
    before = [(owner, attr, vars(owner)[attr]) for owner, attr, _ in tracing.targets()]
    assert len(before) == 9 + 3 * 6
    with pytest.raises(RuntimeError, match="boom"):
        with tracer.installed():
            assert all(vars(owner)[attr] is not fn for owner, attr, fn in before)
            raise RuntimeError("boom")
    assert all(vars(owner)[attr] is fn for owner, attr, fn in before)


@pytest.mark.parametrize("raw", _small_configs())
def test_traced_run_reproduces_untraced_run(raw):
    trace, _, _, summary = run_one(parse_config_dict(raw), 0)
    _, (traced, _, _, traced_summary) = _traced_run(raw)
    np.testing.assert_array_equal(trace.plays, traced.plays)
    for key in ("loo_calls", "so_calls", "adaptive_regret"):
        assert summary["observed"][key] == traced_summary["observed"][key]


def test_scaled_time_is_the_elapsed_time_at_reference_speed():
    ref = hostspeed.REFERENCE_S
    assert hostspeed.scaled(2.0, ref, ref) == pytest.approx(2.0)
    # a host running at half speed doubles the reference time and the raw time alike
    assert hostspeed.scaled(4.0, 2 * ref, 2 * ref) == pytest.approx(2.0)
    assert hostspeed.scaled(3.0, ref, 2 * ref) == pytest.approx(2.0)
    assert hostspeed.reference() > 0.0


def test_vacuity_rules():
    assert bench.vacuity("so_ogd", 100, 0, 100) is not None
    assert bench.vacuity("so_ogd", 100, 0, 101) is None
    assert bench.vacuity("loo_bogd", 100, 0, 0) is not None
    assert bench.vacuity("loo_bogd", 100, 3, 0) is None
    assert bench.vacuity("loo_bogd", 100, 3, 0, [0.5, 0.0]) is not None


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_second_seed_passes_nonvacuity_gate(name):
    for raw in WORKLOADS[name].configs(1):
        cfg = parse_config_dict(raw)
        set_ = build_set(cfg.set_cfg)
        schedule = build_schedule(cfg.loss_cfg, cfg.T, set_, None)
        trace = run_learner(cfg.learner_cfg, set_, schedule, cfg.T, None)
        if cfg.learner_cfg["kind"].startswith("so_"):
            active = np.mean([rec.so_calls > 1 for rec in trace.projections])
        else:
            active = np.mean([rec.outer_iterations > 0 for rec in trace.projections])
        c = trace.counters
        assert bench.vacuity(cfg.learner_cfg["kind"], cfg.T, c.loo_calls, c.so_calls, [active]) is None


def test_benchmark_json_matches_the_metrics_reported():
    with open(os.path.join(os.path.dirname(bench.HERE), "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == bench.END_TO_END_UNITS
    tracer, _ = _traced_run(_small_configs()[0])
    layer_keys = list(tracing.layer_metrics(tracer)) + ["tracing.overhead_frac"]
    assert [m["name"] for m in spec["per_layer"]] == layer_keys
    assert all(m["unit"] == tracing.unit(m["name"]) for m in spec["per_layer"])
