"""Behaviour lock: small seeded runs of every learner kind must keep their
oracle counts, block structure and summary checks exactly, and the sums
of their plays and losses to 1e-9 relative.

The configs in ``golden_runs.json`` cover the six learner kinds on the
ball, l1 ball, box and polytope, mostly under switching schedules with
``eps``/``K`` overrides, so that the infeasible projections do real work
(each LOO config has at least one projection that leaves its anchor).
Sums stand in for a digest of the trace: the last bits of a dot product
depend on the BLAS kernel a CPU selects, which a byte digest would turn
into a spurious failure.  ``loo_bogd_l1_iid_quad`` gives every round its
own loss, and ``so_bgd_l1_switch_lin_pull`` is a bandit SO run whose
projections pull (more SO calls than rounds).  ``loo_bogd_l1_iid_absdev``
runs a learner on absolute-deviation losses (no comparator, so no regret
check), and ``loo_bbgd_ball_iid_lin`` is a bandit blocked run with one
loss per round whose projections leave their anchors.
``so_ogd_l1_switch_lin_stretch`` has feasible stretches (rounds whose SO
projection accepts its input with one call) longer than
``STRETCH_CHUNK``, and each loss switch falls inside one.
``so_ogd_ball_switch_lin_rescale`` runs on the Euclidean ball, where the
radial rescale is the projection: after each loss switch a feasible
stretch crosses the ball and ends at the round whose input needs the
rescale.  ``loo_bogd_l1_switch_lin_midblock`` switches its loss inside
three of its 40-round blocks, so a block's rows split into runs that end
mid-block.

Each golden trace is also written by ``write_trace_csv`` and compared
byte for byte with the ``csv.writer`` reference.
"""

import json
import os

import numpy as np
import pytest

from pfoco import learners
from pfoco.harness import build_instance, parse_config_dict, run_learner, run_one, write_trace_csv
from support import check_cip_so_records, cip_loo_literal, csv_writer_trace

with open(os.path.join(os.path.dirname(__file__), "golden_runs.json")) as _fh:
    GOLDEN = json.load(_fh)
GOLDEN_BY_NAME = {c["name"]: c for c in GOLDEN}
GOLDEN_LOO = [c for c in GOLDEN if c["config"]["learner"]["kind"].startswith("loo_")]


@pytest.mark.parametrize("case", GOLDEN, ids=[c["name"] for c in GOLDEN])
def test_golden_run(case, tmp_path):
    cfg = parse_config_dict(case["config"])
    trace, _, _, summary = run_one(cfg, cfg.seeds[0])
    want = case["expect"]
    assert trace.counters.loo_calls == want["loo_calls"]
    assert trace.counters.so_calls == want["so_calls"]
    assert int(trace.loo_cum.sum()) == want["loo_cum_sum"]
    assert int(trace.so_cum.sum()) == want["so_cum_sum"]
    assert np.bincount(trace.block_index)[1:].tolist() == want["block_lengths"]
    assert summary["checks"] == want["checks"]
    assert float(trace.plays.sum()) == pytest.approx(want["plays_sum"], rel=1e-9, abs=1e-12)
    assert float(trace.losses.sum()) == pytest.approx(want["losses_sum"], rel=1e-9, abs=1e-12)
    if cfg.learner_cfg["kind"].startswith("loo_"):
        assert any(rec.outer_iterations > 0 for rec in trace.projections)
    fast, reference = tmp_path / "fast.csv", tmp_path / "reference.csv"
    write_trace_csv(trace, str(fast))
    csv_writer_trace(trace, str(reference))
    assert fast.read_bytes() == reference.read_bytes()


def test_golden_bandit_so_run_pulls_within_its_ceilings():
    cfg = parse_config_dict(GOLDEN_BY_NAME["so_bgd_l1_switch_lin_pull"]["config"])
    trace, _, set_, _ = run_one(cfg, cfg.seeds[0])
    assert trace.counters.so_calls > cfg.T
    assert any(rec.so_calls > 1 for rec in trace.projections)
    check_cip_so_records(trace, set_)


@pytest.mark.parametrize("case", GOLDEN_LOO, ids=[c["name"] for c in GOLDEN_LOO])
def test_golden_loo_ledger_counts_the_paper_literal_loop(case, monkeypatch):
    # the summary's ledger gives the LOO calls of the paper's loop, which
    # runs Frank-Wolfe in the paper's order on every pass, to the call
    cfg = parse_config_dict(case["config"])
    trace, _, _, summary = run_one(cfg, cfg.seeds[0])
    ledger = summary["observed"]["loo_ledger"]
    assert ledger["loo_calls"] == trace.counters.loo_calls
    assert ledger["fw_runs"] + ledger["implied_passes"] == sum(rec.outer_iterations for rec in trace.projections)
    monkeypatch.setattr(learners, "cip_loo", cip_loo_literal)
    set_, schedule, play_rng = build_instance(cfg, cfg.seeds[0])
    ref = run_learner(cfg.learner_cfg, set_, schedule, cfg.T, play_rng)
    assert np.array_equal(ref.plays, trace.plays)
    assert ledger["literal_loo_calls"] == ref.counters.loo_calls
    assert ledger["literal_loo_calls"] > ledger["loo_calls"]  # every config has an active projection
