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

from pfoco.harness import parse_config_dict, run_one, write_trace_csv
from support import check_cip_so_record, csv_writer_trace

with open(os.path.join(os.path.dirname(__file__), "golden_runs.json")) as _fh:
    GOLDEN = json.load(_fh)
GOLDEN_BY_NAME = {c["name"]: c for c in GOLDEN}


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
    for rec in trace.projections:
        check_cip_so_record(rec, set_)
