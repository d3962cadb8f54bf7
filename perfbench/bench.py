"""One benchmark run of one workload.

A run generates its batch of configs from the seed, times set-up in
fresh interpreters, then cycles ``pfoco run`` (in process, through
``pfoco.cli.main``) over the batch until the time budget is spent.  Each
timed set-up and run is bracketed by the host-speed reference
(``hostspeed``), and ``setup_s`` and ``run_s`` are reported at the
reference speed; the raw times are kept in the record.  With tracing on,
every untraced run is paired with a traced one and the per-layer split
comes from the traced runs.  Outputs are checked outside the timed
region; a failed check counts the run as failed.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from typing import Optional

import numpy as np
import scipy

import hostspeed
import tracing
from pfoco import cli
from pfoco.harness import (
    build_schedule,
    build_set,
    interval_regret_report,
    intervals_from_cfg,
    parse_config_file,
    read_trace_csv,
    trace_basename,
)
from workloads import WORKLOADS

SETUP_REPS = 3
HERE = os.path.dirname(os.path.abspath(__file__))

END_TO_END_UNITS = {
    "setup_s": "s",
    "run_s": "s",
    "oracle_calls": "count",
    "adaptive_regret": "loss",
    "peak_rss_mb": "MB",
    "pass_frac": "ratio",
}


class VacuousWorkload(RuntimeError):
    """A run whose projections never did any work."""


@dataclasses.dataclass
class Instance:
    """One (config, seed) of the batch and everything measured on it."""

    index: int
    config_path: str
    out_dir: str
    seed: int
    T: int
    learner: str
    run_s: list = dataclasses.field(default_factory=list)
    scaled_run_s: list = dataclasses.field(default_factory=list)
    traced_run_s: list = dataclasses.field(default_factory=list)
    layers: list = dataclasses.field(default_factory=list)
    attempts: int = 0
    failed: int = 0
    failures: list = dataclasses.field(default_factory=list)
    digest: Optional[str] = None
    observed: Optional[dict] = None

    @property
    def base(self) -> str:
        return os.path.join(self.out_dir, trace_basename(self.config_path, self.seed))

    def fail(self, why: str) -> None:
        self.failures.append(why)
        print(f"run failed: instance {self.index}: {why}", file=sys.stderr)


def environment() -> dict:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "threads": {k: v for k, v in os.environ.items() if k.endswith("_NUM_THREADS")},
    }


def time_setup(src_dir: str, config_path: str, reps: int = SETUP_REPS) -> tuple[list[float], list[float]]:
    """Raw and reference-scaled wall times of fresh interpreters that
    import pfoco, parse the config and build its set.  No wait timeout:
    with one, ``Popen.wait`` polls and rounds every sample up to its 50 ms
    poll step."""
    probe = os.path.join(HERE, "setup_probe.py")
    raw, scaled = [], []
    before = hostspeed.reference()
    for _ in range(reps):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, probe, src_dir, config_path], check=True)
        raw.append(time.perf_counter() - t0)
        after = hostspeed.reference()
        scaled.append(hostspeed.scaled(raw[-1], before, after))
        before = after
    return raw, scaled


def attempt(inst: Instance, tracer: Optional[tracing.Tracer] = None) -> Optional[float]:
    """One timed ``pfoco run`` of the instance; checks that need no
    re-scoring run right after it, outside the timed region.  Returns the
    wall time of an untraced run that completed, else None."""
    inst.attempts += 1
    argv = ["run", inst.config_path, "--seeds", str(inst.seed), "--out", inst.out_dir]
    failures = len(inst.failures)
    try:
        with tracer.installed() if tracer else contextlib.nullcontext():
            with contextlib.redirect_stdout(io.StringIO()):
                t0 = time.perf_counter()
                rc = cli.main(argv)
                elapsed = time.perf_counter() - t0
    except Exception as e:  # a run that raises is a failed attempt, not a crashed benchmark
        traceback.print_exc()
        inst.fail(f"raised {type(e).__name__}: {e}")
        inst.failed += 1
        return None
    if rc != 0:
        inst.fail(f"pfoco run exited {rc}")
    else:
        with open(inst.base + ".summary.json") as fh:
            summary = json.load(fh)
        with open(inst.base + ".csv", "rb") as fh:
            digest = hashlib.sha256(fh.read()).hexdigest()
        obs = summary["observed"]
        observed = {k: obs[k] for k in ("loo_calls", "so_calls", "adaptive_regret")}
        false_checks = sorted(k for k, ok in summary["checks"].items() if not ok)
        if false_checks:
            inst.fail(f"summary checks false: {false_checks}")
        if inst.digest is None:
            inst.digest, inst.observed = digest, observed
        elif digest != inst.digest or observed != inst.observed:
            inst.fail(f"run differs from the instance's first run: {observed} vs {inst.observed}")
        if tracer is None:
            inst.run_s.append(elapsed)
        else:
            inst.traced_run_s.append(elapsed)
            inst.layers.append(tracing.layer_metrics(tracer))
    if tracer is not None:
        tracer.clear()
    if len(inst.failures) > failures:
        inst.failed += 1
    return elapsed if tracer is None and rc == 0 else None


def verify_outputs(inst: Instance) -> None:
    """Feasibility of every play and an exact re-score of the written
    trace against the summary; failures mark every attempt failed."""
    if inst.digest is None:
        return
    cfg = parse_config_file(inst.config_path)
    set_ = build_set(cfg.set_cfg)
    trace = read_trace_csv(inst.base + ".csv")
    outside = [t + 1 for t, x in enumerate(trace.plays) if not set_.contains(x)]
    ss_sched, _ = np.random.SeedSequence(inst.seed).spawn(2)
    schedule = build_schedule(cfg.loss_cfg, cfg.T, set_, np.random.default_rng(ss_sched))
    intervals = intervals_from_cfg(cfg.intervals_cfg, cfg.T, schedule.boundaries)
    rescored = interval_regret_report(trace, schedule, set_, intervals).max_regret
    ok = True
    if outside:
        inst.fail(f"{len(outside)} plays outside the set, first at t={outside[0]}")
        ok = False
    if rescored != inst.observed["adaptive_regret"]:
        inst.fail(f"re-scored adaptive regret {rescored!r} != summary {inst.observed['adaptive_regret']!r}")
        ok = False
    if not ok:
        inst.failed = inst.attempts


def vacuity(learner: str, T: int, loo_calls: int, so_calls: int, active_fracs=()) -> Optional[str]:
    """Why a run's projections did no work, or None when some did.

    A per-round SO run pulls iff it spends more than one SO call on some
    round; a blocked LOO run does work iff any projection calls the LOO.
    """
    if learner.startswith("so_"):
        if not so_calls > T:
            return f"so_calls {so_calls} <= T = {T}: no projection pulled"
    elif not loo_calls > 0:
        return "no LOO call: every projection returned early"
    if any(not frac > 0 for frac in active_fracs):
        return "a traced run has projection active_frac 0"
    return None


def check_nonvacuous(inst: Instance) -> None:
    """Refuse a workload whose projections only returned early."""
    if inst.observed is None:
        return
    key = "projection.cip_so.active_frac" if inst.learner.startswith("so_") else "projection.cip_loo.active_frac"
    obs = inst.observed
    why = vacuity(inst.learner, inst.T, obs["loo_calls"], obs["so_calls"], [layer[key] for layer in inst.layers])
    if why is not None:
        raise VacuousWorkload(f"instance {inst.index}: {why}")


def make_instances(name: str, seed: int, work: str) -> list[Instance]:
    out_dir = os.path.join(work, "out")
    os.makedirs(out_dir, exist_ok=True)
    insts = []
    for index, cfg in enumerate(WORKLOADS[name].configs(seed)):
        path = os.path.join(work, f"{name}_{index}.json")
        with open(path, "w") as fh:
            json.dump(cfg, fh)
        insts.append(Instance(index, path, out_dir, seed, cfg["T"], cfg["learner"]["kind"]))
    return insts


def _mean_of_medians(samples: list[list[float]]) -> float:
    return statistics.fmean(statistics.median(s) for s in samples)


def run_workload(name: str, seed: int, seconds: float, trace: bool, root: str) -> dict:
    """Measure one workload; returns the result record (metrics,
    attempt counts, environment, per-instance samples)."""
    work = os.path.join(root, ".perfbench_work", f"{name}-{seed}-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    try:
        insts = make_instances(name, seed, work)
        hostspeed.reference()  # warm-up: the first LP solve loads HiGHS
        setup, scaled_setup = ([], []) if trace else time_setup(os.path.join(root, "src"), insts[0].config_path)
        tracer = tracing.Tracer() if trace else None

        attempt(insts[0])  # warm-up: lazy imports and first-touch allocation, untimed
        insts[0].run_s.clear()
        reference_s = [hostspeed.reference()]
        t_end = time.perf_counter() + seconds
        k = 0
        while k < len(insts) or time.perf_counter() < t_end:
            inst = insts[k % len(insts)]
            if tracer is None:
                elapsed = attempt(inst)
                reference_s.append(hostspeed.reference())
                if elapsed is not None:
                    inst.scaled_run_s.append(hostspeed.scaled(elapsed, reference_s[-2], reference_s[-1]))
            elif (k // len(insts)) % 2 == 0:  # alternate which side runs first on each pass
                attempt(inst)
                attempt(inst, tracer)
            else:
                attempt(inst, tracer)
                attempt(inst)
            k += 1
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

        for inst in insts:
            verify_outputs(inst)
        for inst in insts:
            check_nonvacuous(inst)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted = sum(i.attempts for i in insts)
    failed = sum(i.failed for i in insts)
    # metrics average over the instances with a successful timed run;
    # any failure already makes the result incorrect
    timed = [i for i in insts if i.run_s and (i.layers or not trace)]
    if not timed:
        raise RuntimeError("no instance completed a timed run; no metric can be reported")
    if trace:
        metrics = {}
        for key in timed[0].layers[0]:
            per_inst = [statistics.median(layer[key] for layer in i.layers) for i in timed]
            metrics[key] = max(per_inst) if key.endswith(".max") else statistics.fmean(per_inst)
        traced = _mean_of_medians([i.traced_run_s for i in timed])
        metrics["tracing.overhead_frac"] = traced / _mean_of_medians([i.run_s for i in timed]) - 1.0
    else:
        metrics = {
            "setup_s": statistics.median(scaled_setup),
            "run_s": _mean_of_medians([i.scaled_run_s for i in timed]),
            "oracle_calls": statistics.fmean(i.observed["loo_calls"] + i.observed["so_calls"] for i in timed),
            "adaptive_regret": statistics.fmean(i.observed["adaptive_regret"] for i in timed),
            "peak_rss_mb": peak_rss_mb,
            "pass_frac": (attempted - failed) / attempted,
        }
    return {
        "workload": name,
        "seed": seed,
        "trace": int(trace),
        "seconds": seconds,
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": END_TO_END_UNITS.get(k) or tracing.unit(k)} for k, v in metrics.items()},
        "environment": environment(),
        "raw": {
            "setup_s": statistics.median(setup) if setup else None,
            "run_s": _mean_of_medians([i.run_s for i in timed]),
            "reference_s": statistics.median(reference_s),
        },
        "setup_samples_s": setup,
        "scaled_setup_samples_s": scaled_setup,
        "reference_samples_s": reference_s,
        "instances": [
            {
                "index": i.index,
                "T": i.T,
                "learner": i.learner,
                "observed": i.observed,
                "run_s": i.run_s,
                "scaled_run_s": i.scaled_run_s,
                "traced_run_s": i.traced_run_s,
                "attempts": i.attempts,
                "failed": i.failed,
                "failures": i.failures,
            }
            for i in insts
        ],
    }
