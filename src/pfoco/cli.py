"""Command-line front end.

Subcommands:

* ``pfoco run CONFIG [--seeds 0,1,2] [--out DIR]`` -- run the
  experiment for each seed, writing ``<config>_seed<k>.csv`` traces and
  ``.summary.json`` files into the output directory (``--out``, then
  the config's ``out_dir``, then $PFOCO_OUT_DIR, then ``runs``).
* ``pfoco regret TRACE CONFIG [--intervals POLICY|FILE] [--seed K]``
  -- re-score a written trace against the certified comparators.  The
  seed comes from the trace's sibling ``.summary.json``, else from a
  config that lists exactly one seed; ``--seed`` may repeat it but not
  contradict it.  Every play must lie in K, and the trace's loss column
  must equal f_t(x_t) of the rebuilt schedule at its plays.
* ``pfoco validate CONFIG`` -- parse and resolve a config without
  running it.

Exit codes: 0 success, 2 invalid configuration or parameters, or a file
that cannot be read or written, 3 oracle contract violation (an oracle
budget ceiling was exceeded at runtime).
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

import numpy as np

from .geometry import OracleContractError
from .harness import (
    ConfigError,
    build_instance,
    check_seeds,
    intervals_from_cfg,
    interval_regret_report,
    learner_params,
    parse_config_file,
    read_intervals_file,
    read_trace_csv,
    resolve_out_dir,
    run_one,
    trace_basename,
    write_run_outputs,
)
from .learners import LEARNERS, theoretical_bounds


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: ``parse_args`` keeps no
    state between calls, and an in-process ``main`` call would otherwise
    spend about 0.8 ms building it again."""
    p = argparse.ArgumentParser(prog="pfoco", description="Projection-free online convex optimization benchmarks.")
    sub = p.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run an experiment config")
    run_p.add_argument("config")
    run_p.add_argument("--seeds", help="comma-separated seed list overriding the config")
    run_p.add_argument("--out", help="output directory for traces and summaries")

    reg_p = sub.add_parser("regret", help="score a trace CSV against certified comparators")
    reg_p.add_argument("trace")
    reg_p.add_argument("config")
    reg_p.add_argument(
        "--intervals",
        help="'strided', 'exhaustive', or a JSON file holding [[start, end], ...] (default: config or strided)",
    )
    reg_p.add_argument(
        "--seed",
        type=int,
        help="seed that produced the trace (default: the sibling .summary.json's, else the config's only seed)",
    )

    val_p = sub.add_parser("validate", help="check a config without running it")
    val_p.add_argument("config")
    return p


def _parse_seeds(text: str) -> list[int]:
    try:
        seeds = [int(s) for s in text.split(",") if s.strip() != ""]
    except ValueError as e:
        raise ConfigError(f"bad --seeds list {text!r}") from e
    if not seeds:
        raise ConfigError(f"--seeds {text!r} names no seed")
    check_seeds(seeds, "--seeds")
    return seeds


def _cmd_run(args) -> int:
    cfg = parse_config_file(args.config)
    seeds = cfg.seeds if args.seeds is None else _parse_seeds(args.seeds)
    out_dir = resolve_out_dir(args.out, cfg)
    for seed in seeds:
        trace, _, _, summary = run_one(cfg, seed)
        base = trace_basename(args.config, seed)
        trace_path, summary_path = write_run_outputs(out_dir, base, trace, summary)
        obs = summary["observed"]
        reg = obs.get("adaptive_regret", obs.get("static_regret"))
        reg_txt = "n/a" if reg is None else f"{reg:.6g}"
        print(
            f"seed {seed}: regret {reg_txt}, loo {obs['loo_calls']}, so {obs['so_calls']}, "
            f"{obs['wall_time_s']:.2f}s -> {trace_path}"
        )
        print(f"  summary: {summary_path}")
    return 0


def _cmd_regret(args) -> int:
    cfg = parse_config_file(args.config)
    trace = read_trace_csv(args.trace)
    if trace.T != cfg.T:
        raise ConfigError(f"trace has {trace.T} rounds but config.T = {cfg.T}")
    set_, schedule, _ = build_instance(cfg, _trace_seed(args.trace, args.seed, cfg))
    answer = set_.separate(trace.plays)
    if not answer.feasible:
        raise ConfigError(f"trace play at round {answer.row + 1} is outside the feasible set")
    _check_loss_column(trace, schedule)

    if args.intervals in (None, "strided", "exhaustive"):
        policy = cfg.intervals_cfg if args.intervals is None else {"policy": args.intervals}
        intervals = intervals_from_cfg(policy, cfg.T, schedule.boundaries)
    else:
        intervals = read_intervals_file(args.intervals, cfg.T)

    report = interval_regret_report(trace, schedule, set_, intervals)
    print(f"static regret [1, {cfg.T}]: {report.static_regret:.10g} (comparator: {report.method})")
    print(
        f"adaptive regret over {report.n_intervals} intervals: {report.max_regret:.10g} "
        f"at [{report.argmax[0]}, {report.argmax[1]}]"
    )
    return 0


def _check_loss_column(trace, schedule) -> None:
    """Each recorded loss must be f_t(x_t) to 1e-12 relative (relative to
    the larger of |f_t(x_t)| and the schedule's value bound M), or the
    scores would rest on losses the plays did not incur."""
    want = schedule.family.values(schedule.rows, trace.plays)
    tol = 1e-12 * np.maximum(np.abs(want), schedule.M)
    off = np.flatnonzero(~(np.abs(trace.losses - want) <= tol))
    if off.size:
        t = int(off[0])
        raise ConfigError(
            f"trace loss at round {t + 1} is {float(trace.losses[t])!r}, "
            f"but the schedule gives f_t(x_t) = {float(want[t])!r}"
        )


def _trace_seed(trace_path: str, given, cfg) -> int:
    """The seed that produced a trace; never a guess among several.

    The trace's sibling summary, when there is one, also records the T,
    set and loss of its run: a trace scored against another config
    would get that config's numbers, so these must match."""
    if given is not None:
        check_seeds([given], "--seed")
    summary_path = os.path.splitext(trace_path)[0] + ".summary.json"
    if os.path.exists(summary_path):
        try:
            with open(summary_path) as fh:
                summary = json.load(fh)
            seed = int(summary["seed"])
        except (ValueError, KeyError, TypeError) as e:
            raise ConfigError(f"unreadable summary {summary_path}: {e}") from e
        for field, value in (("T", cfg.T), ("set", cfg.set_cfg), ("loss", cfg.loss_cfg)):
            if summary.get(field) != value:
                raise ConfigError(f"config {field} differs from the {field} recorded in {summary_path}")
        if given is not None and given != seed:
            raise ConfigError(f"--seed {given} contradicts seed {seed} in {summary_path}")
        return seed
    if given is not None:
        return given
    if len(cfg.seeds) == 1:
        return cfg.seeds[0]
    raise ConfigError(f"ambiguous seed: config lists seeds {cfg.seeds} and there is no {summary_path}; pass --seed")


def _cmd_validate(args) -> int:
    cfg = parse_config_file(args.config)
    set_, schedule, _ = build_instance(cfg, cfg.seeds[0])
    kind = cfg.learner_cfg["kind"]
    print(f"ok: T={cfg.T} seeds={cfg.seeds} set={cfg.set_cfg['kind']} (n={set_.n}, R={set_.R:.6g}, r={set_.r:.6g})")
    print(f"ok: loss={schedule.kind} G_f={schedule.G_f:.6g} M={schedule.M:.6g}")
    params = learner_params(cfg.learner_cfg, set_, schedule, cfg.T)
    if LEARNERS[kind].bounds is None:
        print(f"ok: learner={kind} (no oracle bounds)")
        return 0
    bounds = theoretical_bounds(params)
    print(
        f"ok: learner={kind} K={params.K} B={params.B} -> regret bound {bounds['regret']:.6g}, "
        f"{bounds['oracle']} calls bound {bounds['oracle_calls']:.6g}"
    )
    return 0


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "regret":
            return _cmd_regret(args)
        return _cmd_validate(args)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except OracleContractError as e:
        print(f"oracle contract violation: {e}", file=sys.stderr)
        for k, v in sorted(getattr(e, "diagnostics", {}).items()):
            print(f"  {k}: {v}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
