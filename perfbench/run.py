"""pfoco benchmark: one workload, one seed, one measurement.

Usage, from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs the workload's seeded batch of ``pfoco run`` invocations against
the package under ``src/``, checks every output, prints a readable
report and, as the last line, one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics`` (end-to-end metrics with
``--trace 0``, the per-layer split with ``--trace 1``).  ``setup_s`` and
``run_s`` are wall times scaled to a fixed host speed (see
``hostspeed.py``); the report also prints them raw.  The full record,
environment and every raw sample included, is also written to
``.perfbench_out/``.
"""

import argparse
import json
import os
import sys

# One process, no helper threads: pin BLAS/OpenMP pools before numpy loads.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "pfoco", "__init__.py")):
        print(f"error: no pfoco package under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import bench
    import pfoco

    if os.path.dirname(os.path.abspath(pfoco.__file__)) != os.path.join(SRC, "pfoco"):
        print(f"error: imported pfoco from {pfoco.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    if args.workload not in bench.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(bench.WORKLOADS)}", file=sys.stderr)
        return 2

    try:
        record = bench.run_workload(args.workload, args.seed, args.seconds, bool(args.trace), ROOT)
    except bench.VacuousWorkload as e:
        print(f"error: refusing to report {args.workload}: non-vacuity gate failed: {e}", file=sys.stderr)
        return 3

    out_dir = os.path.join(ROOT, ".perfbench_out")
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, f"{args.workload}_seed{args.seed}_trace{args.trace}.json"), "w") as fh:
        json.dump(record, fh, indent=2)

    env = record["environment"]
    print(
        f"{args.workload} seed={args.seed} trace={args.trace}: attempted {record['attempted']}, "
        f"failed {record['failed']} ({'pass' if record['correct'] else 'FAIL'}); nproc={env['nproc']} "
        f"python={env['python']} numpy={env['numpy']} scipy={env['scipy']}"
    )
    for name, m in record["metrics"].items():
        print(f"  {name:36s} {m['value']:.6g} {m['unit']}")
    raw = record["raw"]
    print("  raw wall times, before scaling to the host-speed reference:")
    for name, v in raw.items():
        if v is not None:
            print(f"    {name:34s} {v:.6g} s")
    print(json.dumps({k: record[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
