"""Run one served-path benchmark workload from a seed.

Usage (from the repository root)::

    python3 servebench/run.py --workload firehose --seed 1 --seconds 15 --trace 0

Prints a table of every metric -- calibrated value, raw wall-clock value
and unit -- and the attempted/failed count of every kind of operation,
then, as the last line, one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end metrics; with
``--trace 1`` the run installs the span wrappers of ``tracing.py`` and the
metrics are the per-layer ones.  ``--storage columnar`` runs the workload
on the columnar backend (for reference figures; not a workload of its
own).  The exit code is non-zero if any operation or check failed.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
if not (ROOT / "src" / "repro").is_dir():
    sys.exit(f"servebench: no program source at {ROOT / 'src' / 'repro'}")
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from servebench.workloads import (  # noqa: E402
    OPERATION_KINDS,
    WORKLOADS,
    DurableTrickle,
    Run,
    percentile,
)

#: scratch space for durable directories, inside the checkout
WORKDIR = ROOT / ".servebench-work"


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--storage", default=None, help="storage backend override")
    return parser.parse_args(argv)


def execute(args: argparse.Namespace) -> dict:
    """Run one workload; returns the result object (also printed)."""
    workload_cls = WORKLOADS[args.workload]
    tracer = None
    if args.trace:
        from servebench.tracing import Tracer

        tracer = Tracer(workload_cls.CLOCK)
        tracer.install()
    workdir = WORKDIR / f"{args.workload}-{os.getpid()}"
    try:
        if workload_cls is DurableTrickle:
            workdir.mkdir(parents=True)
            workload = workload_cls(args.seed, args.seconds, workdir)
        else:
            workload = workload_cls(args.seed, args.seconds)
        run = Run(args.seconds, tracer, workload_cls.CLOCK)
        workload.run(run, args.storage)
    finally:
        if tracer is not None:
            tracer.uninstall()
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORKDIR.rmdir()
        except OSError:
            pass

    print(f"workload {args.workload}  seed {args.seed}  storage {args.storage or 'default'}")
    print(f"documents measured {run.documents}  alerted {sum(map(len, run.alert_ms))}  "
          f"subscribe samples {len(run.subscribe_ms)}  calibration probes {len(run.cal.probes)}")
    for number, latencies in enumerate(run.alert_ms):
        print(f"round {number}: alerted {len(latencies)}  alert p50 {percentile(latencies, 0.5):.4f}"
              f"  p99 {percentile(latencies, 0.99):.4f} ms (calibrated)")
    print(f"{'operation':<14}{'attempted':>10}{'failed':>8}")
    for kind in OPERATION_KINDS:
        print(f"{kind:<14}{run.attempted[kind]:>10}{run.failed[kind]:>8}")
    for problem in run.problems[:20]:
        print(f"PROBLEM {problem}")
    if run.tie_differences:
        print(f"recovered results with another document tied at the k-th score"
              f" (not failures): {len(run.tie_differences)}")
        for tie in run.tie_differences[:5]:
            print(f"TIE {tie}")
    if tracer is not None:
        metrics = tracer.metrics(run)
        print(tracer.table())
        printed = {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}
    else:
        metrics = run.metrics()
        print(f"{'metric':<18}{'calibrated':>14}{'raw':>14}  unit")
        for name, (value, raw, unit) in metrics.items():
            print(f"{name:<18}{value:>14.4f}{raw:>14.4f}  {unit}")
        print("raw " + json.dumps({name: raw for name, (_, raw, _) in metrics.items()}))
        printed = {name: {"value": value, "unit": unit} for name, (value, _, unit) in metrics.items()}
    failed = sum(run.failed.values())
    return {
        "correct": failed == 0,
        "attempted": sum(run.attempted.values()),
        "failed": failed,
        "metrics": printed,
    }


def main(argv=None) -> int:
    result = execute(parse_args(argv))
    print(json.dumps(result))
    return 0 if result["failed"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
