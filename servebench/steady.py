"""Run one workload N times and report how steady each metric is.

Usage (from the repository root)::

    python3 servebench/steady.py --workload firehose --runs 10 --seconds 15

Runs ``run.py --trace 0`` sequentially with seeds ``--first-seed`` ...
``--first-seed + runs - 1`` (one process at a time, so runs do not compete
for the CPU) and prints, for each end-to-end metric, the median, the first
and third quartiles (``statistics.quantiles(values, n=4)``), the quartile
spread as a share of the median, and the max/min ratio -- for the
calibrated values and the raw wall-clock values.  A second set of runs
with another ``--first-seed`` shows whether two sets agree; the
end-to-end bounds in ``BENCHMARK.json`` were set from both.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent


def run_once(workload: str, seed: int, seconds: float) -> dict:
    command = [
        sys.executable, str(HERE / "run.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", "0",
    ]
    started = time.perf_counter()
    completed = subprocess.run(command, capture_output=True, text=True, cwd=HERE.parent)
    elapsed = time.perf_counter() - started
    lines = completed.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        sys.stderr.write(completed.stdout + completed.stderr)
        raise SystemExit(f"seed {seed}: no result, exit code {completed.returncode}")
    # A run whose checks failed still reports its metrics; its problems
    # are shown and it counts in the failed share below.
    for line in lines:
        if line.startswith("PROBLEM "):
            print(f"seed {seed}: {line}", flush=True)
    raw = {}
    for line in lines:
        if line.startswith("raw "):
            raw = json.loads(line[4:])
    result["raw"] = raw
    result["elapsed"] = elapsed
    return result


def spread(values):
    median = statistics.median(values)
    low, _, high = statistics.quantiles(values, n=4)
    return median, low, high, (high - low) / median if median else float("nan")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15)
    args = parser.parse_args(argv)

    results = []
    for seed in range(args.first_seed, args.first_seed + args.runs):
        result = run_once(args.workload, seed, args.seconds)
        results.append(result)
        shown = ", ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items())
        print(
            f"seed {seed}: {result['elapsed']:.0f} s, failed {result['failed']}/{result['attempted']}"
            f"  {shown}",
            flush=True,
        )

    print(f"\n{args.workload}: {args.runs} runs, {args.seconds:g} s each")
    print(f"{'metric':<32}{'median':>12}{'q1':>12}{'q3':>12}{'iqr/med':>9}{'max/min':>9}"
          f"{'raw iqr/med':>13}{'raw median':>12}")
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        median, low, high, share = spread(values)
        ratio = max(values) / min(values) if min(values) > 0 else float("nan")
        raw_median, _, _, raw_share = spread([r["raw"][name] for r in results])
        print(f"{name:<32}{median:>12.4f}{low:>12.4f}{high:>12.4f}{share:>9.3f}{ratio:>9.3f}"
              f"{raw_share:>13.3f}{raw_median:>12.4f}")
    failed = {r["failed"] / r["attempted"] for r in results}
    print(f"failed share per run: {sorted(failed)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
