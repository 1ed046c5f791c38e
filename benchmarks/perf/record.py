"""Run the benchmark over several seeds and write one results file.

    python3 benchmarks/perf/record.py --seeds 0-9 --out benchmarks/perf/results/base_a.json
    python3 benchmarks/perf/record.py --seeds 0 --trace 1 --out benchmarks/perf/results/traced.json

Each (seed, workload) pair is one ``run.py`` process of BENCHMARK.json's
``run_seconds``, over every workload it declares; seeds are the outer loop,
so a slow spell of the machine spreads over every workload.  The file
records the environment (git SHA and ``src`` tree, Python, ``nproc``,
platform, run length) and, per workload, every run's repetition and failure
counts and every metric's values, one per seed, with their median,
quartiles, min and max.  A run that reports no metrics (every op failed) or
no result at all is kept as a failed run with ``null`` values, so a partly
failed recording still yields a file, which ``compare.py`` calls worse.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]


def summarise(values: list[float | None]) -> dict:
    """Median, quartiles (as ``statistics.quantiles(n=4)``), min and max of
    the values that are not None; all None if none is."""

    present = [value for value in values if value is not None]
    if not present:
        return dict.fromkeys(("median", "q1", "q3", "min", "max"),
                             None) | {"values": values}
    if len(present) > 1:
        q1, _, q3 = statistics.quantiles(present, n=4)
    else:
        q1 = q3 = present[0]
    return {"median": statistics.median(present), "q1": q1, "q3": q3,
            "min": min(present), "max": max(present), "values": values}


def run_once(name: str, seed: int, seconds: int, trace: int) -> dict:
    """One ``run.py`` process; a run that prints no result is a failed run."""

    try:
        done = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", name,
             "--seed", str(seed), "--seconds", str(seconds),
             "--trace", str(trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=600)
        lines = done.stdout.splitlines()
        result = json.loads(lines[-1]) if lines else None
        exit_code, stderr = done.returncode, done.stderr
    except subprocess.TimeoutExpired as error:
        result, exit_code, stderr = None, None, str(error)
    if result is None:
        print(f"{name} at seed {seed} printed no result:\n{stderr[-4000:]}",
              file=sys.stderr)
        result = {"correct": False, "attempted": 0, "failed": 1, "metrics": {}}
    result.update(seed=seed, exit_code=exit_code)
    return result


def parse_seeds(text: str) -> list[int]:
    """``"0-9"`` or ``"0,3,5"`` -> a list of seeds."""

    seeds = []
    for part in text.split(","):
        low, _, high = part.partition("-")
        seeds.extend(range(int(low), int(high or low) + 1))
    return seeds


def _git(*args: str) -> str:
    try:
        return subprocess.run(["git", *args], cwd=ROOT, capture_output=True,
                              text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=parse_seeds, default=parse_seeds("0-9"))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    seconds = spec["run_seconds"]
    declared = spec["per_layer" if args.trace else "end_to_end"]

    runs = {workload["name"]: [] for workload in spec["workloads"]}
    for seed in args.seeds:
        for name, results in runs.items():
            result = run_once(name, seed, seconds, args.trace)
            results.append(result)
            print(f"seed {seed} {name}: exit {result['exit_code']}, "
                  f"{result['attempted']} ops, {result['failed']} failed",
                  file=sys.stderr)

    workloads = {}
    for name, results in runs.items():
        metrics = {}
        for metric in declared:
            values = [result["metrics"].get(metric["name"], {}).get("value")
                      for result in results]
            metrics[metric["name"]] = {"unit": metric["unit"],
                                       **summarise(values)}
        workloads[name] = {
            "runs": [{key: result[key] for key in
                      ("seed", "exit_code", "correct", "attempted", "failed")}
                     for result in results],
            "metrics": metrics}
    record = {
        "meta": {
            "git_sha": _git("rev-parse", "HEAD"),
            "src_tree": _git("rev-parse", "HEAD:src"),
            "src_dirty": _git("status", "--porcelain", "src") != "",
            "python": platform.python_version(),
            "nproc": len(os.sched_getaffinity(0)),
            "platform": platform.platform(),
            "seconds": seconds,
            "trace": args.trace,
            "seeds": args.seeds,
        },
        "workloads": workloads,
    }
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(record, indent=1) + "\n")
    failed = sum(run["failed"] for results in runs.values() for run in results)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
