"""Compare two results files from ``record.py``; exit 1 if anything got worse.

    python3 benchmarks/perf/compare.py BASE.json NEW.json

For each (workload, metric) it prints both medians with their quartiles,
the change, the bound and a verdict.  End-to-end metrics use the bound and
direction BENCHMARK.json gives them.  Their noise is the quartile spread
(quartile distance over median) of the per-seed new/base ratios over the
seeds both files measured, so work that differs from seed to seed but not
between the files does not count as noise; with fewer than four shared
seeds it is the larger of the two files' own spreads.

* ``unresolved`` when the noise exceeds the bound, unless every run of one
  side beats every run of the other (then ``better`` or ``worse``);
* ``worse`` when the median got worse by more than the bound;
* ``better`` when it improved by more than the noise and by more than a
  third of the bound (the spread the benchmark is sized to stay under, so a
  drift between two recordings of the same code is not a gain);
* ``unchanged`` otherwise;
* ``missing`` when either file has no value for it (its runs failed).

Count-type layer metrics are compared exactly, run by run over the seeds
both files share (``same`` or ``differs``); other layer metrics have no bound
and are printed for information.  A workload whose failed-op total grew is
``worse``.  Files recorded with different run lengths are refused.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
#: Fewest shared seeds for the noise to come from per-seed ratios.
MIN_PAIRS = 4


def _spread(q1: float, median: float, q3: float) -> float:
    return (q3 - q1) / abs(median) if median else 0.0


def spread(summary: dict) -> float:
    return _spread(summary["q1"], summary["median"], summary["q3"])


def pairs(base: dict, new: dict, base_seeds: list, new_seeds: list) -> list:
    """``(base, new)`` values of every seed both files measured."""

    new_runs = dict(zip(new_seeds, new["values"]))
    return [(value, new_runs[seed])
            for seed, value in zip(base_seeds, base["values"])
            if value is not None and new_runs.get(seed) is not None]


def verdict(base: dict, new: dict, better: str, bound: float,
            paired: list = ()) -> tuple[str, float]:
    """``(verdict, relative change)``; a positive change is a worsening."""

    if base["median"] is None or new["median"] is None:
        return "missing", 0.0
    sign = 1.0 if better == "lower" else -1.0
    change = (sign * (new["median"] - base["median"]) / abs(base["median"])
              if base["median"] else 0.0)
    if len(paired) >= MIN_PAIRS:
        ratios = [new_value / base_value for base_value, new_value in paired]
        q1, median, q3 = statistics.quantiles(ratios, n=4)
        noise = _spread(q1, median, q3)
    else:
        noise = max(spread(base), spread(new))
    base_values = [value for value in base["values"] if value is not None]
    new_values = [value for value in new["values"] if value is not None]
    if better == "lower":
        new_wins = max(new_values) < min(base_values)
        base_wins = max(base_values) < min(new_values)
    else:
        new_wins = min(new_values) > max(base_values)
        base_wins = min(base_values) > max(new_values)
    if noise > bound:
        return ("better" if new_wins else "worse" if base_wins
                else "unresolved"), change
    if change > bound:
        return "worse", change
    if -change > max(noise, bound / 3):
        return "better", change
    return "unchanged", change


def exact(base: dict, new: dict, base_seeds: list, new_seeds: list) -> str:
    shared = pairs(base, new, base_seeds, new_seeds)
    if not shared:
        return "no shared seed"
    return "same" if all(old == value for old, value in shared) else "differs"


def compare(base: dict, new: dict, spec: dict) -> list[dict]:
    """One row per (workload, metric) present in both files."""

    declared = {metric["name"]: metric
                for metric in spec["end_to_end"] + spec["per_layer"]}
    bounded = {metric["name"] for metric in spec["end_to_end"]}
    seeds = base["meta"]["seeds"], new["meta"]["seeds"]
    rows = []
    for workload, base_entry in base["workloads"].items():
        new_entry = new["workloads"].get(workload)
        if new_entry is None:
            continue
        base_failed = sum(run["failed"] for run in base_entry["runs"])
        new_failed = sum(run["failed"] for run in new_entry["runs"])
        rows.append({"workload": workload, "metric": "failed_ops",
                     "base": base_failed, "new": new_failed,
                     "verdict": "worse" if new_failed > base_failed
                     else "unchanged"})
        for name, base_summary in base_entry["metrics"].items():
            new_summary = new_entry["metrics"].get(name)
            if new_summary is None or name not in declared:
                continue
            row = {"workload": workload, "metric": name,
                   "base": base_summary, "new": new_summary}
            if name in bounded:
                row["bound"] = declared[name]["bound"]
                row["verdict"], row["change"] = verdict(
                    base_summary, new_summary, declared[name]["better"],
                    row["bound"], pairs(base_summary, new_summary, *seeds))
            elif declared[name]["unit"] == "count":
                row["verdict"] = exact(base_summary, new_summary, *seeds)
            else:
                row["verdict"] = "info"
            rows.append(row)
    return rows


def _cell(summary) -> str:
    if not isinstance(summary, dict):
        return str(summary)
    if summary["median"] is None:
        return "none"
    return (f"{summary['median']:.6g} "
            f"[{summary['q1']:.4g}, {summary['q3']:.4g}]")


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print("usage: compare.py BASE.json NEW.json", file=sys.stderr)
        return 2
    base, new = (json.loads(Path(path).read_text()) for path in argv)
    if base["meta"]["seconds"] != new["meta"]["seconds"]:
        print(f"run lengths differ: {base['meta']['seconds']} s and "
              f"{new['meta']['seconds']} s", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    rows = compare(base, new, spec)
    print(f"{'workload':15} {'metric':26} {'base median [q1, q3]':34} "
          f"{'new median [q1, q3]':34} {'change':>8} {'bound':>6}  verdict")
    for row in rows:
        change = f"{row['change']:+.1%}" if "change" in row else ""
        bound = f"{row['bound']:.0%}" if "bound" in row else ""
        print(f"{row['workload']:15} {row['metric']:26} {_cell(row['base']):34} "
              f"{_cell(row['new']):34} {change:>8} {bound:>6}  {row['verdict']}")
    return 1 if any(row["verdict"] in ("worse", "missing") for row in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
