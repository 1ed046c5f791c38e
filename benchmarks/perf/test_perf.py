"""Harness test for the benchmark, on every workload at 1/50 size.

    python -m pytest benchmarks/perf -q
"""

from __future__ import annotations

import json
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import pytest

import compare
import record
import run
import workloads
from hostclock import HEAP, SAMPLE_PERIOD_S, TILES, HostClock
from tracer import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SCALE = 1 / 50
NAMES = list(workloads.WORKLOADS)
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _bindings() -> dict:
    """Every attribute of every ``repro`` module and module-level class."""

    snapshot = {}
    for module_name, module in list(sys.modules.items()):
        if module is None or not module_name.startswith("repro"):
            continue
        owners = [module] + [value for value in vars(module).values()
                             if isinstance(value, type)]
        for owner in owners:
            for attribute, value in vars(owner).items():
                snapshot[(id(owner), attribute)] = value
    return snapshot


@pytest.mark.parametrize("name", NAMES)
def test_tracing_is_passive_and_accounts_for_the_op(name):
    workload = workloads.WORKLOADS[name]
    op = workload.build(0, SCALE)
    untraced = workload.payload(op())
    assert workload.check(untraced) is None
    before = _bindings()
    tracers = []
    for _ in range(2):
        tracer = Tracer()
        with tracer.installed():
            assert _bindings() != before          # the wrappers are in place
            payload = workload.payload(tracer.run(op))
        after = _bindings()
        assert after.keys() == before.keys()
        assert all(after[key] is value for key, value in before.items())
        assert workloads.digest(payload) == workloads.digest(untraced)
        layers = sum(tracer.self_seconds.values())
        assert abs(layers - tracer.wall_seconds) <= 0.02 * tracer.wall_seconds
        tracers.append(tracer)
    assert tracers[0].counts == tracers[1].counts
    if "offered" in untraced:
        assert tracers[0].counts["traffic.arrivals"] == untraced["offered"]


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", NAMES)
def test_run_prints_the_declared_metrics(name, trace):
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", name,
         "--seed", "3", "--seconds", "0.1", "--trace", str(trace),
         "--scale", repr(SCALE)],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= (2 * run.MIN_PAIRS if trace else run.MIN_REPS)
    declared = {metric["name"]: metric["unit"] for metric
                in SPEC["per_layer" if trace else "end_to_end"]}
    assert {name: metric["unit"] for name, metric
            in result["metrics"].items()} == declared
    if not trace:
        assert all(metric["value"] > 0 for metric in result["metrics"].values())


@pytest.mark.parametrize("sample", [HEAP, TILES])
def test_host_clock_samples_inside_the_span(sample):
    handler = signal.getsignal(signal.SIGPROF)
    with HostClock(sample) as clock:
        end = time.thread_time() + 0.2
        while time.thread_time() < end:
            pass
    assert signal.getsignal(signal.SIGPROF) is handler
    assert signal.getitimer(signal.ITIMER_PROF) == (0.0, 0.0)
    # At least one sample per period, and the one at the end.
    assert len(clock.samples) >= 0.2 / SAMPLE_PERIOD_S
    spent = 0.2 - sum(clock.samples[:-1])
    assert 0 < clock.reference_seconds
    slowdown = statistics.mean(clock.samples) / sample.reference_s
    assert abs(clock.reference_seconds - spent / slowdown ** sample.exponent
               ) < 0.01 * spent


def test_run_fails_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks" / "perf")
    done = subprocess.run(
        [sys.executable, "benchmarks/perf/run.py", "--workload", NAMES[0],
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert done.returncode != 0
    assert done.stdout == ""


def _summary(*values: float) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"values": list(values), "q1": q1, "median": median, "q3": q3}


@pytest.mark.parametrize("base, new, expected", [
    ((1.0, 1.01, 0.99, 1.0, 1.0), (1.0, 1.02, 1.0, 0.99, 1.01), "unchanged"),
    ((1.0, 1.01, 0.99, 1.0, 1.0), (1.2, 1.21, 1.19, 1.2, 1.2), "worse"),
    ((1.0, 1.01, 0.99, 1.0, 1.0), (0.9, 0.91, 0.89, 0.9, 0.9), "better"),
    ((1.0, 1.5, 0.7, 1.2, 0.8), (1.1, 1.6, 0.8, 1.3, 0.9), "unresolved"),
    ((2.0, 3.0, 1.4, 2.4, 1.6), (1.0, 1.1, 0.9, 1.2, 0.8), "better"),
])
def test_compare_verdicts(base, new, expected):
    verdict, _ = compare.verdict(_summary(*base), _summary(*new), "lower", 0.1)
    assert verdict == expected


def test_compare_noise_is_paired_by_seed():
    # Work differs by 30% from seed to seed, the same way in both files.
    base = _summary(1.0, 1.3, 1.1, 1.2, 1.0)
    new = _summary(1.01, 1.3, 1.1, 1.21, 0.99)
    assert compare.spread(base) > 0.1
    shared = compare.pairs(base, new, [0, 1, 2, 3, 4], [0, 1, 2, 3, 4])
    assert compare.verdict(base, new, "lower", 0.1, shared)[0] == "unchanged"
    assert compare.verdict(base, new, "lower", 0.1)[0] == "unresolved"


def test_compare_counts_run_by_run():
    base = {"values": [5, 7]}
    assert compare.exact(base, {"values": [7, 9]}, [0, 1], [1, 2]) == "same"
    assert compare.exact(base, {"values": [8]}, [0, 1], [1]) == "differs"
    assert compare.exact(base, {"values": [8]}, [0, 1], [4]) == "no shared seed"
    assert compare.exact(base, {"values": [None, 9]}, [0, 1], [1, 2]) == (
        "no shared seed")


def test_record_keeps_runs_that_report_no_metrics():
    summary = record.summarise([2.0, None, 4.0, 3.0])
    assert summary["median"] == 3.0 and summary["values"][1] is None
    assert record.summarise([None, None])["median"] is None
    failed = {**record.summarise([None, None]), "unit": "s"}
    assert compare.verdict(_summary(1.0, 1.1, 0.9), failed, "lower", 0.1)[0] == (
        "missing")
