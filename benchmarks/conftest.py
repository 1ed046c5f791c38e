"""Shared helpers for the benchmark scripts.

``bench_accuracy.py`` times the training-backed paper drivers; the printed
report (enable with ``-s``) shows the reproduced numbers next to the values
the paper reports.  The other scripts time the serving, memsim, sweep and
tracing layers.  ``benchmarks/perf`` is the host-timing benchmark that
``BENCHMARK.json`` declares.

Machine-readable trajectory records: run with ``--json DIR`` and benchmarks
that call the ``bench_json`` fixture write one ``BENCH_<name>.json`` file
each into ``DIR`` — a flat ``{"name", "seconds", ...metrics}`` record (wall
seconds of one driver run plus whatever throughput-style metrics the
benchmark reports), so CI and scripts can track performance over time
without scraping pytest output::

    python -m pytest benchmarks/bench_pipeline_serving.py --json bench-out
    cat bench-out/BENCH_pipeline_serving.json
"""

from __future__ import annotations

import json
import os

import pytest


def pytest_addoption(parser):
    parser.addoption("--json", action="store", default=None, metavar="DIR",
                     help="directory to write machine-readable "
                          "BENCH_<name>.json records into")


def print_report(title: str, payload) -> None:
    """Pretty-print an experiment result below the benchmark output."""

    print(f"\n=== {title} ===")
    print(json.dumps(payload, indent=2, default=_to_serialisable))


def _to_serialisable(value):
    try:
        return float(value)
    except (TypeError, ValueError):
        return str(value)


@pytest.fixture
def report():
    return print_report


@pytest.fixture
def bench_json(request):
    """Write one BENCH_<name>.json record (no-op without ``--json DIR``)."""

    def write(name: str, seconds: float, **metrics) -> None:
        directory = request.config.getoption("--json")
        if not directory:
            return
        os.makedirs(directory, exist_ok=True)
        record = {"name": name, "seconds": seconds, **metrics}
        path = os.path.join(directory, f"BENCH_{name}.json")
        with open(path, "w") as handle:
            json.dump(record, handle, indent=2, default=_to_serialisable)
            handle.write("\n")

    return write
