"""Run one benchmark workload and print its metrics as one JSON line.

    python3 benchmarks/perf/run.py --workload serve_stream --seed 0 --seconds 20 --trace 0

The process sets up once (imports, builds the seeded inputs, runs one
warm-up op at 1/50 size), then repeats the workload's op back to back for
``--seconds`` seconds, and at least ``MIN_REPS`` times.  That is a closed loop
with one client.  Every op is checked: invariants hold, the output is the
same on every repetition, and at seed 0 its digest matches
``expected.json``.  An op that fails any check counts in ``failed``, and the
run then exits 1.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json, with times
in reference seconds (see ``hostclock.py``).  ``setup_s`` is the median
set-up time over this process and four more launches that only set up.
``--trace 1`` alternates untraced and traced ops and reports the per-layer
metrics from the traced ones (see ``tracer.py``).
"""

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

from hostclock import HostClock

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"

#: Fewest timed repetitions a ``--trace 0`` run takes the median of.
MIN_REPS = 7
#: Fewest untraced/traced op pairs a ``--trace 1`` run measures.
MIN_PAIRS = 3
#: ``setup_s`` is the median over this many launches, this one included.
SETUP_LAUNCHES = 5
#: The warm-up op runs the workload at this fraction of its size.
WARMUP_SCALE = 1 / 50
#: Per-layer counts reported as they are (see ``tracer.WRAPPED``).
COUNTS = ("traffic.arrivals", "route.calls", "batch.takes", "batch.dispatches",
          "metrics.observes", "engine.calls", "engine.misses", "hw.runs",
          "memsim.gemms", "memsim.tiles", "plan.estimates", "plan.simulations")


def declared_units(trace: bool) -> dict[str, str]:
    """Metric name -> unit, as BENCHMARK.json declares them for this mode."""

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {metric["name"]: metric["unit"]
            for metric in spec["per_layer" if trace else "end_to_end"]}


def setup(name: str, seed: int, scale: float):
    """Import, build the inputs, run the warm-up op; return (workload, op)."""

    import workloads

    workload = workloads.WORKLOADS[name]
    op = workload.build(seed, scale)
    workload.build(seed, scale * WARMUP_SCALE)()
    return workload, op


class Runner:
    """Runs and checks the ops of one workload, counting the failures."""

    def __init__(self, workload, op, expected_digest: str | None):
        self.workload = workload
        self.op = op
        self.expected_digest = expected_digest
        self.attempted = 0
        self.failed = 0
        self.items = None
        self.digest = None
        self.counts = None

    def execute(self, tracer=None):
        """Run one op, under ``tracer`` if given and on a ``HostClock``
        otherwise; return the one that timed it, or None if the op failed."""

        self.attempted += 1
        try:
            if tracer is None:
                timing = HostClock(self.workload.sample)
                with timing:
                    result = self.op()
            else:
                timing = tracer
                with tracer.installed():
                    result = tracer.run(self.op)
            problem = self._problem(self.workload.payload(result), tracer)
        except Exception:          # a failing op is counted, not fatal
            problem = traceback.format_exc()
        if problem is None:
            return timing
        self.failed += 1
        print(f"op {self.attempted} failed: {problem}", file=sys.stderr)
        return None

    def _problem(self, payload: dict, tracer) -> str | None:
        from workloads import digest

        problem = self.workload.check(payload)
        if problem is not None:
            return problem
        value = digest(payload)
        if self.digest is None:
            self.digest = value
            self.items = self.workload.items(payload)
        reference = self.expected_digest or self.digest
        if value != reference:
            return f"output digest {value} differs from {reference}"
        if tracer is not None:
            counts = dict(tracer.counts)
            if self.counts is None:
                self.counts = counts
            elif counts != self.counts:
                return "layer counts differ between traced ops"
        return None


def repeat(step, seconds: float, minimum: int) -> None:
    """Call ``step`` at least ``minimum`` times, then while the next call is
    expected to end within ``seconds`` of the first one's start."""

    durations: list[float] = []
    start = time.perf_counter()
    while (len(durations) < minimum or time.perf_counter() - start
           + statistics.median(durations) <= seconds):
        begin = time.perf_counter()
        step()
        durations.append(time.perf_counter() - begin)


def setup_seconds(own: float, args) -> float:
    """Median set-up time, in reference seconds, of this process and fresh
    set-up-only launches."""

    launches = [own]
    for _ in range(SETUP_LAUNCHES - 1):
        done = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()),
             "--workload", args.workload, "--seed", str(args.seed),
             "--scale", repr(args.scale), "--setup-only"],
            capture_output=True, text=True, timeout=120, check=True)
        launches.append(json.loads(done.stdout.splitlines()[-1])["setup_s"])
    return statistics.median(launches)


def end_to_end(runner: Runner, seconds: float, own_setup: float, args) -> dict:
    """Times in reference seconds (see ``hostclock.py``)."""

    clocks: list[HostClock] = []

    def step():
        clock = runner.execute()
        if clock is not None:
            clocks.append(clock)

    repeat(step, seconds, MIN_REPS)
    if not clocks:
        return {}
    wall = statistics.median(clock.reference_seconds for clock in clocks)
    samples = [sample for clock in clocks for sample in clock.samples]
    print(f"{len(clocks)} ops: wall median "
          f"{statistics.median(clock.wall_seconds for clock in clocks):.4f} s, "
          f"{len(samples) / len(clocks):.0f} samples per op, sample median "
          f"{statistics.median(samples) * 1e3:.3f} ms", file=sys.stderr)
    return {
        "wall_s": wall,
        "items_per_s": runner.items / wall,
        "setup_s": setup_seconds(own_setup, args),
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def per_layer(runner: Runner, seconds: float) -> dict:
    from tracer import LAYERS, Tracer

    untraced: list[float] = []
    tracers: list[Tracer] = []

    def step():
        clock = runner.execute()
        if clock is not None:
            untraced.append(clock.wall_seconds)
        tracer = Tracer()
        if runner.execute(tracer) is not None:
            tracers.append(tracer)

    repeat(step, seconds, MIN_PAIRS)
    if not (untraced and tracers):
        return {}

    def share(seconds_of) -> float:
        return statistics.median(seconds_of(tracer) / tracer.wall_seconds
                                 for tracer in tracers)

    counts = tracers[0].counts
    metrics = {name: counts[name] for name in COUNTS}
    for layer in LAYERS:
        metrics[f"{layer}.share"] = share(
            lambda tracer: tracer.self_seconds[layer])
    metrics["batch.mean_size"] = (
        counts["batch.requests"] / counts["batch.dispatches"]
        if counts["batch.dispatches"] else 0.0)
    metrics["engine.hit_rate"] = (
        1.0 - counts["engine.misses"] / counts["engine.calls"]
        if counts["engine.calls"] else 0.0)
    metrics["memsim.tiles_per_s"] = (
        statistics.median(tracer.counts["memsim.tiles"]
                          / tracer.self_seconds["memsim"] for tracer in tracers)
        if counts["memsim.tiles"] else 0.0)
    traced_wall = statistics.median(tracer.wall_seconds for tracer in tracers)
    metrics["trace.op_s"] = traced_wall
    metrics["trace.overhead"] = traced_wall / statistics.median(untraced) - 1.0
    metrics["trace.unattributed_share"] = share(
        lambda tracer: tracer.unattributed_seconds)
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # Harness-test and internal flags.
    parser.add_argument("--scale", type=float, default=1.0,
                        help=argparse.SUPPRESS)
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not (SRC / "repro").is_dir():
        print(f"error: no repro sources at {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # Set-up counts from the interpreter's start.
    with HostClock(cpu_start=0.0) as setup_clock:
        import workloads

        if args.workload not in workloads.WORKLOADS:
            parser.error(f"unknown workload {args.workload!r}; choose from "
                         f"{', '.join(workloads.WORKLOADS)}")
        workload, op = setup(args.workload, args.seed, args.scale)
    own_setup = setup_clock.reference_seconds
    if args.setup_only:
        print(json.dumps({"setup_s": own_setup}))
        return 0

    expected = None
    if args.seed == 0 and args.scale == 1.0:
        pinned = json.loads((HERE / "expected.json").read_text())
        expected = pinned[args.workload]
    runner = Runner(workload, op, expected)
    if args.trace:
        metrics = per_layer(runner, args.seconds)
    else:
        metrics = end_to_end(runner, args.seconds, own_setup, args)
    units = declared_units(bool(args.trace))
    if metrics and set(metrics) != set(units):
        raise RuntimeError(f"metrics {sorted(metrics)} do not match "
                           f"BENCHMARK.json {sorted(units)}")
    print(json.dumps({
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in units if name in metrics},
    }))
    return 0 if runner.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
