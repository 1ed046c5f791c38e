"""Million-request serving: goldens, streaming error bounds, indexed routing.

Four guarantees of the scale work, pinned:

- **Bit-identity of the default path** — ``summary="exact"`` reports are
  byte-for-byte what the pre-streaming simulator produced
  (``tests/data/serve_goldens.json``, captured before lazy arrivals, the
  ``LoadIndex`` router and heapified event seeding landed), and so are the
  streaming, pipeline and trace-digest entries beside them and the planner
  payloads in ``tests/data/plan_goldens.json`` (captured before ``serve``
  and ``serve_pipeline`` shared one event loop and the planners one search
  driver);
- **Laziness is unobservable** — a pattern exposing only the materialised
  ``arrivals()`` list serves bit-identically to its generator-native self;
- **Streaming summaries honour the documented error bound** — running-sum
  figures (counts, means, max, violations, energy, windows' arrival and
  completion counts) are exact, quantiles are P² estimates within 15 %
  relative plus half a millisecond absolute;
- **The analytic-first planner simulates less than it enumerates**, and
  ``jobs=N`` validation returns the serial measurements.
"""

import json
import os
from pathlib import Path

import pytest

from golden_configs import build_golden_reports, build_plan_goldens
from repro.plan import Autoscaler, plan_capacity
from repro.serve import (
    BurstyTraffic,
    DiurnalTraffic,
    LeastLoadedRouter,
    PoissonTraffic,
    ReplayTraffic,
    TokenProfile,
    WorkloadMix,
    compare,
    serve,
    serve_llm,
)

GOLDENS = Path(__file__).parent / "data" / "serve_goldens.json"
PLAN_GOLDENS = Path(__file__).parent / "data" / "plan_goldens.json"
MIX = WorkloadMix.of(["deit-tiny", "levit-128"], [2.0, 1.0])
LLM_MIX = WorkloadMix.of(["decoder"], tokens=TokenProfile.of("64:256", "16:64"))
#: A trace whose larger model is declared but arrives only after the run's
#: duration: KV capacity must still be sized for it.
LATE_MODEL = ReplayTraffic.from_records(
    [(0.1, "decoder"), (0.3, "decoder"), (5.0, "decoder[layers=24]")])


def close(estimate: float, exact: float) -> bool:
    """The documented streaming-quantile envelope: 15% relative plus 0.5ms."""

    return abs(estimate - exact) <= 0.15 * abs(exact) + 5e-4


@pytest.mark.usefixtures("no_float_sum")
class TestExactBitIdentity:
    def test_reports_match_pre_streaming_goldens(self):
        expected = json.loads(GOLDENS.read_text())
        actual = build_golden_reports()
        assert set(actual) == set(expected)
        for name in expected:
            assert actual[name] == expected[name], name

    def test_plan_payloads_match_goldens(self):
        expected = json.loads(PLAN_GOLDENS.read_text())
        actual = build_plan_goldens()
        assert set(actual) == set(expected)
        for name in expected:
            assert actual[name] == expected[name], name

    @pytest.mark.parametrize("traffic, run", [
        (PoissonTraffic(rate=80.0, mix=MIX), lambda traffic: serve(
            traffic, "2xvitality,1xgpu:taylor", policy="timeout",
            router="least-loaded", duration=2.0, seed=7, window_seconds=0.5)),
        (PoissonTraffic(rate=25.0, mix=LLM_MIX), lambda traffic: serve_llm(
            traffic, "2xvitality", duration=2.0, seed=5)),
        (PoissonTraffic(rate=25.0, mix=LLM_MIX), lambda traffic: serve_llm(
            traffic, "2xvitality", duration=2.0, seed=5,
            summary="streaming")),
    ], ids=["serve", "serve_llm-exact", "serve_llm-streaming"])
    def test_materialised_pattern_serves_identically_to_lazy(self, traffic,
                                                             run):
        """Event order must not depend on how arrivals are produced: a
        wrapper hiding ``iter_arrivals`` (so the simulator falls back to the
        materialised list) yields byte-identical reports.  The wrapper
        declares no models either, so ``serve_llm`` generates the arrivals
        once to size KV capacity and serves that list."""

        class ListOnly:
            def __init__(self, inner):
                self._inner = inner

            def arrivals(self, duration, seed):
                return self._inner.arrivals(duration, seed)

            def to_dict(self):
                return self._inner.to_dict()

        assert run(traffic).to_json() == run(ListOnly(traffic)).to_json()

    def test_linear_scan_router_matches_load_index(self):
        """The indexed router is an implementation detail: forcing the
        O(fleet) reference scan changes nothing, autoscaling included."""

        class LinearLeastLoaded(LeastLoadedRouter):
            uses_load_index = False

        traffic = DiurnalTraffic(peak_rate=120.0, mix=MIX, period=3.0)

        def run(router):
            scaler = Autoscaler("queue-depth", "vitality", max_replicas=4,
                                interval=0.25, provision_seconds=0.1)
            return serve(traffic, "1xvitality", policy="timeout",
                         router=router, duration=2.0, seed=11,
                         autoscaler=scaler, window_seconds=0.5)

        assert run("least-loaded").to_json() == \
            run(LinearLeastLoaded()).to_json()


class TestStreamingBound:
    @pytest.mark.parametrize("traffic", [
        PoissonTraffic(rate=300.0, mix=MIX),
        BurstyTraffic(rate=250.0, mix=MIX),
        DiurnalTraffic(peak_rate=400.0, mix=MIX, period=2.0),
    ], ids=["poisson", "bursty", "diurnal"])
    def test_streaming_matches_exact_within_bound(self, traffic):
        kwargs = dict(policy="timeout", router="least-loaded", duration=2.0,
                      seed=3, window_seconds=0.5,
                      percentiles=(0.5, 0.95, 0.99, 0.999))
        exact = serve(traffic, "2xvitality", **kwargs)
        stream = serve(traffic, "2xvitality", **kwargs, summary="streaming")
        assert stream.offered == exact.offered
        assert stream.completed == exact.completed
        assert stream.slo_violation_rate == exact.slo_violation_rate
        assert stream.total_energy_joules == exact.total_energy_joules
        assert stream.makespan == exact.makespan
        assert stream.latency.count == exact.latency.count
        assert stream.latency.max == exact.latency.max
        assert stream.latency.mean == pytest.approx(exact.latency.mean)
        for field in ("p50", "p95", "p99"):
            assert close(getattr(stream.latency, field),
                         getattr(exact.latency, field)), field
        assert close(dict(stream.latency.extras)["p99.9"],
                     dict(exact.latency.extras)["p99.9"])
        for (model, sketch), (_, summary) in zip(stream.per_model,
                                                 exact.per_model):
            assert sketch.count == summary.count, model
            assert close(sketch.p99, summary.p99), model
        assert len(stream.windows) == len(exact.windows)
        for ours, theirs in zip(stream.windows, exact.windows):
            assert (ours.start, ours.end) == (theirs.start, theirs.end)
            assert ours.arrivals == theirs.arrivals
            assert ours.completed == theirs.completed
            assert close(ours.p99, theirs.p99)
        assert stream.config["summary"] == "streaming"
        assert "summary" not in exact.config

    @pytest.mark.parametrize("traffic, kwargs", [
        (PoissonTraffic(rate=25.0, mix=LLM_MIX),
         dict(duration=2.0, seed=5, fleet="2xvitality")),
        (PoissonTraffic(rate=25.0, mix=LLM_MIX),
         dict(duration=2.0, seed=5, prefill_fleet="1xvitality",
              decode_fleet="1xvitality")),
        (LATE_MODEL, dict(duration=1.0, fleet="1xvitality")),
    ], ids=["continuous", "disaggregated", "late-model"])
    def test_llm_streaming_matches_exact(self, traffic, kwargs):
        exact = serve_llm(traffic, **kwargs)
        stream = serve_llm(traffic, **kwargs, summary="streaming")
        assert stream.offered == exact.offered
        assert stream.completed == exact.completed
        assert stream.makespan == exact.makespan
        assert stream.total_energy_joules == exact.total_energy_joules
        # The summary mode picks only the latency sample: token accounting,
        # attainments (exact counters, not sketches), KV sizing from the
        # declared models, every replica row and the cache traffic agree.
        assert stream.llm == exact.llm
        assert stream.per_replica == exact.per_replica
        assert stream.cache == exact.cache
        for field in ("p50", "p95", "p99"):
            assert close(getattr(stream.ttft, field),
                         getattr(exact.ttft, field)), field
            assert close(getattr(stream.tpot, field),
                         getattr(exact.tpot, field)), field

    def test_compare_threads_scale_knobs(self):
        traffic = PoissonTraffic(rate=120.0, mix=MIX)
        rows = compare(traffic, {"small": "1xvitality", "big": "2xvitality"},
                       duration=1.0, seed=2, window_seconds=0.5,
                       summary="streaming")
        for name, report in rows.items():
            assert report.config["summary"] == "streaming", name
            assert report.windows, name
        overload = PoissonTraffic(rate=1200.0, mix=MIX)
        scaled = compare(overload, {"dynamic": "1xvitality"}, duration=1.0,
                         seed=2,
                         autoscaler=Autoscaler("queue-depth", "vitality",
                                               max_replicas=3, interval=0.25,
                                               provision_seconds=0.1))
        assert scaled["dynamic"].scale_events


class TestAnalyticFirstPlanning:
    SCENARIO = dict(rate=1200.0, models=["deit-tiny"], slo_seconds=0.02,
                    duration=1.0, targets=("vitality",), max_replicas=4,
                    top_k=2, policy="fifo", seed=0)

    def test_simulates_strictly_fewer_than_it_enumerates(self):
        payload = plan_capacity(**self.SCENARIO)
        assert payload["simulated"] == len(payload["validated"])
        assert payload["simulated"] < payload["evaluated"]

    @pytest.mark.skipif((os.cpu_count() or 1) < 2,
                        reason="parallel validation needs >= 2 CPUs")
    def test_jobs_matches_serial_measurements(self):
        serial = plan_capacity(**self.SCENARIO)
        parallel = plan_capacity(**self.SCENARIO, jobs=2)
        for key in ("candidates", "validated", "chosen", "boundary",
                    "pareto_frontier", "simulated"):
            assert serial[key] == parallel[key], key
