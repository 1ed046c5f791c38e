"""Observability layer: tracing, streaming metrics, exporters, CLI.

The load-bearing contracts pinned here:

* recording is *passive* — a run with an :class:`Observability` attached
  produces a byte-identical ``ServeReport.to_json()`` to a run without;
* each request's phase spans partition ``[arrival, completion]``, so their
  durations sum (exactly, in float) to the report's latency per request;
* traces are deterministic — same seed, byte-identical Chrome trace JSON;
* exporters emit schema-valid output (Perfetto event keys, Prometheus
  exposition lines).
"""

from __future__ import annotations

import copy
import io
import json
import logging
import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.cli import main
from repro.obs import (
    LOG_LEVELS,
    MetricsCollector,
    Observability,
    P2Quantile,
    PID_FLEET,
    PID_REQUESTS,
    Progress,
    StreamingLatency,
    TraceRecorder,
    chrome_trace,
    chrome_trace_json,
    configure_logging,
    load_trace,
    prometheus_text,
    summarize_trace,
)
from repro.obs.sketch import FOLD_BUFFER
from repro.plan import Autoscaler
from repro.serve import (
    DEFAULT_PERCENTILES,
    KVCacheConfig,
    make_policy,
    make_router,
    make_traffic,
    percentile,
    serve,
    serve_llm,
    serve_pipeline,
)
from repro.serve.metrics import LatencySummary, ReportAccumulator, percentile_label


def classic_run(obs=None, autoscaler=None, rate=150.0, duration=2.0):
    traffic = make_traffic("poisson", rate, ("deit-tiny",))
    return serve(traffic, "2xvitality", make_policy("size", batch_size=4),
                 make_router("least-loaded"), duration=duration, seed=7,
                 autoscaler=autoscaler, obs=obs)


def llm_run(obs=None, **kwargs):
    traffic = make_traffic("poisson", 30.0, ("decoder",))
    defaults = dict(fleet="2xvitality", duration=2.0, seed=11,
                    prompt_tokens=256, output_tokens=32,
                    kv=KVCacheConfig(capacity_tokens=8192))
    defaults.update(kwargs)
    return serve_llm(traffic, obs=obs, **defaults)


def request_span_sums(recorder):
    """Per-request sum of phase-span durations, keyed by request index."""

    sums: dict[int, float] = {}
    for event in recorder.events():
        if event.get("ph") == "X" and event["pid"] == PID_REQUESTS:
            index = event["args"]["request"]
            sums[index] = sums.get(index, 0.0) + event["dur"]
    return sums


# --------------------------------------------------------------- P2 sketch


def _loop_p2_add(self, value: float) -> None:
    """The per-value oracle: ``P2Quantile.add`` as it was before the
    batched :meth:`P2Quantile.extend`, applied to a sketch's state."""

    # Hot path: ``serve(summary="streaming")`` calls this several times
    # per completed request, so the marker bookkeeping is unrolled (same
    # arithmetic in the same order as the loop form — estimates stay
    # bit-identical, only the interpreter overhead goes away).
    heights = self._heights
    if len(heights) < 5:
        heights.append(value)
        heights.sort()
        return
    positions = self._positions
    if value < heights[1]:
        if value < heights[0]:
            heights[0] = value
        positions[1] += 1.0
        positions[2] += 1.0
        positions[3] += 1.0
        positions[4] += 1.0
    elif value < heights[2]:
        positions[2] += 1.0
        positions[3] += 1.0
        positions[4] += 1.0
    elif value < heights[3]:
        positions[3] += 1.0
        positions[4] += 1.0
    else:
        if value >= heights[4]:
            heights[4] = value
        positions[4] += 1.0
    desired = self._desired
    rates = self._rates
    desired[1] += rates[1]
    desired[2] += rates[2]
    desired[3] += rates[3]
    desired[4] += 1.0
    for index in (1, 2, 3):
        position = positions[index]
        drift = desired[index] - position
        if (drift >= 1.0 and positions[index + 1] - position > 1.0) \
                or (drift <= -1.0 and positions[index - 1] - position < -1.0):
            sign = 1.0 if drift >= 1.0 else -1.0
            candidate = _loop_parabolic(self, index, sign)
            if heights[index - 1] < candidate < heights[index + 1]:
                heights[index] = candidate
            else:                            # parabola escaped: go linear
                heights[index] = _loop_linear(self, index, sign)
            positions[index] += sign


def _loop_parabolic(self, index: int, sign: float) -> float:
    q, n = self._heights, self._positions
    return q[index] + sign / (n[index + 1] - n[index - 1]) * (
        (n[index] - n[index - 1] + sign)
        * (q[index + 1] - q[index]) / (n[index + 1] - n[index])
        + (n[index + 1] - n[index] - sign)
        * (q[index] - q[index - 1]) / (n[index] - n[index - 1]))


def _loop_linear(self, index: int, sign: float) -> float:
    q, n = self._heights, self._positions
    step = int(sign)
    return q[index] + sign * (q[index + step] - q[index]) / (n[index + step] - n[index])


class _LoopLatency:
    """The per-value ``StreamingLatency`` oracle: each add updates the
    running figures and every sketch (through :func:`_loop_p2_add`) at once."""

    def __init__(self, percentiles=DEFAULT_PERCENTILES):
        fractions = tuple(sorted(set(percentiles) | set(DEFAULT_PERCENTILES)))
        self.sketches = {fraction: P2Quantile(fraction) for fraction in fractions}
        self.count = 0
        self.total = 0.0
        self.max = 0.0

    def add(self, value: float) -> None:
        self.count += 1
        self.total += value
        if value > self.max:
            self.max = value
        for sketch in self.sketches.values():
            _loop_p2_add(sketch, value)

    def summary(self) -> LatencySummary:
        extras = tuple(
            (percentile_label(fraction), self.sketches[fraction].value)
            for fraction in sorted(self.sketches)
            if fraction not in DEFAULT_PERCENTILES)
        if not self.count:
            return LatencySummary(count=0, mean=0.0, p50=0.0, p95=0.0,
                                  p99=0.0, max=0.0,
                                  extras=tuple((label, 0.0)
                                               for label, _ in extras))
        return LatencySummary(
            count=self.count, mean=self.total / self.count,
            p50=self.sketches[0.5].value, p95=self.sketches[0.95].value,
            p99=self.sketches[0.99].value, max=self.max, extras=extras)


def assert_same_fold(stream: StreamingLatency, oracle: _LoopLatency) -> None:
    """Every field of a buffered summary equals the per-value oracle's."""

    assert stream.summary() == oracle.summary()
    assert (stream.count, stream.total, stream.max) == \
        (oracle.count, oracle.total, oracle.max)
    assert stream.fractions == tuple(oracle.sketches)
    for fraction, expected in oracle.sketches.items():
        sketch = stream._sketches[fraction]
        assert sketch._heights == expected._heights
        assert sketch._positions == expected._positions
        assert sketch._desired == expected._desired
        assert sketch.count == expected.count
        assert stream.quantile(fraction) == expected.value


def _stream(length: int, shape: str, seed: int) -> list[float]:
    rng = random.Random(seed)
    if shape == "exponential":
        return [rng.expovariate(200.0) for _ in range(length)]
    if shape == "ties":
        return [rng.choice((0.0, 0.001, 0.002, 0.002, 0.5)) for _ in range(length)]
    return [rng.uniform(-1.0, 1.0) for _ in range(length)]


def test_p2_exact_below_five_samples():
    sketch = P2Quantile(0.5)
    for value in (5.0, 1.0, 3.0):
        sketch.add(value)
    assert sketch.value == 3.0           # nearest-rank median of {1, 3, 5}


def test_p2_tracks_known_quantiles():
    # A deterministic pseudo-random stream; P2 should land within a few
    # percent of the exact nearest-rank value on a smooth distribution.
    values, state = [], 1234567
    for _ in range(5000):
        state = (1103515245 * state + 12345) % (1 << 31)
        values.append(state / float(1 << 31))
    for fraction in (0.5, 0.9, 0.99):
        sketch = P2Quantile(fraction)
        for value in values:
            sketch.add(value)
        exact = percentile(values, fraction)
        assert sketch.value == pytest.approx(exact, abs=0.02)


def test_streaming_latency_summary_matches_percentile():
    stream = StreamingLatency()
    values = [(index * 37 % 101) / 100.0 for index in range(1, 400)]
    for value in values:
        stream.add(value)
    summary = stream.summary()
    assert summary.count == len(values)
    assert summary.mean == pytest.approx(sum(values) / len(values))
    assert summary.p50 == pytest.approx(percentile(values, 0.5), abs=0.02)
    assert summary.p99 == pytest.approx(percentile(values, 0.99), abs=0.05)


@pytest.mark.parametrize("length", [0, 1, 4, 5, 6, FOLD_BUFFER - 1,
                                    FOLD_BUFFER, FOLD_BUFFER + 1,
                                    2 * FOLD_BUFFER + 3])
def test_buffered_fold_equals_per_value_oracle_at_buffer_edges(length):
    stream, oracle = StreamingLatency((0.999,)), _LoopLatency((0.999,))
    for value in _stream(length, "exponential", seed=length):
        stream.add(value)
        oracle.add(value)
    assert_same_fold(stream, oracle)


_VALUES = st.one_of(
    st.floats(min_value=-1e3, max_value=1e3, allow_nan=False),
    st.sampled_from((0.0, 0.001, 0.002, 1.0)))
_READS = ("summary", "count", "total", "max", "quantile", "copy")


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_buffered_fold_equals_per_value_oracle(data):
    """Reads at any point (each one flushes the pending values) and copies
    taken mid-stream leave every field equal to the per-value fold's."""

    extras = data.draw(st.sets(st.sampled_from((0.001, 0.25, 0.9, 0.999)),
                               max_size=2))
    length = data.draw(st.one_of(
        st.integers(0, 12),
        st.sampled_from((FOLD_BUFFER - 1, FOLD_BUFFER, FOLD_BUFFER + 1,
                         2 * FOLD_BUFFER + 7))))
    if length <= 12:
        values = data.draw(st.lists(_VALUES, min_size=length,
                                    max_size=length))
    else:
        values = _stream(length, data.draw(st.sampled_from(
            ("exponential", "ties", "uniform"))), data.draw(st.integers(0, 999)))
    reads = data.draw(st.dictionaries(st.integers(0, length),
                                      st.sampled_from(_READS), max_size=4))
    pairs = [(StreamingLatency(extras), _LoopLatency(extras))]
    window_tail, window_oracle = P2Quantile(0.99), P2Quantile(0.99)
    for index in range(length + 1):
        read = reads.get(index)
        stream, oracle = pairs[0]
        if read == "copy":
            pairs.append((stream.copy(), copy.deepcopy(oracle)))
        elif read == "summary":
            assert stream.summary() == oracle.summary()
        elif read == "quantile":
            for fraction, sketch in oracle.sketches.items():
                assert stream.quantile(fraction) == sketch.value
        elif read is not None:
            assert getattr(stream, read) == getattr(oracle, read)
        if index < length:
            for stream, oracle in pairs:
                stream.add(values[index])
                oracle.add(values[index])
            window_tail.add(values[index])
            _loop_p2_add(window_oracle, values[index])
    for stream, oracle in pairs:
        assert_same_fold(stream, oracle)
    assert (window_tail._heights, window_tail._positions,
            window_tail._desired) == (window_oracle._heights,
                                      window_oracle._positions,
                                      window_oracle._desired)


def test_shared_model_summary_is_copied_before_the_second_models_fold():
    """While one model has arrived its summary is the run-wide one; the
    second model's arrival splits it off before folding that request."""

    accumulator = ReportAccumulator(slo_seconds=0.05, percentiles=(0.999,))
    overall = _LoopLatency((0.999,))
    by_model = {"a": _LoopLatency((0.999,)), "b": _LoopLatency((0.999,)),
                "c": _LoopLatency((0.999,))}
    rng = random.Random(5)
    models = ["a"] * (FOLD_BUFFER + 40) + [rng.choice("abc") for _ in range(900)]
    for index, model in enumerate(models):
        arrival = index * 1e-3
        completion = arrival + rng.expovariate(300.0)
        latency = completion - arrival
        accumulator.observe(model, arrival, arrival, completion)
        overall.add(latency)
        by_model[model].add(latency)
        if index == FOLD_BUFFER + 39:
            assert accumulator.per_model["a"] is accumulator.latency
    assert accumulator.per_model["a"] is not accumulator.latency
    assert_same_fold(accumulator.latency, overall)
    for model, oracle in by_model.items():
        assert_same_fold(accumulator.per_model[model], oracle)


# ---------------------------------------------------------- trace recorder


def test_trace_recorder_orders_metadata_first():
    recorder = TraceRecorder()
    recorder.span("work", start=1.0, end=2.0, pid=1, tid=3, cat="test")
    recorder.process(1, "fleet")
    recorder.thread(1, 3, "replica")
    recorder.thread(1, 3, "replica")          # idempotent
    events = recorder.events()
    assert [event["ph"] for event in events] == ["M", "M", "X"]
    span = events[-1]
    assert span["ts"] == pytest.approx(1e6)
    assert span["dur"] == pytest.approx(1e6)


# ----------------------------------------------------- passive instrumentation


def test_classic_report_identical_with_tracing():
    base = classic_run()
    obs = Observability(trace=TraceRecorder(), metrics=MetricsCollector())
    traced = classic_run(obs=obs)
    assert traced.to_json() == base.to_json()
    assert len(obs.trace) > 0


def assert_spans_match_latency(recorder, report):
    """Phase spans partition [arrival, completion]: per-request sums must
    reproduce the report's latency distribution (count, mean, max)."""

    sums = request_span_sums(recorder)
    spans = [value * 1e-6 for value in sums.values()]
    assert len(spans) == report.completed
    assert math.isclose(sum(spans) / len(spans), report.latency.mean,
                        rel_tol=1e-9)
    assert math.isclose(max(spans), report.latency.max, rel_tol=1e-9)


def test_classic_spans_sum_to_latency():
    obs = Observability(trace=TraceRecorder())
    report = classic_run(obs=obs)
    assert_spans_match_latency(obs.trace, report)


@pytest.mark.parametrize("scheduler", ["continuous", "monolithic"])
def test_llm_report_identical_and_spans_sum(scheduler):
    base = llm_run(scheduler=scheduler)
    obs = Observability(trace=TraceRecorder(), metrics=MetricsCollector())
    traced = llm_run(obs=obs, scheduler=scheduler)
    assert traced.to_json() == base.to_json()
    assert_spans_match_latency(obs.trace, traced)


def test_disaggregated_trace_has_handoff_phase():
    obs = Observability(trace=TraceRecorder())
    base = llm_run(fleet=None, prefill_fleet="1xvitality",
                   decode_fleet="1xvitality")
    traced = llm_run(obs=obs, fleet=None, prefill_fleet="1xvitality",
                     decode_fleet="1xvitality")
    assert traced.to_json() == base.to_json()
    phases = {event["args"]["phase"] for event in obs.trace.events()
              if event.get("ph") == "X" and event["pid"] == PID_REQUESTS}
    assert "handoff" in phases and "prefill" in phases and "decode" in phases


def test_autoscaler_events_match_trace_instants():
    def run(obs=None):
        autoscaler = Autoscaler("utilization", "vitality",
                                max_replicas=6, interval=0.25)
        traffic = make_traffic("poisson", 2000.0, ("deit-tiny",))
        return serve(traffic, "1xvitality", make_policy("size", batch_size=8),
                     make_router("least-loaded"), duration=1.5, seed=3,
                     autoscaler=autoscaler, obs=obs)

    base = run()
    obs = Observability(trace=TraceRecorder())
    traced = run(obs=obs)
    assert traced.to_json() == base.to_json()
    instants = [event for event in obs.trace.events()
                if event.get("ph") == "i" and event.get("cat") == "autoscaler"]
    assert len(instants) == len(traced.scale_events) > 0
    assert ({event["name"] for event in instants}
            == {event.action for event in traced.scale_events})


# --------------------------------------------------------- pipeline serving


def pipeline_run(obs=None):
    traffic = make_traffic("poisson", 120.0, ("deit-tiny",))
    return serve_pipeline(
        traffic, "rag = encoder[tokens=256] -> rerank:encoder[tokens=64] -> deit-tiny",
        {"encoder": "2xvitality", "rerank": "1xvitality",
         "deit-tiny": "1xvitality"},
        duration=1.0, seed=5, obs=obs)


def test_pipeline_report_identical_with_tracing():
    base = pipeline_run()
    obs = Observability(trace=TraceRecorder(), metrics=MetricsCollector())
    traced = pipeline_run(obs=obs)
    assert traced.to_json() == base.to_json()
    assert len(obs.trace) > 0


def test_pipeline_spans_sum_to_latency():
    """Queue/service spans per stage plus the handoff spans between stages
    partition [arrival, completion] — the PR-7 invariant, per pipeline."""

    obs = Observability(trace=TraceRecorder())
    report = pipeline_run(obs=obs)
    assert_spans_match_latency(obs.trace, report)
    events = [event for event in obs.trace.events()
              if event.get("ph") == "X" and event["pid"] == PID_REQUESTS]
    phases = {event["args"]["phase"] for event in events}
    assert phases == {"queue", "service", "handoff"}
    # Queue and service spans carry the stage they ran on; every stage of
    # the linear chain shows up.
    stages = {event["args"]["stage"] for event in events}
    assert stages == {"encoder", "rerank", "deit-tiny"}


def test_pipeline_trace_summarize_per_stage():
    obs = Observability(trace=TraceRecorder())
    report = pipeline_run(obs=obs)
    payload = summarize_trace(chrome_trace(obs.trace))
    assert payload["requests"] == report.completed
    per_stage = payload["per_stage"]
    assert set(per_stage) == {"encoder", "rerank", "deit-tiny"}
    for entry in per_stage.values():
        assert entry["total_seconds"] > 0.0
    # Classic (non-pipeline) traces don't grow the new key.
    classic = Observability(trace=TraceRecorder())
    classic_run(obs=classic)
    assert "per_stage" not in summarize_trace(chrome_trace(classic.trace))


# ---------------------------------------------------------------- exporters


def test_trace_json_deterministic_across_runs():
    payloads = []
    for _ in range(2):
        obs = Observability(trace=TraceRecorder())
        llm_run(obs=obs)
        payloads.append(chrome_trace_json(obs.trace))
    assert payloads[0] == payloads[1]


def test_chrome_trace_schema():
    obs = Observability(trace=TraceRecorder())
    llm_run(obs=obs)
    trace = chrome_trace(obs.trace)
    assert trace["displayTimeUnit"] == "ms"
    events = trace["traceEvents"]
    assert events
    for event in events:
        assert event["ph"] in {"X", "i", "C", "M"}
        assert isinstance(event["pid"], int) and isinstance(event["tid"], int)
        if event["ph"] == "M":
            assert event["name"] in {"process_name", "thread_name"}
        else:
            assert isinstance(event["ts"], float) and event["ts"] >= 0.0
        if event["ph"] == "X":
            assert event["dur"] > 0.0
        if event["ph"] == "i":
            assert event["s"] == "t"
    # Round-trips through JSON (Perfetto loads the serialized form).
    assert json.loads(chrome_trace_json(obs.trace)) == trace


def test_prometheus_text_parses():
    obs = Observability(metrics=MetricsCollector())
    llm_run(obs=obs)
    text = prometheus_text(obs.metrics)
    families = set()
    for line in text.splitlines():
        if not line:
            continue
        if line.startswith("# HELP ") or line.startswith("# TYPE "):
            families.add(line.split()[2])
            continue
        metric, _, rest = line.partition("{")
        if rest:
            labels, _, rest = rest.partition("}")
            for pair in labels.split(","):
                name, _, value = pair.partition("=")
                assert name.isidentifier() and value.startswith('"'), line
        else:
            metric, _, rest = line.partition(" ")
        parts = rest.strip().split()
        assert 1 <= len(parts) <= 2, line
        float(parts[0])                      # value parses
        if len(parts) == 2:
            int(parts[1])                    # timestamp is integer millis
    assert "repro_requests_completed_total" in families
    assert "repro_request_latency_seconds" in families
    assert "repro_request_ttft_seconds" in families
    assert "repro_replica_utilization" in families


def test_prometheus_summaries_export_flushed_values():
    """With fewer completions than one fold buffer every value is still
    pending at export time: ``_count``, ``_sum`` and each quantile must
    come out as the per-value oracle computes them."""

    tail = (0.5, 0.95, 0.99, 0.999)
    metrics = MetricsCollector(percentiles=tail)
    oracles = {"repro_request_latency_seconds": _LoopLatency(tail),
               "repro_request_queue_wait_seconds": _LoopLatency(tail)}
    latencies = _stream(FOLD_BUFFER // 2, "exponential", seed=3)
    waits = _stream(FOLD_BUFFER // 2, "ties", seed=4)
    for index, (latency, wait) in enumerate(zip(latencies, waits)):
        metrics.on_completion(index * 1e-2, latency, queue_wait=wait)
        oracles["repro_request_latency_seconds"].add(latency)
        oracles["repro_request_queue_wait_seconds"].add(wait)
    samples = dict(line.split(" ")[:2]
                   for line in prometheus_text(metrics).splitlines()
                   if line and not line.startswith("#"))
    for name, oracle in oracles.items():
        assert float(samples[f"{name}_count"]) == oracle.count == len(latencies)
        assert float(samples[f"{name}_sum"]) == oracle.total
        for fraction, sketch in oracle.sketches.items():
            assert float(samples[f'{name}{{quantile="{fraction:g}"}}']) \
                == sketch.value


def test_metrics_windows_bounded():
    obs = Observability(metrics=MetricsCollector(window_seconds=0.5))
    report = classic_run(obs=obs)
    metrics = obs.metrics
    assert sum(metrics.completions) == report.completed
    assert sum(metrics.arrivals) == report.offered
    for name in metrics.replicas:
        for value in metrics.utilization(name):
            assert 0.0 <= value <= 1.0 + 1e-9


# ---------------------------------------------------------------- summarize


def test_summarize_trace_shares():
    obs = Observability(trace=TraceRecorder())
    report = llm_run(obs=obs)
    payload = summarize_trace(chrome_trace(obs.trace))
    assert payload["requests"] == report.completed
    shares = [phase["share"] for phase in payload["phases"]]
    assert sum(shares) == pytest.approx(1.0)
    assert {phase["phase"] for phase in payload["phases"]} >= \
        {"queue", "prefill", "decode"}
    assert "decoder" in payload["per_model"]
    assert payload["fleet_busy_seconds"]


# ----------------------------------------------------------------- CLI


def test_cli_trace_round_trip(tmp_path, capsys):
    trace_out = tmp_path / "trace.json"
    metrics_out = tmp_path / "metrics.prom"
    code = main(["serve", "--llm", "--models", "decoder", "--rate", "30",
                 "--duration", "2", "--seed", "5", "--quiet", "--json",
                 "--trace-out", str(trace_out),
                 "--metrics-out", str(metrics_out)])
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    trace = load_trace(trace_out)
    spans: dict[int, float] = {}
    for event in trace["traceEvents"]:
        if event.get("ph") == "X" and event["pid"] == PID_REQUESTS:
            index = event["args"]["request"]
            spans[index] = spans.get(index, 0.0) + event["dur"]
    assert len(spans) == report["completed"]
    mean_span = sum(spans.values()) * 1e-6 / len(spans)
    assert mean_span == pytest.approx(report["latency"]["mean"], rel=1e-6)
    assert "repro_request_latency_seconds" in metrics_out.read_text()

    code = main(["trace", "summarize", str(trace_out), "--json"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["requests"] == report["completed"]


def test_cli_serve_output_identical_with_tracing(tmp_path, capsys):
    argv = ["serve", "--models", "deit-tiny", "--rate", "100",
            "--duration", "1", "--seed", "9", "--quiet", "--json"]
    assert main(argv) == 0
    plain = capsys.readouterr().out
    assert main(argv + ["--trace-out", str(tmp_path / "t.json")]) == 0
    assert capsys.readouterr().out == plain


@pytest.mark.parametrize("content", [
    {},
    {"traceEvents": 5},
    {"traceEvents": [1]},
    {"traceEvents": [{"ph": "X", "pid": PID_REQUESTS, "dur": 5.0,
                      "args": {"phase": "queue"}}]},
    {"traceEvents": [{"ph": "X", "pid": PID_REQUESTS, "tid": 0, "dur": "5",
                      "args": {"phase": "queue"}}]},
    {"traceEvents": [{"ph": "X", "pid": PID_REQUESTS, "tid": 0, "dur": 5.0,
                      "args": 1}]},
], ids=["no-events", "events-not-a-list", "event-not-an-object",
        "span-without-tid", "span-with-string-dur", "args-not-an-object"])
def test_cli_trace_summarize_rejects_bad_file(tmp_path, capsys, content):
    """Each bad file exits 2 naming the file, where three of them once
    died with a TypeError, AttributeError or KeyError traceback."""

    bogus = tmp_path / "not_a_trace.json"
    bogus.write_text(json.dumps(content))
    assert main(["trace", "summarize", str(bogus)]) == 2
    error = capsys.readouterr().err
    assert error.startswith(f"error: cannot summarize {str(bogus)!r}: {bogus}: ")
    assert error.count("\n") == 1


def test_cli_trace_summarize_rejects_missing_file(tmp_path, capsys):
    assert main(["trace", "summarize", str(tmp_path / "missing.json")]) == 2
    assert "cannot summarize" in capsys.readouterr().err


# ----------------------------------------------------- progress and logging


def test_progress_deterministic_mode():
    stream = io.StringIO()
    progress = Progress(label="serve", stream=stream, min_interval=0)
    progress.begin("serve")
    for index in range(200):
        progress.tick(index * 0.01)
    progress.step("milestone")
    progress.finish()
    lines = stream.getvalue().splitlines()
    ticks = [line for line in lines if "events" in line]
    assert len(ticks) == 200 // 64
    assert ticks[0] == "serve: 64 events, t=0.63s"
    assert lines[-1] == "serve: milestone"


def test_cli_quiet_suppresses_progress(capsys):
    argv = ["serve", "--models", "deit-tiny", "--rate", "50",
            "--duration", "0.5", "--json"]
    assert main(argv + ["--quiet"]) == 0
    assert capsys.readouterr().err == ""


def test_configure_logging_levels():
    assert LOG_LEVELS == ("debug", "info", "warning", "error")
    configure_logging("debug")
    assert logging.getLogger().level == logging.DEBUG
    with pytest.raises(ValueError):
        configure_logging("verbose")
    configure_logging("warning")


def test_cli_log_level_emits_debug_lines(capsys):
    argv = ["--log-level", "debug", "serve", "--models", "deit-tiny",
            "--rate", "50", "--duration", "0.5", "--quiet", "--json"]
    assert main(argv) == 0
    err = capsys.readouterr().err
    assert "repro.serve.simulator" in err and "dispatch" in err
    configure_logging("warning")
