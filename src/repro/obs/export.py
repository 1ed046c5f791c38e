"""Exporters: Chrome trace-event JSON and Prometheus text exposition.

Both formats are rendered deterministically — dict iteration is insertion
ordered and every cross-replica listing is sorted — so a fixed seed yields
byte-identical files, which the tests pin down the same way they pin
``ServeReport.to_json``.
"""

from __future__ import annotations

import json

from .streaming import MetricsCollector
from .trace import TraceRecorder


# ------------------------------------------------------------ Chrome traces

def chrome_trace(recorder: TraceRecorder) -> dict[str, object]:
    """The trace as a JSON-object trace (what Perfetto's open-file loads)."""

    return {"traceEvents": recorder.events(), "displayTimeUnit": "ms"}


def chrome_trace_json(recorder: TraceRecorder) -> str:
    return json.dumps(chrome_trace(recorder), separators=(",", ":"))


def write_chrome_trace(recorder: TraceRecorder, path) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(chrome_trace_json(recorder))
        handle.write("\n")


# --------------------------------------------------------- Prometheus text

def _escape_label(value: str) -> str:
    return (value.replace("\\", r"\\").replace('"', r'\"')
            .replace("\n", r"\n"))


def _labels(**labels: str) -> str:
    inner = ",".join(f'{key}="{_escape_label(value)}"'
                     for key, value in labels.items())
    return "{" + inner + "}" if inner else ""


def _format(value: float) -> str:
    return repr(float(value))


class _Lines:
    def __init__(self) -> None:
        self.lines: list[str] = []

    def header(self, name: str, kind: str, help_text: str) -> None:
        self.lines.append(f"# HELP {name} {help_text}")
        self.lines.append(f"# TYPE {name} {kind}")

    def sample(self, name: str, value: float, *, timestamp_ms: int | None = None,
               **labels: str) -> None:
        line = f"{name}{_labels(**labels)} {_format(value)}"
        if timestamp_ms is not None:
            line += f" {timestamp_ms}"
        self.lines.append(line)

    def render(self) -> str:
        return "\n".join(self.lines) + "\n"


def _summary_block(out: _Lines, name: str, help_text: str, latency,
                   **labels: str) -> None:
    """One Prometheus summary (quantiles + _sum/_count) from a sketch."""

    out.header(name, "summary", help_text)
    for fraction in latency.fractions:
        out.sample(name, latency.quantile(fraction),
                   quantile=f"{fraction:g}", **labels)
    out.sample(f"{name}_sum", latency.total, **labels)
    out.sample(f"{name}_count", latency.count, **labels)


def prometheus_text(metrics: MetricsCollector) -> str:
    """Render the collector in the Prometheus text exposition format.

    Run-level counters and latency summaries come first, then per-replica
    per-window gauges stamped with the *simulated* time of each window's
    end (milliseconds, the exposition format's timestamp unit) — scraping
    semantics for a finished simulation are "here is the whole series".
    """

    out = _Lines()
    report = metrics.report

    out.header("repro_requests_offered_total", "counter",
               "Requests offered to the fleet over the run.")
    offered = (report.offered if report is not None
               else sum(metrics.arrivals))
    out.sample("repro_requests_offered_total", offered)
    out.header("repro_requests_completed_total", "counter",
               "Requests completed over the run.")
    completed = (report.completed if report is not None
                 else sum(metrics.completions))
    out.sample("repro_requests_completed_total", completed)
    if report is not None:
        out.header("repro_throughput_rps", "gauge",
                   "Completed requests per simulated second (whole run).")
        out.sample("repro_throughput_rps", report.throughput_rps)
        out.header("repro_slo_violation_ratio", "gauge",
                   "Fraction of completed requests over the latency SLO.")
        out.sample("repro_slo_violation_ratio", report.slo_violation_rate)
        out.header("repro_energy_joules_total", "counter",
                   "Fleet energy over the run.")
        out.sample("repro_energy_joules_total", report.total_energy_joules)

    _summary_block(out, "repro_request_latency_seconds",
                   "End-to-end request latency (P2 streaming estimate).",
                   metrics.latency)
    if metrics.queue_wait.count:
        _summary_block(out, "repro_request_queue_wait_seconds",
                       "Time from arrival to dispatch (P2 streaming estimate).",
                       metrics.queue_wait)
    if metrics.ttft.count:
        _summary_block(out, "repro_request_ttft_seconds",
                       "Time to first token (P2 streaming estimate).",
                       metrics.ttft)
    if metrics.tpot.count:
        _summary_block(out, "repro_request_tpot_seconds",
                       "Time per output token (P2 streaming estimate).",
                       metrics.tpot)

    window_ms = metrics.window_seconds * 1e3

    def stamp(bucket: int) -> int:
        return int((bucket + 1) * window_ms)

    names = sorted(metrics.replicas)
    if names:
        out.header("repro_replica_utilization", "gauge",
                   "Busy fraction of each replica per window.")
        for name in names:
            for bucket, busy in enumerate(metrics.replicas[name].busy):
                out.sample("repro_replica_utilization",
                           busy / metrics.window_seconds,
                           timestamp_ms=stamp(bucket), replica=name)
        out.header("repro_replica_queue_depth", "gauge",
                   "Peak queue depth of each replica per window.")
        for name in names:
            for bucket, depth in enumerate(metrics.replicas[name].queue_depth):
                out.sample("repro_replica_queue_depth", depth,
                           timestamp_ms=stamp(bucket), replica=name)
        out.header("repro_replica_mean_batch_size", "gauge",
                   "Mean dispatched batch size of each replica per window.")
        for name in names:
            series = metrics.replicas[name]
            for bucket, count in enumerate(series.batch_count):
                if count:
                    out.sample("repro_replica_mean_batch_size",
                               series.batch_sum[bucket] / count,
                               timestamp_ms=stamp(bucket), replica=name)
        if any(metrics.replicas[name].kv_capacity for name in names):
            out.header("repro_replica_kv_used_tokens", "gauge",
                       "Peak KV-cache tokens held per replica per window.")
            for name in names:
                series = metrics.replicas[name]
                if not series.kv_capacity:
                    continue
                for bucket, used in enumerate(series.kv_used):
                    out.sample("repro_replica_kv_used_tokens", used,
                               timestamp_ms=stamp(bucket), replica=name)
            out.header("repro_replica_kv_capacity_tokens", "gauge",
                       "KV-cache capacity per replica.")
            for name in names:
                if metrics.replicas[name].kv_capacity:
                    out.sample("repro_replica_kv_capacity_tokens",
                               metrics.replicas[name].kv_capacity, replica=name)
    return out.render()


def write_prometheus(metrics: MetricsCollector, path) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(prometheus_text(metrics))
