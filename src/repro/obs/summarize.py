"""Critical-path analysis of a recorded Chrome trace.

``repro trace summarize trace.json`` loads a trace written by
:func:`repro.obs.export.write_chrome_trace` and answers "where did request
time go": total seconds and share per lifecycle phase (queue vs prefill vs
decode vs handoff), broken down per model and per replica kind.  It works
from the trace file alone — no simulator state — so it applies equally to
a trace produced five PRs from now, as long as the span schema holds.
"""

from __future__ import annotations

import json

from repro.fold import left_sum
from repro.knobs import is_number

from .trace import PHASES, PID_FLEET, PID_REQUESTS


def load_trace(path) -> dict[str, object]:
    """Load a trace file, checking every field :func:`summarize_trace` reads."""

    with open(path, "r", encoding="utf-8") as handle:
        trace = json.load(handle)
    if not isinstance(trace, dict) or "traceEvents" not in trace:
        raise ValueError(f"{path}: not a Chrome trace (no traceEvents key)")
    events = trace["traceEvents"]
    if not (isinstance(events, list)
            and all(isinstance(event, dict) for event in events)):
        raise ValueError(f"{path}: traceEvents must be a list of objects")
    for event in events:
        if event.get("ph") == "X" and not (
                is_number(event.get("dur"))
                and isinstance(event.get("args", {}), dict)
                and (event.get("pid") != PID_REQUESTS or "tid" in event)):
            raise ValueError(f"{path}: span {event!r} needs a numeric dur, "
                             f"an args object and, on the request track, "
                             f"a tid")
    return trace


def _replica_kind(name: str) -> str:
    """``vitality#2`` -> ``vitality`` (fleet ordinals share one spec)."""

    return name.rsplit("#", 1)[0]


def summarize_trace(trace: dict[str, object]) -> dict[str, object]:
    """Fold a loaded trace into the critical-path payload.

    Returns plain JSON-ready data: run totals, per-phase seconds/share,
    and per-model / per-replica-kind phase breakdowns.
    """

    phase_seconds = {phase: 0.0 for phase in PHASES}
    phase_spans = {phase: 0 for phase in PHASES}
    per_model: dict[str, dict[str, float]] = {}
    per_kind: dict[str, dict[str, float]] = {}
    per_stage: dict[str, dict[str, float]] = {}
    requests: set[int] = set()
    fleet_busy: dict[str, float] = {}

    for event in trace["traceEvents"]:
        if event.get("ph") != "X":
            continue
        seconds = float(event.get("dur", 0.0)) / 1e6
        pid = event.get("pid")
        if pid == PID_REQUESTS:
            args = event.get("args", {})
            phase = args.get("phase")
            if phase not in phase_seconds:
                continue
            requests.add(event["tid"])
            phase_seconds[phase] += seconds
            phase_spans[phase] += 1
            model = args.get("model", "?")
            per_model.setdefault(model, dict.fromkeys(PHASES, 0.0))
            per_model[model][phase] += seconds
            kind = _replica_kind(str(args.get("replica", "?")))
            per_kind.setdefault(kind, dict.fromkeys(PHASES, 0.0))
            per_kind[kind][phase] += seconds
            stage = args.get("stage")
            if stage is not None:
                per_stage.setdefault(str(stage), dict.fromkeys(PHASES, 0.0))
                per_stage[str(stage)][phase] += seconds
        elif pid == PID_FLEET and event.get("cat") != "autoscaler":
            args = event.get("args", {})
            name = str(args.get("replica", ""))
            if name:
                kind = _replica_kind(name)
                fleet_busy[kind] = fleet_busy.get(kind, 0.0) + seconds

    total = left_sum(phase_seconds.values())

    def rows(by_phase: dict[str, float]) -> dict[str, object]:
        subtotal = left_sum(by_phase.values())
        return {
            "total_seconds": subtotal,
            "phases": {phase: {"seconds": by_phase[phase],
                               "share": (by_phase[phase] / subtotal
                                         if subtotal else 0.0)}
                       for phase in PHASES if by_phase[phase] > 0.0}}

    present = [phase for phase in PHASES if phase_spans[phase]]
    payload: dict[str, object] = {
        "requests": len(requests),
        "total_request_seconds": total,
        "phases": [
            {"phase": phase,
             "seconds": phase_seconds[phase],
             "share": phase_seconds[phase] / total if total else 0.0,
             "spans": phase_spans[phase],
             "mean_ms": (phase_seconds[phase] / phase_spans[phase] * 1e3
                         if phase_spans[phase] else 0.0)}
            for phase in present],
        "per_model": {model: rows(by_phase)
                      for model, by_phase in sorted(per_model.items())},
        "per_replica_kind": {kind: rows(by_phase)
                             for kind, by_phase in sorted(per_kind.items())},
        "fleet_busy_seconds": {kind: fleet_busy[kind]
                               for kind in sorted(fleet_busy)},
    }
    if per_stage:                  # only pipeline traces carry stage-tagged spans
        payload["per_stage"] = {stage: rows(by_phase)
                                for stage, by_phase in sorted(per_stage.items())}
    return payload


def format_summary(payload: dict[str, object]) -> str:
    """Human-readable rendering of :func:`summarize_trace` output."""

    lines = [f"requests traced: {payload['requests']}",
             f"total request-seconds: {payload['total_request_seconds']:.3f}",
             "", "critical path:"]
    for row in payload["phases"]:
        lines.append(f"  {row['phase']:<12} {row['seconds']:>10.3f}s  "
                     f"{row['share']:>6.1%}  "
                     f"(mean {row['mean_ms']:.2f} ms over {row['spans']} spans)")

    def section(title: str, table: dict[str, dict[str, object]]) -> None:
        if not table:
            return
        lines.extend(["", f"{title}:"])
        for key, entry in table.items():
            shares = "  ".join(
                f"{phase} {cell['share']:.1%}"
                for phase, cell in entry["phases"].items())
            lines.append(f"  {key:<24} {entry['total_seconds']:>10.3f}s  {shares}")

    section("per model", payload["per_model"])
    section("per replica kind", payload["per_replica_kind"])
    section("per stage", payload.get("per_stage", {}))
    if payload["fleet_busy_seconds"]:
        lines.extend(["", "fleet busy-seconds by replica kind:"])
        for kind, seconds in payload["fleet_busy_seconds"].items():
            lines.append(f"  {kind:<24} {seconds:>10.3f}s")
    return "\n".join(lines)
