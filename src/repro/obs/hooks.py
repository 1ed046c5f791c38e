"""The observer the simulators call: one object, many optional sinks.

:class:`Observability` bundles an optional :class:`TraceRecorder`, an
optional :class:`MetricsCollector` and an optional :class:`Progress` and
translates simulator lifecycle hooks into trace spans, streaming samples
and progress ticks.  The simulators (`serve`, `serve_llm`, the autoscaler)
accept ``obs=None`` and guard every hook with ``if obs is not None`` — the
disabled path stays the exact pre-observability code — and the hooks
themselves never mutate simulator state, so an instrumented run produces a
bit-identical :class:`ServeReport`.

Span accounting contract (the tests pin it): each request's phase spans
partition ``[arrival, completion]`` — ``queue`` + ``service`` for classic
requests, ``queue`` + ``prefill`` (+ ``handoff`` + ``decode-wait`` +
``decode``) for LLM requests, and per-stage ``queue`` + ``service``
(+ ``handoff`` between stages) chains for pipeline requests — so their
durations sum to the report's latency for that request, exactly in float.
"""

from __future__ import annotations

from .progress import Progress
from .streaming import MetricsCollector
from .trace import (
    PHASE_COLORS,
    PHASE_DECODE,
    PHASE_DECODE_WAIT,
    PHASE_HANDOFF,
    PHASE_PREFILL,
    PHASE_QUEUE,
    PHASE_SERVICE,
    PID_FLEET,
    PID_REQUESTS,
    TID_AUTOSCALER,
    TraceRecorder,
)


class Observability:
    """Observer threaded through a serving run (all sinks optional)."""

    def __init__(self, trace: TraceRecorder | None = None,
                 metrics: MetricsCollector | None = None,
                 progress: Progress | None = None):
        self.trace = trace
        self.metrics = metrics
        self.progress = progress
        self._passive = trace is None and metrics is None
        # Per-run request state for wait/decode span boundaries.
        self._wait_start: dict[int, float] = {}
        self._decode_start: dict[int, float] = {}
        self._tracked: set[int] = set()

    # ---------------------------------------------------------- run lifecycle

    def begin_run(self, replicas, label: str) -> None:
        self._wait_start.clear()
        self._decode_start.clear()
        self._tracked.clear()
        if self.trace is not None:
            self.trace.process(PID_FLEET, "fleet")
            self.trace.process(PID_REQUESTS, "requests")
            self.trace.thread(PID_FLEET, TID_AUTOSCALER, "autoscaler")
            for replica in replicas:
                self._track(replica)
        if self.progress is not None:
            self.progress.begin(label)

    def end_run(self, report) -> None:
        if self.metrics is not None:
            self.metrics.finalize(report)
        if self.progress is not None:
            self.progress.finish()

    def event_tick(self, now: float) -> None:
        if self.progress is not None:
            self.progress.tick(now)

    # ------------------------------------------------------------- internals

    def _track(self, replica) -> None:
        if replica.index not in self._tracked:
            self._tracked.add(replica.index)
            self.trace.thread(PID_FLEET, replica.index + 1, replica.name)

    def _request_span(self, phase: str, index: int, model: str,
                      replica_name: str, start: float, end: float,
                      stage: str | None = None) -> None:
        if end <= start:
            return                       # zero-width phases add nothing
        args: dict[str, object] = {"phase": phase, "request": index,
                                   "model": model, "replica": replica_name}
        if stage is not None:
            args["stage"] = stage
        self.trace.span(phase, start=start, end=end, pid=PID_REQUESTS,
                        tid=index, cat="request",
                        color=PHASE_COLORS[phase], args=args)

    def _queue_counter(self, replica, now: float, depth: int) -> None:
        if self.trace is not None:
            self.trace.counter(f"queue {replica.name}", ts=now, pid=PID_FLEET,
                               values={"depth": depth})
        if self.metrics is not None:
            self.metrics.on_queue_depth(replica.name, now, depth)

    def _kv_counter(self, replica, now: float) -> None:
        if self.trace is not None:
            self.trace.counter(f"kv {replica.name}", ts=now, pid=PID_FLEET,
                               values={"used": replica.kv_used})
        if self.metrics is not None:
            self.metrics.on_kv(replica.name, now, replica.kv_used,
                               replica.kv_capacity)

    # ------------------------------------------------------- classic serving

    def request_routed(self, request, replica, now: float, depth: int,
                       entry: bool = True) -> None:
        """A request landed on a replica's queue (classic, prefill or one
        pipeline stage); ``entry`` is False for a pipeline hop past the entry
        stage, which is not counted as another arrival."""

        if self._passive:
            return
        if self.metrics is not None and entry:
            self.metrics.on_arrival(now)
        self._queue_counter(replica, now, depth)

    def batch_dispatched(self, replica, batch, now: float, finish: float,
                         stage: str | None = None) -> None:
        """One batch ran as one monolithic job.  A classic batch completes
        its requests; a pipeline ``stage`` batch is one hop, whose requests
        complete through :meth:`pipeline_completed` when they exit.  Stage
        batches tag their dispatch and per-request spans with the stage, so
        per-request tracks partition arrival→completion."""

        if self._passive:
            return
        if self.trace is not None:
            self._track(replica)
            model = batch[0].model
            args = {"replica": replica.name, "model": model,
                    "batch_size": len(batch)}
            if stage is not None:
                args["stage"] = stage
            self.trace.span(f"{model} x{len(batch)}", start=now, end=finish,
                            pid=PID_FLEET, tid=replica.index + 1, cat="dispatch",
                            args=args)
            for request in batch:
                self._request_span(PHASE_QUEUE, request.index, request.model,
                                   replica.name, request.arrival, now,
                                   stage=stage)
                self._request_span(PHASE_SERVICE, request.index, request.model,
                                   replica.name, now, finish, stage=stage)
        if self.metrics is not None:
            self.metrics.on_dispatch(replica.name, now, finish, len(batch),
                                     requests=len(batch))
            if stage is None:
                for request in batch:
                    self.metrics.on_completion(finish, finish - request.arrival,
                                               queue_wait=now - request.arrival)
        self._queue_counter(replica, now, len(replica.queue))

    def replica_retired(self, replica, now: float) -> None:
        """A drained replica went idle with an empty queue."""

        if self.trace is not None:
            self._track(replica)
            self.trace.instant("retired", ts=now, pid=PID_FLEET,
                               tid=TID_AUTOSCALER, cat="autoscaler",
                               args={"replica": replica.name})

    def scale_event(self, event) -> None:
        """The autoscaler recorded a :class:`ScaleEvent` (not ``retired`` —
        those surface through :meth:`replica_retired` at drain time)."""

        if self.trace is not None:
            self.trace.instant(event.action, ts=event.time, pid=PID_FLEET,
                               tid=TID_AUTOSCALER, cat="autoscaler",
                               args={"replica": event.replica,
                                     "detail": event.detail})

    # ------------------------------------------------------ pipeline serving

    def stage_handoff(self, index: int, model: str, replica_name: str,
                      now: float, arrival: float, stage: str) -> None:
        """The request is in flight from ``stage`` to its successor."""

        if self._passive:
            return
        if self.trace is not None:
            self._request_span(PHASE_HANDOFF, index, model, replica_name,
                               now, arrival, stage=stage)

    def pipeline_completed(self, index: int, model: str, arrival: float,
                           queue_wait: float, completion: float) -> None:
        """The request exited the pipeline; one end-to-end completion."""

        if self._passive:
            return
        if self.metrics is not None:
            self.metrics.on_completion(completion, completion - arrival,
                                       queue_wait=queue_wait)

    # ----------------------------------------------------------- LLM serving

    def prefill_admitted(self, request, replica, now: float) -> None:
        """KV reserved and prefill started: the queue phase ends here."""

        if self._passive:
            return
        if self.trace is not None:
            self._track(replica)
            self._request_span(PHASE_QUEUE, request.index, request.model,
                               replica.name, request.arrival, now)
        if self.metrics is not None:
            self.metrics.on_queue_depth(replica.name, now,
                                        len(replica.prefill_queue))
        self._kv_counter(replica, now)

    def prefill_chunk(self, replica, request, start: float, end: float,
                      chunk: int) -> None:
        if self._passive:
            return
        if self.trace is not None:
            self._track(replica)
            self.trace.span(f"prefill {request.model}", start=start, end=end,
                            pid=PID_FLEET, tid=replica.index + 1, cat="prefill",
                            args={"replica": replica.name, "request": request.index,
                                  "tokens": chunk})
        if self.metrics is not None:
            self.metrics.on_dispatch(replica.name, start, end, 1)

    def prefill_finished(self, request, replica, now: float) -> None:
        """First token out: the prefill phase spans admission to here."""

        if self.trace is not None and request.prefill_start is not None:
            self._request_span(PHASE_PREFILL, request.index, request.model,
                               replica.name, request.prefill_start, now)

    def decode_pending(self, request, now: float) -> None:
        """Colocated: prefill done, awaiting a decode-batch slot."""

        if not self._passive:
            self._wait_start[request.index] = now

    def handoff(self, request, replica, now: float, arrival: float) -> None:
        """Disaggregated: KV in flight from ``replica`` to the decode pool."""

        if self._passive:
            return
        if self.trace is not None:
            self._request_span(PHASE_HANDOFF, request.index, request.model,
                               replica.name, now, arrival)
        self._wait_start[request.index] = arrival
        self._kv_counter(replica, now)       # prefill-side KV released

    def decode_admitted(self, request, replica, now: float) -> None:
        """Disaggregated: decode-pool KV reserved for this request."""

        if not self._passive:
            self._kv_counter(replica, now)

    def decode_joined(self, request, replica, now: float) -> None:
        """The request entered a running decode batch."""

        if self._passive:
            return
        if self.trace is not None:
            self._track(replica)
            start = self._wait_start.pop(request.index, None)
            if start is not None:
                self._request_span(PHASE_DECODE_WAIT, request.index,
                                   request.model, replica.name, start, now)
        else:
            self._wait_start.pop(request.index, None)
        self._decode_start[request.index] = now

    def decode_step(self, replica, batch, start: float, end: float) -> None:
        """One decode iteration over the current batch (or gang)."""

        if self._passive:
            return
        if self.trace is not None:
            self._track(replica)
            self.trace.span(f"decode x{len(batch)}", start=start, end=end,
                            pid=PID_FLEET, tid=replica.index + 1, cat="decode",
                            args={"replica": replica.name,
                                  "model": batch[0].model,
                                  "batch_size": len(batch)})
        if self.metrics is not None:
            self.metrics.on_dispatch(replica.name, start, end, len(batch))

    def request_completed(self, request, replica, now: float,
                          batch_size: int) -> None:
        """Last token out (LLM path); KV already released by the caller."""

        if self._passive:
            return
        if self.trace is not None:
            start = self._decode_start.pop(request.index,
                                           request.first_token_time)
            if start is not None:
                self._request_span(PHASE_DECODE, request.index, request.model,
                                   replica.name, start, now)
        else:
            self._decode_start.pop(request.index, None)
        self._wait_start.pop(request.index, None)
        self._kv_counter(replica, now)
        if self.metrics is not None:
            first = request.first_token_time
            self.metrics.on_completion(
                now, now - request.arrival,
                queue_wait=(request.prefill_start - request.arrival
                            if request.prefill_start is not None else None))
            if first is not None:
                self.metrics.on_ttft(first - request.arrival)
                if request.decode_target:
                    self.metrics.on_tpot((now - first) / request.decode_target)
