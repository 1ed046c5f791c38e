"""Pluggable batch-formation policies for the serving simulator.

Each replica owns a FIFO queue of waiting requests; its batching policy
decides, whenever the replica is idle, whether to dispatch now and with how
many requests.  Batches are always single-model (a batched ``RunSpec`` names
one workload), so policies gather requests matching the head-of-line model in
FIFO order, leaving other models queued.

Policies:

* :class:`FIFOPolicy` — no batching: one request per dispatch;
* :class:`SizeBatchPolicy` — size-triggered: wait until ``batch_size``
  same-model requests are queued, then dispatch them as one batch;
* :class:`TimeoutBatchPolicy` — timeout-based: dispatch when the oldest
  queued request has waited ``timeout`` seconds or ``max_batch`` same-model
  requests have accumulated, whichever comes first.

Every policy flushes partial batches once the simulator signals ``draining``
(no arrivals remain), so runs terminate with every request served.
"""

from __future__ import annotations

from collections import deque
from typing import Protocol, runtime_checkable

from repro.serve.traffic import Request, check_counts, check_finite

#: Policy names accepted by :func:`make_policy` and the CLI.
BATCH_POLICIES = ("fifo", "size", "timeout")


@runtime_checkable
class BatchPolicy(Protocol):
    """What the simulator asks of a batch-formation policy."""

    name: str

    def take(self, queue: deque[Request], now: float,
             draining: bool) -> list[Request] | None:
        """Remove and return the batch to dispatch now, or ``None`` to wait.

        Only called with a non-empty queue on an idle replica.
        """
        ...

    def deadline(self, queue: deque[Request]) -> float | None:
        """Next time ``take`` should be re-evaluated absent new arrivals."""
        ...

    def to_dict(self) -> dict[str, object]:
        """JSON-stable description echoed into the :class:`ServeReport`."""
        ...


def _take_head_model(queue: deque[Request], limit: int) -> list[Request]:
    """Remove up to ``limit`` requests matching the head-of-line model,
    preserving FIFO order; requests for other models stay queued.

    Popping stops once the batch is full; the other-model requests popped on
    the way go back in front, in their order."""

    model = queue[0].model
    batch, kept = [], []
    while queue and len(batch) < limit:
        request = queue.popleft()
        if request.model == model:
            batch.append(request)
        else:
            kept.append(request)
    queue.extendleft(reversed(kept))
    return batch


def _head_model_reaches(queue: deque[Request], count: int) -> bool:
    """Whether at least ``count`` queued requests match the head-of-line
    model; stops scanning as soon as they do."""

    if len(queue) < count:
        return False
    model, found = queue[0].model, 0
    for request in queue:
        if request.model == model:
            found += 1
            if found >= count:
                return True
    return False


class FIFOPolicy:
    """No batching: serve queued requests one at a time, strictly in order."""

    name = "fifo"

    def take(self, queue: deque[Request], now: float,
             draining: bool) -> list[Request] | None:
        return [queue.popleft()]

    def deadline(self, queue: deque[Request]) -> float | None:
        return None

    def to_dict(self) -> dict[str, object]:
        return {"name": self.name}


class SizeBatchPolicy:
    """Size-triggered dynamic batching: dispatch once ``batch_size``
    same-model requests are queued (partial batches flush on drain).

    Strict size triggers are deliberately unforgiving: below saturation a
    partially-filled queue waits indefinitely for stragglers, so tail latency
    explodes while throughput looks fine — the failure mode
    :class:`TimeoutBatchPolicy` exists to bound.
    """

    name = "size"

    def __init__(self, batch_size: int = 8):
        check_counts(batch_size=batch_size)
        self.batch_size = batch_size

    def take(self, queue: deque[Request], now: float,
             draining: bool) -> list[Request] | None:
        if draining or _head_model_reaches(queue, self.batch_size):
            return _take_head_model(queue, self.batch_size)
        return None

    def deadline(self, queue: deque[Request]) -> float | None:
        return None

    def to_dict(self) -> dict[str, object]:
        return {"name": self.name, "batch_size": self.batch_size}


class TimeoutBatchPolicy:
    """Timeout-based batching: dispatch whatever has accumulated once the
    oldest queued request has waited ``timeout`` seconds, or earlier if
    ``max_batch`` same-model requests are already available."""

    name = "timeout"

    def __init__(self, timeout: float = 2e-3, max_batch: int = 8):
        check_finite(timeout=timeout, allow_zero=True)
        check_counts(max_batch=max_batch)
        self.timeout = timeout
        self.max_batch = max_batch

    def take(self, queue: deque[Request], now: float,
             draining: bool) -> list[Request] | None:
        if (draining or now >= queue[0].arrival + self.timeout
                or _head_model_reaches(queue, self.max_batch)):
            return _take_head_model(queue, self.max_batch)
        return None

    def deadline(self, queue: deque[Request]) -> float | None:
        return queue[0].arrival + self.timeout

    def to_dict(self) -> dict[str, object]:
        return {"name": self.name, "timeout": self.timeout, "max_batch": self.max_batch}


def make_policy(name: str, *, batch_size: int = 8,
                timeout: float = 2e-3) -> BatchPolicy:
    """Build a batching policy by name (the CLI entry point).

    ``batch_size`` and ``timeout`` are checked under every name, ``fifo``
    included, which uses neither: callers echo them into their payloads,
    where a nan is not valid JSON.
    """

    check_counts(batch_size=batch_size)
    check_finite(timeout=timeout, allow_zero=True)
    if name == "fifo":
        return FIFOPolicy()
    if name == "size":
        return SizeBatchPolicy(batch_size=batch_size)
    if name == "timeout":
        return TimeoutBatchPolicy(timeout=timeout, max_batch=batch_size)
    raise ValueError(f"unknown batching policy {name!r}; "
                     f"available: {', '.join(BATCH_POLICIES)}")
