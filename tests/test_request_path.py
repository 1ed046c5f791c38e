"""The classic kernel's per-request path, held to reference implementations.

``serve`` and ``serve_pipeline`` route, batch and dispatch every request
through a few short functions, each cut to do its work once.  These tests pin
that the cuts change nothing observable:

- the batch policies take the same batch, leave the same queue order and make
  the same take-or-wait decision as the full-queue pop and count they
  replaced, kept here verbatim as the oracle;
- :meth:`LoadIndex.argmin` picks what the linear reference scan picks,
  exact backlog ties included;
- a dispatch reuses one engine spec per (model, replica kind, batch size)
  while still making one ``simulate`` call, and so one cache lookup, per
  batch, plus one per routing estimate.
"""

from __future__ import annotations

from collections import deque

from hypothesis import example, given, settings, strategies as st

from repro.engine import ResultCache, simulate
from repro.serve import (
    PoissonTraffic,
    Request,
    SizeBatchPolicy,
    TimeoutBatchPolicy,
    WorkloadMix,
    serve,
    serve_pipeline,
)
from repro.serve.cluster import LoadIndex, Replica, ReplicaSpec

MODELS = ("deit-tiny", "levit-128", "deit-small")


# --------------------------------------------------- batch policies vs oracle


def _oracle_take_head_model(queue: deque[Request], limit: int) -> list[Request]:
    """Remove up to ``limit`` requests matching the head-of-line model,
    preserving FIFO order; requests for other models stay queued."""

    model = queue[0].model
    batch, kept = [], []
    while queue:
        request = queue.popleft()
        if request.model == model and len(batch) < limit:
            batch.append(request)
        else:
            kept.append(request)
    queue.extend(kept)
    return batch


def _oracle_count_head_model(queue: deque[Request]) -> int:
    model = queue[0].model
    return sum(1 for request in queue if request.model == model)


def _oracle_take(trigger: str, limit: int, timeout: float, queue, now,
                 draining):
    """The size and timeout policies' ``take`` over the oracle helpers."""

    if trigger == "size":
        fire = draining or _oracle_count_head_model(queue) >= limit
    else:
        fire = (draining or now >= queue[0].arrival + timeout
                or _oracle_count_head_model(queue) >= limit)
    return _oracle_take_head_model(queue, limit) if fire else None


@st.composite
def queues(draw):
    """1-40 requests drawn from 1-3 models, arriving 1 ms apart.

    ``take`` is only called on a non-empty queue (the policy protocol)."""

    models = MODELS[:draw(st.integers(1, 3))]
    picks = draw(st.lists(st.sampled_from(models), min_size=1, max_size=40))
    return [Request(index=i, model=model, arrival=i * 1e-3)
            for i, model in enumerate(picks)]


@settings(max_examples=400, deadline=None)
@given(requests=queues(), limit=st.integers(1, 10),
       trigger=st.sampled_from(["size", "timeout"]), draining=st.booleans(),
       now=st.sampled_from([0.0, 5e-3, 0.05]))
@example(requests=[Request(0, "levit-128", 0.0)]
         + [Request(i, "deit-tiny", 0.0) for i in range(1, 9)]
         + [Request(9, "levit-128", 0.0)],
         limit=8, trigger="size", draining=False, now=0.0)
def test_policies_take_what_the_full_scan_took(requests, limit, trigger,
                                               draining, now):
    timeout = 2e-3
    policy = (SizeBatchPolicy(batch_size=limit) if trigger == "size"
              else TimeoutBatchPolicy(timeout=timeout, max_batch=limit))
    queue, expected_queue = deque(requests), deque(requests)
    batch = policy.take(queue, now, draining=draining)
    expected = _oracle_take(trigger, limit, timeout, expected_queue, now,
                            draining)
    assert batch == expected
    assert list(queue) == list(expected_queue)


# ------------------------------------------------ LoadIndex vs reference scan

#: Eighths: every backlog sum and difference below is exact, so exact ties
#: between idle and busy replicas occur and compare equal.
EIGHTHS = st.integers(0, 16).map(lambda k: k / 8)


@st.composite
def index_states(draw):
    """``(replicas, now, updates, removed)``: each update is ``(replica,
    at, busy, remaining, queued)``, applied in order, so earlier updates of
    a replica leave stale heap entries behind."""

    count = draw(st.integers(1, 6))
    update = st.tuples(st.integers(0, count - 1), EIGHTHS, st.booleans(),
                       EIGHTHS, EIGHTHS)
    return (count, draw(EIGHTHS), draw(st.lists(update, max_size=24)),
            draw(st.sets(st.integers(0, count - 1))))


@settings(max_examples=400, deadline=None)
@given(state=index_states())
@example(state=(2, 1.0, [(0, 1.0, True, 0.5, 0.0), (1, 1.0, False, 0.0, 0.5)],
                set()))
@example(state=(2, 1.0, [(0, 1.0, False, 0.0, 0.5), (1, 1.0, True, 0.5, 0.0)],
                set()))
def test_argmin_matches_the_reference_scan(state):
    count, now, updates, removed = state
    replicas = [Replica(i, i, ReplicaSpec("vitality")) for i in range(count)]
    index = LoadIndex(replicas)
    for which, at, busy, remaining, queued in updates:
        # An update at ``at`` <= now.  A replica busy at ``at`` stays busy
        # through ``now``: the kernel's "free" event re-indexes it otherwise.
        at = min(at, now)
        replica = replicas[which]
        replica.busy_until = now + remaining if busy else at - remaining
        replica.queued_seconds = queued
        index.update(replica, at)
    for which in removed:
        index.remove(replicas[which])
    members = [replica for replica in replicas if replica.index not in removed]
    chosen = index.argmin(now)
    if not members:
        assert chosen is None
    else:
        assert chosen is min(members,
                             key=lambda r: (r.backlog_seconds(now), r.index))


# ------------------------------------------------------- one spec per shape


def test_each_dispatch_shape_builds_one_spec(monkeypatch):
    """Every batch and every routing estimate makes its own engine call
    and cache lookup, but equal shapes share one spec object."""

    import repro.serve.simulator as simulator

    passed = []

    def recording(spec, **kwargs):
        passed.append(spec)
        return simulate(spec, **kwargs)

    monkeypatch.setattr(simulator, "simulate", recording)
    mix = WorkloadMix.of(["deit-tiny", "levit-128"])
    runs = [
        lambda cache: serve(PoissonTraffic(rate=300.0, mix=mix),
                            "2xvitality,1xgpu:taylor", duration=1.0, seed=3,
                            cache=cache),
        lambda cache: serve_pipeline(
            PoissonTraffic(rate=60.0, mix=mix),
            "rag = encoder[tokens=128] -> deit-tiny",
            {"encoder": "2xvitality", "deit-tiny": "1xvitality,1xgpu:taylor"},
            duration=1.0, seed=3, cache=cache),
    ]
    for run in runs:
        passed.clear()
        cache = ResultCache()
        report = run(cache)
        stats = cache.stats()
        assert len({id(spec) for spec in passed}) == len(set(passed)) \
            == stats.misses > 2
        batches = sum(replica.batches for replica in report.per_replica)
        kinds = {(spec.model, spec.target, spec.attention) for spec in passed}
        assert len(kinds) > 2
        assert len(passed) == stats.hits + stats.misses \
            == batches + len(kinds)
