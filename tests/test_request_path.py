"""The classic kernel's per-request path, held to reference implementations.

``serve``, ``serve_pipeline`` and ``serve_llm`` run every request through
one event loop and a few short functions, each cut to do its work once.
These tests pin that the cuts change nothing observable:

- the event loop, which keeps the one pending arrival beside its heap,
  gives byte-identical reports, traces and observer ticks to the heap-only
  loop it replaced, kept here verbatim as the oracle;
- :class:`Request` is a named tuple with the dataclass's fields, defaults,
  ``to_dict`` and immutability, and the arrivals built straight from
  ``tuple.__new__`` equal keyword-built ones; multi-model arrivals equal
  the keyword-built loop they replaced, kept here verbatim as the oracle;
- :meth:`WorkloadMix.sample` draws what the per-draw linear scan drew;
- the batch policies take the same batch, leave the same queue order and make
  the same take-or-wait decision as the full-queue pop and count they
  replaced, kept here verbatim as the oracle;
- :meth:`LoadIndex.argmin` picks what the linear reference scan picks,
  exact backlog ties included;
- a run resolves each (model, replica kind, batch size) shape once and
  then makes one cache lookup per batch, plus one per routing estimate; the
  planner's service-time lookups reuse one engine spec per shape and make
  one ``simulate`` call per lookup.
"""

from __future__ import annotations

import heapq
import json
import logging
import random
from collections import deque
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.engine import ResultCache, simulate
from repro.obs import Observability, TraceRecorder, chrome_trace_json
from repro.plan import (
    Autoscaler,
    ScheduledScalePolicy,
    ServiceTimes,
    estimate_fleet,
)
from repro.serve import (
    BurstyTraffic,
    DiurnalTraffic,
    PipelineSpec,
    PoissonTraffic,
    ReplayTraffic,
    Request,
    SizeBatchPolicy,
    TimeoutBatchPolicy,
    TokenProfile,
    WorkloadMix,
    make_policy,
    serve,
    serve_llm,
    serve_pipeline,
)
from repro.serve.cluster import LoadIndex, Replica, ReplicaSpec
from repro.serve.simulator import _Kernel
from repro.serve.traffic import _lazy_requests, iter_arrivals as _iter_arrivals

MODELS = ("deit-tiny", "levit-128", "deit-small")


# --------------------------------------------------- event loop vs heap-only

logger = logging.getLogger("repro.serve.simulator")


def _heap_only_run(self, replicas, arrive, handlers, arrivals=None) -> None:
    """``_Kernel.run`` as it was while every arrival went through the heap,
    sequenced by its request index."""

    events, obs, duration = self.events, self.obs, self.duration
    heappop, heappush = heapq.heappop, heapq.heappush
    if obs is not None:
        obs.begin_run(replicas, self.label)
    logger.info("%s: streaming arrivals over %.3fs to %d replica(s) "
                "(summary=%s)", self.label, duration, len(replicas),
                self.accumulator.summary)
    # Arrival events are sequenced by request index, runtime events from
    # RUNTIME_SEQUENCE_BASE up: the merged order (ties included) matches
    # the historical loop that pushed every arrival before any runtime
    # event.
    stream = (_iter_arrivals(self.traffic, duration, self.seed)
              if arrivals is None else iter(arrivals))
    first = next(stream, None)
    if first is not None:
        heappush(events, (first.arrival, first.index, "arrival", first))
    offered = 0
    tick = obs.event_tick if obs is not None else None
    while events:
        now, _, kind, payload = heappop(events)
        if tick is not None:
            tick(now)
        if kind == "arrival":
            offered += 1
            upcoming = next(stream, None)
            if upcoming is not None:
                heappush(events, (upcoming.arrival, upcoming.index,
                                  "arrival", upcoming))
            arrive(payload, now, upcoming is None)
        else:
            handlers[kind](payload, now)
    self.offered = offered


class _Ticking(Observability):
    """A tracing observer that also records every ``event_tick``."""

    def __init__(self):
        super().__init__(trace=TraceRecorder())
        self.ticks: list[float] = []

    def event_tick(self, now: float) -> None:
        self.ticks.append(now)
        super().event_tick(now)


#: A dyadic step: replay times, batch timeouts and autoscaler intervals on
#: its grid add up exactly, so arrivals tie with poll and scale events.
STEP = 2.0 ** -9


@st.composite
def scenarios(draw):
    """One serving run as a dict of arguments for :func:`_run`."""

    shape = draw(st.sampled_from(["classic", "pipeline", "llm"]))
    model = "decoder" if shape == "llm" else "deit-tiny"
    models = [model] if shape == "llm" else draw(st.sampled_from(
        [["deit-tiny"], ["deit-tiny", "levit-128"]]))
    pattern = draw(st.sampled_from(["poisson", "bursty", "replay"]))
    if pattern == "replay":
        steps = draw(st.lists(st.integers(0, 255), min_size=8, max_size=160))
        traffic = ("replay", [(step * STEP, draw(st.sampled_from(models)))
                              for step in steps])
    else:
        rate = draw(st.sampled_from([40.0, 400.0] if shape == "llm"
                                    else [150.0, 900.0]))
        traffic = (pattern, rate, models)
    scenario = {"shape": shape, "traffic": traffic,
                "seed": draw(st.integers(0, 2 ** 16)),
                "summary": draw(st.sampled_from(["exact", "streaming"]))}
    if shape == "llm":
        scenario["scheduler"] = draw(st.sampled_from(
            ["continuous", "monolithic", "disaggregated"]))
        scenario["output_tokens"] = draw(st.integers(2, 6))
        return scenario
    scenario["policy"] = (draw(st.sampled_from(["fifo", "size", "timeout"])),
                          draw(st.integers(1, 8)),
                          draw(st.sampled_from([STEP, 4 * STEP, 2e-3])))
    scenario["router"] = draw(st.sampled_from(["least-loaded",
                                               "energy-aware"]))
    scenario["autoscaler"] = draw(st.sampled_from(
        [None, "utilization", "queue-depth", "scheduled"]))
    scenario["pipeline"] = (draw(st.sampled_from(["chain", "cascade"]))
                            if shape == "pipeline" else None)
    return scenario


def _autoscaler(name: str) -> Autoscaler:
    policy = (ScheduledScalePolicy([(0.0625, 3), (0.25, 1)])
              if name == "scheduled" else name)
    return Autoscaler(policy, "vitality", max_replicas=4, interval=64 * STEP,
                      provision_seconds=16 * STEP)


def _run(scenario: dict, obs) -> str:
    """Serve ``scenario`` under ``obs``; the report's JSON."""

    traffic = scenario["traffic"]
    if traffic[0] == "replay":
        pattern = ReplayTraffic(tuple(traffic[1]))
    else:
        kind, rate, models = traffic
        mix = WorkloadMix.of(models)
        pattern = (PoissonTraffic(rate, mix) if kind == "poisson"
                   else BurstyTraffic(rate, mix, mean_quiet=0.125,
                                      mean_burst=0.0625))
    common = dict(duration=0.5, seed=scenario["seed"],
                  summary=scenario["summary"], obs=obs)
    if scenario["shape"] == "llm":
        scheduler = scenario["scheduler"]
        fleets = ({"prefill_fleet": "1xvitality", "decode_fleet": "1xvitality"}
                  if scheduler == "disaggregated"
                  else {"fleet": "2xvitality", "scheduler": scheduler})
        return serve_llm(pattern, prompt_tokens=32,
                         output_tokens=scenario["output_tokens"], **fleets,
                         **common).to_json()
    name, batch_size, timeout = scenario["policy"]
    policy = make_policy(name, batch_size=batch_size, timeout=timeout)
    router, scaler = scenario["router"], scenario["autoscaler"]
    if scenario["shape"] == "classic":
        return serve(pattern, "1xvitality,1xgpu:taylor", policy, router,
                     autoscaler=None if scaler is None else _autoscaler(scaler),
                     **common).to_json()
    if scenario["pipeline"] == "chain":
        spec = PipelineSpec.parse("rag = encoder[tokens=64] -> deit-tiny")
        pools = {"encoder": "2xvitality", "deit-tiny": "1xvitality"}
    else:
        spec = PipelineSpec.cascade("cascade", "deit-tiny", "levit-128", 0.5)
        pools = {"draft": "1xvitality", "verify": "1xvitality,1xgpu:taylor"}
    return serve_pipeline(
        pattern, spec, pools, policy, router,
        autoscalers=None if scaler is None else {
            spec.entry: _autoscaler(scaler)}, **common).to_json()


def _observed(scenario: dict) -> tuple[str, str, list[float]]:
    obs = _Ticking()
    report = _run(scenario, obs)
    return report, chrome_trace_json(obs.trace), obs.ticks


#: Replay arrivals on the timeout grid: polls land exactly on later arrivals.
TIED = {"shape": "classic", "seed": 0, "summary": "exact",
        "traffic": ("replay", [(step * STEP, "deit-tiny")
                               for step in (0, 0, 1, 1, 2, 4, 4, 5, 9, 64,
                                            65, 65, 128, 129)]),
        "policy": ("timeout", 8, STEP), "router": "least-loaded",
        "autoscaler": "scheduled", "pipeline": None}


@settings(max_examples=80, deadline=None)
@given(scenario=scenarios())
@example(scenario=TIED)
@example(scenario=dict(TIED, shape="pipeline", pipeline="chain"))
@example(scenario=dict(TIED, policy=("size", 3, STEP), router="energy-aware",
                       summary="streaming"))
def test_kernel_matches_the_heap_only_loop(scenario):
    """Report JSON, trace bytes and observer ticks equal the oracle's."""

    report, trace, ticks = _observed(scenario)
    with mock.patch.object(_Kernel, "run", _heap_only_run):
        expected_report, expected_trace, expected_ticks = _observed(scenario)
    assert report == expected_report
    assert trace == expected_trace
    assert ticks == expected_ticks


def test_the_tied_scenario_ties_arrivals_with_runtime_events():
    """The pinned example above exercises the tie rule: some arrival
    shares its time with a runtime event (polls and scale checks)."""

    report, _, ticks = _observed(TIED)
    trace = TIED["traffic"][1]
    runtime_ticks = list(ticks)
    for time, _ in trace:
        runtime_ticks.remove(time)
    assert {time for time, _ in trace} & set(runtime_ticks)
    assert json.loads(report)["completed"] == len(trace)


# ------------------------------------------------------------ Request tuple


def test_request_is_an_immutable_named_tuple():
    keyword = Request(index=3, model="deit-tiny", arrival=0.25)
    positional = Request(3, "deit-tiny", 0.25)
    assert keyword == positional == (3, "deit-tiny", 0.25, None, None)
    assert Request._fields == ("index", "model", "arrival", "prompt_tokens",
                               "output_tokens")
    assert keyword.prompt_tokens is None and keyword.output_tokens is None
    assert keyword.to_dict() == {"index": 3, "model": "deit-tiny",
                                 "arrival": 0.25}
    tokens = Request(4, "decoder", 0.5, prompt_tokens=64, output_tokens=8)
    assert tokens == Request(4, "decoder", 0.5, 64, 8)
    assert tokens.to_dict() == {"index": 4, "model": "decoder",
                                "arrival": 0.5, "prompt_tokens": 64,
                                "output_tokens": 8}
    for field in Request._fields:
        with pytest.raises(AttributeError):
            setattr(keyword, field, 1)


def test_tuple_built_requests_equal_keyword_built_ones():
    """The lazy single-model stream and the pipeline's entry and hop
    requests skip the generated ``__new__``; they must still be the
    requests a keyword call builds."""

    lazy = PoissonTraffic(300.0, WorkloadMix.of(["deit-tiny"])).arrivals(1.0, 2)
    assert lazy and all(type(request) is Request for request in lazy)
    assert lazy == [Request(index=request.index, model="deit-tiny",
                            arrival=request.arrival) for request in lazy]
    seen: list[Request] = []
    obs = Observability(trace=TraceRecorder())
    routed = obs.request_routed

    def route(request, *args, **kwargs):
        seen.append(request)
        return routed(request, *args, **kwargs)

    obs.request_routed = route
    serve_pipeline(PoissonTraffic(100.0, WorkloadMix.of(["deit-tiny"])),
                   "rag = encoder[tokens=64] -> deit-tiny",
                   {"encoder": "1xvitality", "deit-tiny": "1xvitality"},
                   duration=0.5, seed=1, obs=obs)
    models = {request.model for request in seen}
    assert models == {"encoder[tokens=64]", "deit-tiny"}
    for request in seen:
        assert type(request) is Request
        assert request == Request(index=request.index, model=request.model,
                                  arrival=request.arrival)


# ------------------------------------------ multi-model arrivals vs keywords


def _keyword_requests(times, mix: WorkloadMix, rng: random.Random):
    """The multi-model branch of ``_lazy_requests`` as it was: every draw
    through both samplers, and one keyword-built request per arrival."""

    for index, time in enumerate(list(times)):
        model = mix.sample(rng)
        prompt, output = mix.sample_tokens(model, rng)
        yield Request(index=index, model=model, arrival=time,
                      prompt_tokens=prompt, output_tokens=output)


#: Fixed counts draw nothing; ranges draw one integer each.
TOKEN_COUNTS = st.one_of(
    st.integers(1, 512),
    st.tuples(st.integers(1, 64), st.integers(0, 64)).map(
        lambda pair: f"{pair[0]}:{pair[0] + pair[1]}"))


@st.composite
def mixes(draw) -> WorkloadMix:
    """2-4 models at uneven weights, some listed twice (duplicates merge),
    with token profiles on none, some or all of them."""

    models = draw(st.lists(st.sampled_from(MODELS + ("decoder",)),
                           min_size=2, max_size=4, unique=True))
    entries = [(model, draw(WEIGHTS)) for model in models]
    entries += [(model, draw(WEIGHTS))
                for model in draw(st.lists(st.sampled_from(models),
                                           max_size=2))]
    profiled = draw(st.lists(st.sampled_from(models), unique=True))
    return WorkloadMix(tuple(entries), tuple(
        (model, TokenProfile.of(draw(TOKEN_COUNTS), draw(TOKEN_COUNTS)))
        for model in profiled))


@settings(max_examples=200, deadline=None)
@given(mix=mixes(),
       pattern=st.sampled_from(["poisson", "bursty", "diurnal", "replay"]),
       rate=st.floats(20.0, 400.0), seed=st.integers(0, 2 ** 32 - 1),
       data=st.data())
def test_multi_model_arrivals_match_the_keyword_loop(mix, pattern, rate,
                                                     seed, data):
    """Element by element, each a :class:`Request`, from the same draws;
    a replayed time list goes through the same loop."""

    duration, rng = 0.5, random.Random(seed)
    if pattern == "replay":
        traffic = None
        times = sorted(data.draw(st.lists(st.floats(0.0, duration),
                                          max_size=80), label="times"))
    else:
        traffic = (PoissonTraffic(rate, mix) if pattern == "poisson"
                   else BurstyTraffic(rate, mix, mean_quiet=0.125,
                                      mean_burst=0.0625)
                   if pattern == "bursty"
                   else DiurnalTraffic(rate, mix, period=0.25))
        times = list(traffic._times(duration, rng))
    oracle_rng = random.Random()
    oracle_rng.setstate(rng.getstate())
    made = list(_lazy_requests(iter(times), mix, rng))
    expected = list(_keyword_requests(iter(times), mix, oracle_rng))
    assert len(made) == len(expected) == len(times)
    for request, reference in zip(made, expected):
        assert type(request) is Request
        assert request == reference
    assert rng.random() == oracle_rng.random()
    if traffic is not None:
        assert traffic.arrivals(duration, seed) == made


# -------------------------------------------------- mix draws vs linear scan


def _oracle_sample(entries, rng: random.Random) -> str:
    """``WorkloadMix.sample`` as it was: sum the weights, then scan."""

    if len(entries) == 1:
        return entries[0][0]
    total = sum(weight for _, weight in entries)
    pick = rng.random() * total
    cumulative = 0.0
    for model, weight in entries:
        cumulative += weight
        if pick < cumulative:
            return model
    return entries[-1][0]


WEIGHTS = st.one_of(st.floats(1e-6, 1e3), st.integers(1, 50),
                    st.sampled_from([0.1, 0.2, 0.3, 1 / 3, 1e-300]))


@settings(max_examples=200, deadline=None)
@given(entries=st.lists(st.tuples(st.sampled_from(MODELS), WEIGHTS),
                        min_size=1, max_size=8),
       seed=st.integers(0, 2 ** 32 - 1))
@example(entries=[("deit-tiny", 0.1), ("levit-128", 0.2),
                  ("deit-tiny", 0.3), ("deit-small", 1e-300)], seed=0)
def test_mix_sample_draws_what_the_linear_scan_drew(entries, seed):
    """Duplicate names merge first, so both draw from the merged entries;
    each draw must also consume the generator the same way."""

    mix = WorkloadMix(tuple(entries))
    rng, oracle_rng = random.Random(seed), random.Random(seed)
    draws = [mix.sample(rng) for _ in range(64)]
    assert draws == [_oracle_sample(mix.entries, oracle_rng)
                     for _ in range(64)]
    assert rng.random() == oracle_rng.random()


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


def test_each_dispatch_shape_builds_one_spec(engine_calls):
    """Each distinct shape is resolved once per run, and every batch and
    every routing estimate makes its own cache lookup, with equal shapes
    sharing one spec object."""

    import repro.serve.simulator as simulator

    engine_calls.watch(simulator)
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
        engine_calls.clear()
        cache = ResultCache()
        report = run(cache)
        stats = cache.stats()
        resolved, lookups = engine_calls.resolved, engine_calls.lookups
        assert len(resolved) == len(set(resolved)) == stats.misses > 2
        assert len({id(spec) for spec in lookups}) == len(set(lookups)) \
            == stats.misses
        batches = sum(replica.batches for replica in report.per_replica)
        kinds = {(spec.model, spec.target, spec.attention) for spec in resolved}
        assert len(kinds) > 2
        assert len(lookups) == stats.hits + stats.misses \
            == batches + len(kinds)


def test_service_times_build_one_spec_per_shape(monkeypatch):
    """Every estimator lookup makes its own engine call and cache lookup,
    but equal shapes share one spec object; a float or bool batch equal to
    a looked-up int one still meets the spec's check."""

    import repro.plan.queueing as queueing

    passed = []

    def recording(spec, **kwargs):
        passed.append(spec)
        return simulate(spec, **kwargs)

    monkeypatch.setattr(queueing, "simulate", recording)
    cache = ResultCache()
    times = ServiceTimes(cache=cache)
    mix = WorkloadMix.of(["deit-tiny", "levit-128"], [3.0, 1.0])
    for count in range(1, 5):
        for kind in ("vitality", "gpu:taylor"):
            estimate_fleet(f"{count}x{kind}", 1500.0, mix, policy="timeout",
                           service_times=times)
    stats = cache.stats()
    assert len(passed) == stats.hits + stats.misses > 2 * stats.misses
    assert len({id(spec) for spec in passed}) == len(set(passed)) \
        == stats.misses > 4
    replica = ReplicaSpec("vitality")
    times.service_seconds("deit-tiny", replica, 2)
    for batch in (2.0, True):
        with pytest.raises(ValueError, match="batch_size must be an integer"):
            times.service_seconds("deit-tiny", replica, batch)
