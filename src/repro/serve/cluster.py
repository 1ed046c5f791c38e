"""Heterogeneous fleets of engine targets and request-routing policies.

A :class:`Fleet` is parsed from a compact spec string — ``"2xvitality,1xgpu"``
means two ViTALiTy replicas plus one GPU replica; a ``:vanilla`` / ``:taylor``
suffix pins the attention formulation on platform targets
(``"2xgpu:taylor"``).  Each :class:`Replica` wraps one engine target with a
request queue and running busy/energy accounting; routers place every arriving
request on one replica:

* :class:`LeastLoadedRouter` — minimise the replica's backlog (remaining busy
  time plus the estimated service time of everything it has queued);
* :class:`EnergyAwareRouter` — among replicas within ``slack_seconds`` of the
  lightest backlog, pick the one that serves this request's model for the
  least energy (it spills to faster, hungrier replicas only when the
  efficient ones fall behind).

Single-request service-time/energy estimates come from the engine through the
run's shared :class:`~repro.engine.ResultCache`, so routing costs one
simulation per (model, replica-kind) for the whole run.
"""

from __future__ import annotations

import heapq
from collections import deque
from dataclasses import dataclass
from typing import Callable, NamedTuple, Protocol, Sequence, runtime_checkable

from repro.engine import Sweep, get_target, split_configured_names
from repro.engine.spec import ATTENTION_MODES
from repro.serve.traffic import Request, check_finite

#: Router names accepted by :func:`make_router` and the CLI.
ROUTERS = ("least-loaded", "energy-aware")


class Estimate(NamedTuple):
    """Single-request service estimate used by routing decisions."""

    latency_seconds: float
    energy_joules: float


#: Signature of the estimator the simulator hands to routers.
Estimator = Callable[[str, "Replica"], Estimate]


@dataclass(frozen=True)
class ReplicaSpec:
    """One replica kind: an engine target plus an optional attention pin."""

    target: str
    attention: str | None = None

    def __post_init__(self):
        get_target(self.target)   # unknown names fail here, not mid-run
        if self.attention is not None and self.attention not in ATTENTION_MODES:
            raise ValueError(f"attention must be one of {ATTENTION_MODES}, "
                             f"got {self.attention!r}")

    @classmethod
    def parse(cls, text: str) -> "ReplicaSpec":
        """Parse one replica-kind label (``"gpu:taylor"``, ``"vitality"``)."""

        target, _, attention = text.partition(":")
        return cls(target, attention or None)

    @property
    def label(self) -> str:
        return self.target if self.attention is None else f"{self.target}:{self.attention}"


class Replica:
    """One serving instance: an engine target with a queue and accounting.

    ``started_at`` / ``retired_at`` bound the replica's provisioned lifetime
    (autoscaled runs add replicas mid-run and retire drained ones); ``active``
    is False while the replica drains — routers skip it, but its queue keeps
    dispatching until empty.
    """

    def __init__(self, index: int, ordinal: int, spec: ReplicaSpec,
                 started_at: float = 0.0, name_prefix: str = ""):
        self.index = index                       # fleet-wide position (tie-breaks)
        self.spec = spec
        self.name = f"{name_prefix}{spec.label}#{ordinal}"
        self.started_at = started_at
        self.queue: deque[Request] = deque()
        self.queued_seconds = 0.0                # estimated service time queued
        self._fleet: "Fleet | None" = None       # owner, for active-set caching
        self._active = True                      # accepting routed requests
        self.retired_at: float | None = None     # set once drained and idle
        self.busy_until = 0.0
        self.busy_seconds = 0.0
        self.energy_joules = 0.0
        self.batches = 0
        self.served = 0

    @property
    def active(self) -> bool:
        """Whether routers may place new requests here."""

        return self._active

    @active.setter
    def active(self, value: bool) -> None:
        # The autoscaler (and tests) toggle this attribute directly, so the
        # setter is where the owning fleet learns its cached active set is
        # stale — keeping ``fleet.active_replicas`` O(1) per arrival.
        self._active = value
        if self._fleet is not None:
            self._fleet._invalidate_active()

    def reset(self) -> None:
        """Return to the pristine pre-run state (serve() calls this, so one
        Fleet can back any number of independent runs)."""

        self.queue.clear()
        self.queued_seconds = 0.0
        self.active = True
        self.retired_at = None
        self.busy_until = 0.0
        self.busy_seconds = 0.0
        self.energy_joules = 0.0
        self.batches = 0
        self.served = 0

    def lifetime_seconds(self, makespan: float) -> float:
        """Provisioned replica-seconds this replica contributed to the run."""

        end = self.retired_at if self.retired_at is not None else makespan
        return max(end - self.started_at, 0.0)

    def backlog_seconds(self, now: float) -> float:
        """Remaining busy time plus the estimated service time of the queue.

        ``queued_seconds`` is maintained incrementally by the simulator
        (added on enqueue, removed on dispatch), so a routing decision costs
        O(fleet) rather than O(total queued requests).
        """

        return max(self.busy_until - now, 0.0) + self.queued_seconds


class Fleet:
    """An ordered collection of replicas built from :class:`ReplicaSpec`s.

    The constructed replicas are the fleet's *static* composition; autoscaled
    runs grow it with :meth:`add_replica` and :meth:`reset` restores the
    static composition, so one Fleet can back any number of independent runs.
    """

    def __init__(self, specs: Sequence[ReplicaSpec], *, index_base: int = 0,
                 name_prefix: str = ""):
        if not specs:
            raise ValueError("a fleet needs at least one replica")
        self.replica_specs = tuple(specs)
        # ``index_base`` / ``name_prefix`` keep replica indices and names
        # unique when several fleets share one run (pipeline stage pools):
        # observability tracks and LoadIndex entries key on them.
        self.index_base = index_base
        self.name_prefix = name_prefix
        self._ordinals: dict[str, int] = {}
        self._active_cache: tuple[Replica, ...] | None = None
        replicas = []
        for index, spec in enumerate(self.replica_specs):
            ordinal = self._ordinals.get(spec.label, 0)
            self._ordinals[spec.label] = ordinal + 1
            replica = Replica(index_base + index, ordinal, spec,
                              name_prefix=name_prefix)
            replica._fleet = self
            replicas.append(replica)
        self.replicas = tuple(replicas)
        self._static_count = len(replicas)

    @classmethod
    def parse(cls, text: str, *, index_base: int = 0,
              name_prefix: str = "") -> "Fleet":
        """Parse ``"2xvitality,1xgpu:taylor"`` (count defaults to 1).

        Replica targets may be configured design points —
        ``"2xvitality[pe=32x32,freq=1ghz],1xvitality"`` mixes a scaled-down
        variant with the Table III reference in one heterogeneous fleet.
        Commas inside the knob brackets do not split replicas.
        """

        specs: list[ReplicaSpec] = []
        for part in split_configured_names(text):
            count_text, _, rest = part.partition("x")
            if rest and count_text.isdigit():
                count, body = int(count_text), rest
            else:
                count, body = 1, part
            if count < 1:
                raise ValueError(f"replica count must be >= 1 in {part!r}")
            specs.extend(ReplicaSpec.parse(body) for _ in range(count))
        if not specs:
            raise ValueError(f"empty fleet spec {text!r}")
        return cls(specs, index_base=index_base, name_prefix=name_prefix)

    @property
    def active_replicas(self) -> tuple[Replica, ...]:
        """The replicas currently accepting routed requests.

        Cached between activation changes (replica added, drained or reset),
        so the per-arrival hot path costs one attribute read instead of an
        O(fleet) tuple rebuild.
        """

        cached = self._active_cache
        if cached is None:
            cached = tuple(replica for replica in self.replicas if replica.active)
            self._active_cache = cached
        return cached

    def _invalidate_active(self) -> None:
        self._active_cache = None

    def add_replica(self, spec: ReplicaSpec, now: float) -> Replica:
        """Bring one more replica of ``spec`` online at time ``now``.

        The autoscaler's scale-up hook: the new replica joins the routing set
        immediately (provisioning delay is the *caller's* concern — the
        simulator schedules this call ``provision_seconds`` after the scale
        decision) and is dropped again by :meth:`reset`.
        """

        ordinal = self._ordinals.get(spec.label, 0)
        self._ordinals[spec.label] = ordinal + 1
        replica = Replica(self.index_base + len(self.replicas), ordinal, spec,
                         started_at=now, name_prefix=self.name_prefix)
        replica._fleet = self
        self.replicas = self.replicas + (replica,)
        self._invalidate_active()
        return replica

    def reset(self) -> None:
        """Restore the static composition and pristine per-replica state."""

        self.replicas = self.replicas[:self._static_count]
        self._ordinals = {}
        self._invalidate_active()
        for replica in self.replicas:
            self._ordinals[replica.spec.label] = \
                self._ordinals.get(replica.spec.label, 0) + 1
            replica.reset()

    def describe(self) -> str:
        """The canonical spec string (``"2xvitality,1xgpu:taylor"``)."""

        counts: dict[str, int] = {}
        for spec in self.replica_specs:
            counts[spec.label] = counts.get(spec.label, 0) + 1
        return ",".join(f"{count}x{label}" for label, count in counts.items())

    def warmup_sweeps(self, models: Sequence[str],
                      batch_sizes: Sequence[int] = (1,)) -> list[Sweep]:
        """Engine sweeps covering every (model, replica kind, batch) shape.

        One :class:`~repro.engine.Sweep` per distinct attention pin, built
        through the same ``over_models`` / ``over_targets`` path the
        experiment sweeps use — no hand-rolled cross-products.
        """

        groups: dict[str | None, list[str]] = {}
        for spec in self.replica_specs:
            groups.setdefault(spec.attention, []).append(spec.target)
        return [
            Sweep().over_models(models).over_targets(targets)
                   .attentions(attention).batch_sizes(*batch_sizes)
            for attention, targets in groups.items()
        ]

    def warmup(self, models: Sequence[str], batch_sizes: Sequence[int] = (1,),
               cache=None) -> None:
        """Pre-simulate every shape the fleet can dispatch, through ``cache``."""

        for builder in self.warmup_sweeps(models, batch_sizes):
            builder.run(cache=cache)


@runtime_checkable
class Router(Protocol):
    """Places one arriving request on a replica."""

    name: str

    def choose(self, replicas: Sequence[Replica], model: str, now: float,
               estimate: Estimator) -> Replica:
        ...


class LeastLoadedRouter:
    """Route to the replica with the smallest backlog (ties: fleet order).

    ``choose`` is the O(fleet) reference scan; the simulator routes through a
    :class:`LoadIndex` instead (``uses_load_index``), which maintains the same
    argmin incrementally in O(log fleet) per routing/dispatch event.
    """

    name = "least-loaded"
    uses_load_index = True

    def choose(self, replicas: Sequence[Replica], model: str, now: float,
               estimate: Estimator) -> Replica:
        return min(replicas, key=lambda r: (r.backlog_seconds(now), r.index))


class LoadIndex:
    """Incremental argmin over replica backlogs for least-loaded routing.

    ``backlog_seconds(now) = max(busy_until - now, 0) + queued_seconds`` is
    time-dependent, but it only *changes shape* at events the simulator
    already handles: route/dispatch/free mutate ``queued_seconds`` /
    ``busy_until`` (and every future ``busy_until`` has a ``free`` event
    scheduled at exactly that time), and scale events add or drain replicas.
    Between events, busy replicas' backlogs all decay at the same unit rate
    and idle replicas' backlogs are constant — so two lazy-deletion min-heaps
    capture the order:

    * *idle* replicas keyed by ``(queued_seconds, index)`` — their exact
      backlog;
    * *busy* replicas keyed by ``(busy_until + queued_seconds, index)`` — a
      time-shifted proxy whose order matches the backlog order while every
      entry's ``busy_until`` is in the future (guaranteed by the ``free``
      events).

    :meth:`argmin` compares the two heap tops with the *same* float
    expression the reference linear scan uses, so the routed replica (and its
    index tie-break) matches the scan bit-for-bit; within the busy heap the
    proxy key can in principle reorder backlogs that agree to within a few
    ulps, which the equivalence tests bound empirically.  Entries are
    invalidated by stamp and re-pushed on update, the classic lazy-deletion
    heap, so each event costs O(log live + stale).
    """

    def __init__(self, replicas: Sequence[Replica] = (), now: float = 0.0):
        self._idle: list[tuple[float, int, int, Replica]] = []
        self._busy: list[tuple[float, int, int, Replica]] = []
        self._stamps: dict[int, int] = {}
        self._members: set[int] = set()
        for replica in replicas:
            self.update(replica, now)

    def __len__(self) -> int:
        return len(self._members)

    def update(self, replica: Replica, now: float) -> None:
        """(Re-)index ``replica`` after its queue or busy window changed."""

        stamp = self._stamps.get(replica.index, 0) + 1
        self._stamps[replica.index] = stamp
        self._members.add(replica.index)
        if replica.busy_until > now:
            heapq.heappush(self._busy, (replica.busy_until + replica.queued_seconds,
                                        replica.index, stamp, replica))
        else:
            heapq.heappush(self._idle, (replica.queued_seconds,
                                        replica.index, stamp, replica))

    def remove(self, replica: Replica) -> None:
        """Drop ``replica`` from routing (drained or retired)."""

        if replica.index in self._members:
            self._members.discard(replica.index)
            self._stamps[replica.index] = self._stamps.get(replica.index, 0) + 1

    def argmin(self, now: float) -> Replica | None:
        """The indexed replica minimising ``(backlog_seconds(now), index)``."""

        # Each heap's top, popping stale entries (replaced by a newer stamp
        # or removed) until a live one shows; inline, as this runs once per
        # arrival.
        members, stamps = self._members, self._stamps
        heap = self._idle
        while heap:
            _, index, stamp, idle = heap[0]
            if index in members and stamps[index] == stamp:
                break
            heapq.heappop(heap)
        else:
            idle = None
        heap = self._busy
        while heap:
            _, index, stamp, busy = heap[0]
            if index in members and stamps[index] == stamp:
                break
            heapq.heappop(heap)
        else:
            return idle
        if idle is None:
            return busy
        # Replica.backlog_seconds, inlined, and the scan's (backlog, index)
        # order: the busy top wins only if strictly smaller.
        idle_backlog = max(idle.busy_until - now, 0.0) + idle.queued_seconds
        busy_backlog = max(busy.busy_until - now, 0.0) + busy.queued_seconds
        if busy_backlog < idle_backlog or (busy_backlog == idle_backlog
                                           and busy.index < idle.index):
            return busy
        return idle


class EnergyAwareRouter:
    """Prefer the most energy-efficient replica for this model, spilling to
    others only when the efficient one falls ``slack_seconds`` behind the
    lightest-loaded replica."""

    name = "energy-aware"

    def __init__(self, slack_seconds: float = 0.01):
        # A nan slack makes every replica ineligible.
        check_finite(allow_zero=True, slack_seconds=slack_seconds)
        self.slack_seconds = slack_seconds

    def choose(self, replicas: Sequence[Replica], model: str, now: float,
               estimate: Estimator) -> Replica:
        backlogs = [replica.backlog_seconds(now) for replica in replicas]
        floor = min(backlogs)
        eligible = [(replica, backlog)
                    for replica, backlog in zip(replicas, backlogs)
                    if backlog <= floor + self.slack_seconds]
        return min(eligible,
                   key=lambda pair: (estimate(model, pair[0]).energy_joules,
                                     pair[1], pair[0].index))[0]


def make_router(name: str, *, slack_seconds: float = 0.01) -> Router:
    """Build a routing policy by name (the CLI entry point)."""

    if name == "least-loaded":
        return LeastLoadedRouter()
    if name == "energy-aware":
        return EnergyAwareRouter(slack_seconds=slack_seconds)
    raise ValueError(f"unknown router {name!r}; available: {', '.join(ROUTERS)}")
