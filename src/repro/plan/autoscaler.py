"""Autoscaling policies and the controller driving dynamic fleets.

An :class:`Autoscaler` plugs into :func:`repro.serve.serve`: every
``interval`` seconds of simulated time the event loop fires a control tick,
the :class:`ScalePolicy` maps the observed :class:`ScaleState` (window
utilization, queue depth, clock) to a desired replica count, and the
controller turns the difference into actions — scale-ups become ``provision``
events that bring a new ``unit`` replica online ``provision_seconds`` later;
scale-downs *drain*: the chosen replica leaves the routing set immediately,
its queue flushes (the batching policy sees the drain flag), and it retires
once idle and empty.  Every decision and lifecycle transition is recorded as
a :class:`~repro.serve.ScaleEvent` for the report.

Policies:

* :class:`UtilizationScalePolicy` — classic reactive thresholds on the busy
  fraction of the last control window;
* :class:`QueueDepthScalePolicy` — thresholds on queued requests per active
  replica (leads utilization under bursty arrivals);
* :class:`ScheduledScalePolicy` — an explicit ``(time, count)`` staircase,
  the open-loop "we know the diurnal curve" strategy.

Everything is driven by the simulator's event heap and the traffic seed, so
autoscaled runs stay bit-reproducible.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Protocol, Sequence, runtime_checkable

from repro.fold import left_sum
from repro.serve.cluster import Fleet, Replica, ReplicaSpec
from repro.serve.metrics import ScaleEvent
from repro.serve.traffic import check_counts, check_finite

logger = logging.getLogger(__name__)

#: Policy names accepted by :func:`make_scale_policy`.  The CLI offers all
#: but ``scheduled``, whose ``(time, count)`` steps no flag carries.
SCALE_POLICIES = ("utilization", "queue-depth", "scheduled")


@dataclass(frozen=True)
class ScaleState:
    """What a policy sees at one control tick."""

    now: float
    active: int                   # replicas accepting requests
    pending: int                  # provisions requested but not yet online
    queued: int                   # requests queued across active replicas
    utilization: float            # busy fraction of the last window, in [0, 1]
    min_replicas: int
    max_replicas: int

    @property
    def current(self) -> int:
        """Capacity already committed: active plus in-flight provisions."""

        return self.active + self.pending

    @property
    def queue_depth(self) -> float:
        """Queued requests per active replica."""

        return self.queued / self.active if self.active else float(self.queued)


@runtime_checkable
class ScalePolicy(Protocol):
    """Maps one observed :class:`ScaleState` to a desired replica count."""

    name: str

    def desired(self, state: ScaleState) -> int:
        ...

    def to_dict(self) -> dict[str, object]:
        ...


class UtilizationScalePolicy:
    """Reactive thresholds on window utilization: above ``high`` add one
    replica, below ``low`` (with an empty queue) drain one."""

    name = "utilization"

    def __init__(self, high: float = 0.75, low: float = 0.30):
        if not 0.0 < low < high <= 1.0:
            raise ValueError(f"need 0 < low < high <= 1, got low={low}, high={high}")
        self.high = high
        self.low = low

    def desired(self, state: ScaleState) -> int:
        if state.utilization > self.high:
            return state.current + 1
        if state.utilization < self.low and state.queued == 0:
            return state.current - 1
        return state.current

    def to_dict(self) -> dict[str, object]:
        return {"name": self.name, "high": self.high, "low": self.low}


class QueueDepthScalePolicy:
    """Reactive thresholds on queued requests per active replica."""

    name = "queue-depth"

    def __init__(self, high: float = 4.0, low: float = 0.5):
        # An infinite bound would echo as non-JSON Infinity.
        check_finite(high=high)
        check_finite(allow_zero=True, low=low)
        if not low < high:
            raise ValueError(f"need 0 <= low < high, got low={low}, high={high}")
        self.high = high
        self.low = low

    def desired(self, state: ScaleState) -> int:
        if state.queue_depth > self.high:
            return state.current + 1
        if state.queue_depth < self.low:
            return state.current - 1
        return state.current

    def to_dict(self) -> dict[str, object]:
        return {"name": self.name, "high": self.high, "low": self.low}


class ScheduledScalePolicy:
    """An open-loop ``(time, count)`` staircase (diurnal pre-provisioning)."""

    name = "scheduled"

    def __init__(self, steps: Sequence[tuple[float, int]]):
        steps = tuple(steps)
        if not steps:
            raise ValueError("a schedule needs at least one (time, count) step")
        for index, (time, count) in enumerate(steps):
            check_finite(allow_zero=True, **{f"steps[{index}] time": time})
            check_counts(**{f"steps[{index}] count": count})
        ordered = tuple((float(time), int(count)) for time, count in steps)
        if list(ordered) != sorted(ordered, key=lambda step: step[0]):
            raise ValueError("schedule steps must be sorted by time")
        self.steps = ordered

    def desired(self, state: ScaleState) -> int:
        count = state.current
        for time, step_count in self.steps:
            if time <= state.now:
                count = step_count
        return count

    def to_dict(self) -> dict[str, object]:
        return {"name": self.name, "steps": [list(step) for step in self.steps]}


def make_scale_policy(name: str, **kwargs) -> ScalePolicy:
    """Build a scaling policy by name (the CLI entry point)."""

    if name == "utilization":
        return UtilizationScalePolicy(**kwargs)
    if name == "queue-depth":
        return QueueDepthScalePolicy(**kwargs)
    if name == "scheduled":
        return ScheduledScalePolicy(**kwargs)
    raise ValueError(f"unknown scaling policy {name!r}; "
                     f"available: {', '.join(SCALE_POLICIES)}")


class Autoscaler:
    """The controller :func:`repro.serve.serve` consults on every tick.

    ``unit`` names the replica kind scale-ups add (``"vitality"``,
    ``"gpu:taylor"``, configured design points included); ``interval`` is the
    control period and ``provision_seconds`` the delay between a scale-up
    decision and the replica joining the routing set.  One Autoscaler
    instance backs one run at a time (:meth:`begin` resets it).
    """

    def __init__(self, policy: ScalePolicy | str, unit: ReplicaSpec | str, *,
                 min_replicas: int = 1, max_replicas: int = 8,
                 interval: float = 0.25, provision_seconds: float = 0.5):
        self.policy = make_scale_policy(policy) if isinstance(policy, str) else policy
        self.unit = ReplicaSpec.parse(unit) if isinstance(unit, str) else unit
        check_counts(min_replicas=min_replicas, max_replicas=max_replicas)
        if max_replicas < min_replicas:
            raise ValueError(f"max_replicas ({max_replicas}) must be >= "
                             f"min_replicas ({min_replicas})")
        check_finite(interval=interval)
        check_finite(provision_seconds=provision_seconds, allow_zero=True)
        self.min_replicas = min_replicas
        self.max_replicas = max_replicas
        self.interval = interval
        self.provision_seconds = provision_seconds
        self._events: list[ScaleEvent] = []
        self._pending = 0
        self._busy_snapshot: dict[Replica, float] = {}
        self._observer = None

    def begin(self, fleet: Fleet, observer=None) -> None:
        """Reset per-run state (the simulator calls this before the loop).

        ``observer`` (a :class:`repro.obs.Observability` or ``None``) gets a
        ``scale_event`` call for every decision the run records.
        """

        self._events = []
        self._pending = 0
        self._busy_snapshot = {replica: replica.busy_seconds
                               for replica in fleet.replicas}
        self._observer = observer

    def _record(self, event: ScaleEvent) -> None:
        self._events.append(event)
        if self._observer is not None:
            self._observer.scale_event(event)
        logger.debug("t=%.6f autoscale %s %s %s", event.time, event.action,
                     event.replica or "-", event.detail)

    def observe(self, now: float, fleet: Fleet) -> ScaleState:
        """Fold the fleet into the :class:`ScaleState` the policy sees.

        Window utilization is the busy time accrued since the last tick over
        the window's capacity; a batch dispatched near the window's end books
        its whole service time at once, so the fraction is clamped to 1.
        """

        active = fleet.active_replicas
        accrued = left_sum(replica.busy_seconds
                           - self._busy_snapshot.get(replica, 0.0)
                           for replica in active)
        self._busy_snapshot = {replica: replica.busy_seconds
                               for replica in fleet.replicas}
        capacity = self.interval * len(active)
        utilization = min(1.0, accrued / capacity) if capacity else 1.0
        return ScaleState(
            now=now, active=len(active), pending=self._pending,
            queued=sum(len(replica.queue) for replica in active),
            utilization=utilization,
            min_replicas=self.min_replicas, max_replicas=self.max_replicas)

    def check(self, now: float, fleet: Fleet) -> tuple[int, list[Replica]]:
        """One control tick: returns (replicas to provision, replicas drained).

        The simulator schedules a ``provision`` event per requested replica
        and re-dispatches each drained one; this method already marked the
        drained replicas inactive.
        """

        state = self.observe(now, fleet)
        desired = max(self.min_replicas,
                      min(self.max_replicas, self.policy.desired(state)))
        if desired > state.current:
            additions = desired - state.current
            self._pending += additions
            self._record(ScaleEvent(
                now, "scale-up",
                detail=f"utilization {state.utilization:.2f}, "
                       f"queued {state.queued}, desired {desired}"))
            return additions, []
        if desired < state.active:
            # Retire the emptiest replicas first (ties: newest first), so a
            # drain strands as little queued work as possible.
            victims = sorted(fleet.active_replicas,
                             key=lambda replica: (replica.backlog_seconds(now),
                                                  -replica.index))
            drained = victims[:state.active - desired]
            for replica in drained:
                replica.active = False
                self._record(ScaleEvent(
                    now, "drain", replica.name,
                    detail=f"utilization {state.utilization:.2f}, "
                           f"desired {desired}"))
            return 0, drained
        return 0, []

    def provision(self, now: float, fleet: Fleet) -> Replica:
        """Bring one requested replica online (the ``provision`` event)."""

        self._pending -= 1
        replica = fleet.add_replica(self.unit, now)
        self._busy_snapshot[replica] = replica.busy_seconds
        self._record(ScaleEvent(now, "online", replica.name))
        return replica

    def collect_events(self, fleet: Fleet) -> tuple[ScaleEvent, ...]:
        """Decision events plus the retirements observed on the fleet,
        time-ordered — what the :class:`~repro.serve.ServeReport` carries."""

        retirements = [ScaleEvent(replica.retired_at, "retired", replica.name)
                       for replica in fleet.replicas
                       if replica.retired_at is not None]
        return tuple(sorted(self._events + retirements,
                            key=lambda event: (event.time, event.action,
                                               event.replica)))

    def to_dict(self) -> dict[str, object]:
        """JSON-stable description echoed into the report config."""

        return {"policy": self.policy.to_dict(), "unit": self.unit.label,
                "min_replicas": self.min_replicas,
                "max_replicas": self.max_replicas, "interval": self.interval,
                "provision_seconds": self.provision_seconds}
