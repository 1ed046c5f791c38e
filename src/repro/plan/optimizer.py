"""SLO-driven capacity planning: search fleets, prune analytically, validate.

:func:`plan_capacity` answers the operator question the serving simulator
alone cannot: *what is the cheapest fleet that meets a p99 latency SLO under
this traffic?*  The search composes the layers below it:

1. **Enumerate** candidate fleets — every replica kind in ``targets``
   (configured design points and attention pins included) at every count up
   to ``max_replicas``;
2. **Prune** with the analytic queueing model (:mod:`repro.plan.queueing`):
   unstable fleets and fleets whose predicted SLO-percentile latency exceeds
   the SLO by more than the safety ``margin`` are discarded in microseconds;
3. **Validate** the ``top_k`` best survivors — ranked analytic-first: the
   Pareto boundary of the feasible set under (cost, predicted latency) goes
   ahead of dominated survivors — with the discrete-event simulator
   (:func:`repro.serve.serve`) under the real traffic pattern, and check the
   *measured* percentile against the SLO.  ``jobs=N`` fans the validation
   runs over a process pool;
4. **Report** the chosen fleet (cheapest validated fleet meeting the SLO),
   the one-replica-smaller boundary fleet (evidence the choice is minimal),
   and the cost-vs-SLO-attainment Pareto frontier over everything validated.

Cost is silicon area (mm² per fleet) when every candidate kind models it,
falling back to energy per request for platform targets; both are reported
per candidate either way.

Steps 2–4 are one driver (:func:`_search`, :func:`_boundary`,
:func:`_frontier`) that :func:`plan_pipeline_capacity` and
:func:`plan_llm_capacity` share: each planner supplies only its candidates,
cost, ``measure`` partial and payload.
"""

from __future__ import annotations

import itertools
import logging
from functools import partial
from operator import itemgetter, le
from typing import Callable, Sequence

from repro.engine import ResultCache, target_area_mm2
from repro.fold import left_sum
from repro.knobs import is_count
from repro.serve.batching import make_policy
from repro.serve.cluster import ReplicaSpec, make_router
from repro.serve.llm import (
    DEFAULT_HANDOFF_SECONDS,
    DEFAULT_MAX_BATCH,
    DEFAULT_OUTPUT_TOKENS,
    DEFAULT_PREFILL_CHUNK,
    DEFAULT_PROMPT_TOKENS,
    DEFAULT_STEP_OVERHEAD,
    KVCacheConfig,
    serve_llm,
)
from repro.serve.metrics import (
    DEFAULT_PERCENTILES,
    check_fractions,
    percentile_label,
)
from repro.serve.pipeline import (
    DEFAULT_STAGE_HANDOFF,
    PipelineSpec,
    serve_pipeline,
)
from repro.serve.simulator import DEFAULT_DISPATCH_OVERHEAD, serve
from repro.serve.traffic import (
    PoissonTraffic,
    TrafficPattern,
    WorkloadMix,
    check_counts,
    check_finite,
)
from repro.plan.queueing import (
    PipelineEstimate,
    ServiceTimes,
    estimate_fleet,
    estimate_llm_pools,
)

logger = logging.getLogger(__name__)


def _note(progress: Callable[[str], None] | None, message: str) -> None:
    """One planner milestone: always logged, echoed to ``progress`` if set."""

    logger.info("%s", message)
    if progress is not None:
        progress(message)


def pareto_frontier(points: Sequence[dict], keys: Sequence[str]) -> list[dict]:
    """The non-dominated subset of ``points`` under minimisation of ``keys``.

    A point is dominated when some other point is no worse on every key and
    strictly better on at least one.  Ties (identical coordinates) survive
    together.  Returns the frontier sorted by the first key.

    Each point's coordinates are read once, as a tuple.  Another tuple
    dominates when it sorts before the point's own and is no worse on every
    key.  A tuple no worse on every key holds no nan, so it sorts before
    exactly when it differs, that is, when it is strictly better on some
    key.  The sort check runs in C and rejects about half of the pairs.
    """

    coordinates = [tuple([point[key] for key in keys]) for point in points]
    frontier = []
    for point, own in zip(points, coordinates):
        for other in coordinates:
            if other < own and all(map(le, other, own)):
                break
        else:
            frontier.append((own, point))
    frontier.sort(key=itemgetter(0))
    return [point for _, point in frontier]


def _kind_area(kind: str) -> float | None:
    """Silicon area of one replica of ``kind``, None for platform targets."""

    return target_area_mm2(ReplicaSpec.parse(kind).target)


def _rank_shortlist(feasible: Sequence[dict], keys: Sequence[str],
                    cost: Callable[[dict], tuple], top_k: int) -> list[dict]:
    """Analytic-first ranking: Pareto-boundary survivors (under minimisation
    of ``keys``, typically cost and predicted latency) go ahead of dominated
    ones; both groups are ordered by ``cost`` and the list is cut at
    ``top_k``.  A dominated candidate — worse predicted latency at no lower
    cost — only reaches the simulator once every boundary point has."""

    boundary = pareto_frontier(list(feasible), keys) if feasible else []
    boundary_ids = {id(candidate) for candidate in boundary}
    dominated = [candidate for candidate in feasible
                 if id(candidate) not in boundary_ids]
    ranked = sorted(boundary, key=cost) + sorted(dominated, key=cost)
    return ranked[:top_k]


def _check_search(jobs: int | None, **counts: int) -> None:
    """Refuse bad search arguments before any estimate: every ``counts``
    entry (replica bounds, ``top_k``, token sizes) must be an integer >= 1
    and ``jobs`` None or one.  Unchecked, a fractional bound or ``top_k``
    died mid-search with a TypeError that named nothing, and a bad ``jobs``
    only after the whole analytic prune."""

    check_counts(**counts)
    if jobs is not None and not is_count(jobs):
        raise ValueError(f"jobs must be None or an integer >= 1, got {jobs!r}")


def _search(candidates: Sequence[dict], *, rank_keys: Sequence[str],
            cost: Callable[[dict], tuple], measure: Callable[..., dict],
            name: Callable[[dict], str], noun: str, top_k: int,
            jobs: int | None, cache, duration: float,
            progress: Callable[[str], None] | None
            ) -> tuple[list[dict], dict | None]:
    """The search every planner runs: prune, rank, validate, choose.

    Keeps the analytically feasible candidates, ranks them with
    :func:`_rank_shortlist`, validates the shortlist through ``measure`` —
    serially, or across ``jobs`` worker processes — and returns the
    validated rows with the cheapest one that attained its SLO (``None`` if
    none did).  ``name`` labels a candidate in progress notes; the planner
    has checked ``jobs`` with :func:`_check_search`.
    """

    feasible = [candidate for candidate in candidates
                if candidate["predicted_feasible"]]
    shortlist = _rank_shortlist(feasible, rank_keys, cost, top_k)
    _note(progress, f"analytic prune: {len(candidates)} {noun}s, "
                    f"{len(feasible)} feasible, validating {len(shortlist)}")
    if jobs is not None and jobs > 1 and len(shortlist) > 1:
        # Only parallel runs pay for importing multiprocessing.
        from concurrent.futures import ProcessPoolExecutor

        workers = min(jobs, len(shortlist))
        _note(progress, f"validating {len(shortlist)} {noun}s across "
                        f"{workers} processes")
        with ProcessPoolExecutor(max_workers=workers) as pool:
            validated = list(pool.map(measure, shortlist))
    else:
        validated = []
        for candidate in shortlist:
            _note(progress, f"validating {name(candidate)} "
                            f"({duration:.1f}s simulated)")
            # Serial validation shares the prune's engine cache: every
            # (model, target, batch) shape the analytic pass already
            # simulated is free here (and a --cache-dir DiskResultCache
            # persists both phases).
            validated.append(measure(candidate, cache=cache))
    attained = [candidate for candidate in validated
                if candidate["slo_attained"]]
    chosen = min(attained, key=cost) if attained else None
    _note(progress, f"chosen: {name(chosen)}" if chosen is not None
                    else f"chosen: none (no validated {noun} met the SLO)")
    return validated, chosen


def _boundary(smaller: dict, validated: Sequence[dict], keys: Sequence[str],
              *, measure: Callable[..., dict], name: Callable[[dict], str],
              cache, progress: Callable[[str], None] | None) -> dict:
    """``keys`` of the measured row of ``smaller``, the candidate one replica
    below the choice: reused when the shortlist already validated it (no
    second simulation), measured now otherwise."""

    row = next((row for row in validated if name(row) == name(smaller)), None)
    if row is None:
        _note(progress, f"checking boundary {name(smaller)}")
        row = measure(smaller, cache=cache)
    return {key: row[key] for key in keys}


def _frontier(validated: Sequence[dict], cost_key: str,
              name: Callable[[dict], str]) -> list[dict]:
    """The cost-vs-violation Pareto frontier of the validated rows whose
    cost is known; marks each row's ``pareto`` membership in place."""

    points = [dict(row) for row in validated if row[cost_key] is not None]
    frontier = pareto_frontier(points, [cost_key, "slo_violation_rate"])
    names = {name(point) for point in frontier}
    for row in validated:
        row["pareto"] = name(row) in names
    return frontier


def _measured(candidate: dict, keys: Sequence[str], report, *, slo_seconds,
              slo_percentile, label) -> dict:
    """One validated row: ``keys`` copied from the candidate, its predicted
    percentile, and the figures ``report`` measured."""

    measured = report.latency.quantile(slo_percentile)
    return {
        **{key: candidate[key] for key in keys},
        f"predicted_{label}_ms": candidate[f"predicted_{label}_ms"],
        f"{label}_ms": measured * 1e3,
        "slo_attained": measured <= slo_seconds,
        "slo_violation_rate": report.slo_violation_rate,
        "throughput_rps": report.throughput_rps,
        "energy_per_request_mj": report.energy_per_request_joules * 1e3,
        "replica_seconds": report.replica_seconds,
    }


def _measure_fleet(candidate: dict, *, traffic, policy, router, duration,
                   seed, slo_seconds, dispatch_overhead_seconds, percentiles,
                   slo_percentile, label, cache=None) -> dict:
    """Validate one ``plan_capacity`` candidate in the simulator.

    Module-level so ``jobs=N`` can pickle it into worker processes; workers
    run with their own fresh engine cache (``cache=None``), which changes the
    parent's cache accounting but — caches being semantically transparent —
    not a single measured figure.
    """

    report = serve(traffic, candidate["fleet"], policy=policy, router=router,
                   duration=duration, seed=seed, slo_seconds=slo_seconds,
                   dispatch_overhead_seconds=dispatch_overhead_seconds,
                   percentiles=percentiles, cache=cache)
    return _measured(candidate, ("kind", "replicas", "fleet", "area_mm2"),
                     report, slo_seconds=slo_seconds,
                     slo_percentile=slo_percentile, label=label)


def plan_capacity(rate: float, models: Sequence[str] | str, *,
                  slo_seconds: float, duration: float,
                  slo_percentile: float = 0.99,
                  targets: Sequence[str] = ("vitality",),
                  weights: Sequence[float] | None = None,
                  max_replicas: int = 8, top_k: int = 3,
                  traffic: TrafficPattern | None = None,
                  policy: str = "timeout", batch_size: int = 8,
                  timeout: float = 2e-3,
                  dispatch_overhead_seconds: float = DEFAULT_DISPATCH_OVERHEAD,
                  router: str = "least-loaded", seed: int = 0,
                  margin: float = 1.25,
                  cache=None, jobs: int | None = None,
                  progress: Callable[[str], None] | None = None
                  ) -> dict[str, object]:
    """Search for the cheapest fleet meeting the SLO; return the full payload.

    ``targets`` are replica kinds (``"vitality"``, ``"vitality[pe=32x32]"``,
    ``"gpu:taylor"``); candidates are homogeneous ``count x kind`` fleets.
    ``traffic`` defaults to Poisson at ``rate``; pass a pattern instance
    (bursty, diurnal, replay) to validate under different arrivals — the
    analytic prune always models the mean ``rate``.  ``margin`` loosens the
    analytic prune (predicted percentile up to ``margin * slo``) so
    near-boundary fleets still reach validation.  ``jobs`` > 1 fans the
    validation simulations over a :class:`ProcessPoolExecutor`; every
    measured figure is identical to the serial run (workers use their own
    engine caches, so only the payload's ``cache`` accounting block
    reflects the analytic phase alone).  Deterministic for a fixed ``seed``:
    same arguments, bit-identical measurements.  ``progress`` (a one-string
    callable, e.g. :meth:`repro.obs.Progress.step`) receives a milestone
    line per search stage.
    """

    check_finite(rate=rate, duration=duration, margin=margin,
                 slo_seconds=slo_seconds)
    check_finite(dispatch_overhead_seconds=dispatch_overhead_seconds,
                 allow_zero=True)
    check_fractions("slo_percentile", (slo_percentile, *DEFAULT_PERCENTILES))
    _check_search(jobs, max_replicas=max_replicas, top_k=top_k)
    if not targets:
        raise ValueError("the search space needs at least one target kind")
    if isinstance(models, str):
        models = [models]
    batching = make_policy(policy, batch_size=batch_size, timeout=timeout)
    routing = make_router(router)
    mix = WorkloadMix.of(tuple(models), weights)
    if traffic is None:
        traffic = PoissonTraffic(rate=rate, mix=mix)
    service_times = ServiceTimes(dispatch_overhead_seconds, cache=cache)
    label = percentile_label(slo_percentile)
    percentiles = tuple(sorted(set(DEFAULT_PERCENTILES) | {slo_percentile}))
    areas = {kind: _kind_area(kind) for kind in dict.fromkeys(targets)}
    cost_key = "area_mm2" if all(area is not None for area in areas.values()) \
        else "energy_per_request_mj"

    candidates = []
    for kind in dict.fromkeys(targets):
        for count in range(1, max_replicas + 1):
            estimate = estimate_fleet(
                f"{count}x{kind}", rate, mix, policy=batching,
                dispatch_overhead_seconds=dispatch_overhead_seconds,
                percentiles=(slo_percentile,), service_times=service_times)
            predicted = estimate.predicted(slo_percentile)
            feasible = estimate.stable and predicted is not None \
                and predicted <= slo_seconds * margin
            area = areas[kind]
            candidates.append({
                "kind": kind,
                "replicas": count,
                "fleet": f"{count}x{kind}",
                "area_mm2": None if area is None else area * count,
                "energy_per_request_mj":
                    estimate.energy_per_request_joules * 1e3,
                "predicted_utilization": estimate.utilization,
                f"predicted_{label}_ms":
                    None if predicted is None else predicted * 1e3,
                "predicted_feasible": feasible,
                "analytic": estimate.to_dict(),
            })

    def cost(candidate: dict) -> tuple:
        return (candidate[cost_key] if candidate[cost_key] is not None
                else float("inf"),
                candidate["energy_per_request_mj"],
                candidate["replicas"], candidate["kind"])

    measure = partial(_measure_fleet, traffic=traffic, policy=batching,
                      router=routing, duration=duration, seed=seed,
                      slo_seconds=slo_seconds,
                      dispatch_overhead_seconds=dispatch_overhead_seconds,
                      percentiles=percentiles, slo_percentile=slo_percentile,
                      label=label)
    name = itemgetter("fleet")
    validated, chosen = _search(
        candidates, rank_keys=[cost_key, f"predicted_{label}_ms"], cost=cost,
        measure=measure, name=name, noun="fleet", top_k=top_k, jobs=jobs,
        cache=service_times.cache, duration=duration, progress=progress)

    boundary = None
    if chosen is not None and chosen["replicas"] > 1:
        smaller = f"{chosen['replicas'] - 1}x{chosen['kind']}"
        boundary = _boundary(
            next(candidate for candidate in candidates
                 if candidate["fleet"] == smaller), validated,
            ("fleet", f"{label}_ms", "slo_attained", "slo_violation_rate",
             "throughput_rps"),
            measure=measure, name=name, cache=service_times.cache,
            progress=progress)
    frontier = _frontier(validated, cost_key, name)

    return {
        "config": {
            "rate": rate, "mix": mix.to_dict(), "slo_seconds": slo_seconds,
            "slo_percentile": slo_percentile, "targets": list(targets),
            "max_replicas": max_replicas, "top_k": top_k, "policy": policy,
            "batch_size": batch_size, "timeout": timeout,
            "dispatch_overhead_seconds": dispatch_overhead_seconds,
            "router": router, "duration": duration, "seed": seed,
            "margin": margin, "traffic": traffic.to_dict(),
        },
        "objectives": [cost_key, "slo_violation_rate"],
        "evaluated": len(candidates),
        "simulated": len(validated),
        "candidates": candidates,
        "validated": validated,
        "chosen": chosen,
        "boundary": boundary,
        "pareto_frontier": frontier,
        "cache": service_times.cache.stats().to_dict(),
    }


def _measure_pipeline(candidate: dict, *, traffic, pipeline, policy, router,
                      duration, seed, slo_seconds, stage_slo_seconds,
                      handoff_seconds, dispatch_overhead_seconds, percentiles,
                      slo_percentile, label, cache=None) -> dict:
    """Validate one ``plan_pipeline_capacity`` candidate in the simulator.

    Module-level so ``jobs=N`` can pickle it; same cache semantics as
    :func:`_measure_fleet`.
    """

    report = serve_pipeline(
        traffic, pipeline, candidate["pools"], policy=policy, router=router,
        duration=duration, seed=seed, slo_seconds=slo_seconds,
        stage_slo_seconds=stage_slo_seconds, handoff_seconds=handoff_seconds,
        dispatch_overhead_seconds=dispatch_overhead_seconds,
        percentiles=percentiles, cache=cache)
    return {
        **_measured(candidate, ("pools", "pools_text", "counts", "replicas",
                                "area_mm2", "bottleneck"),
                    report, slo_seconds=slo_seconds,
                    slo_percentile=slo_percentile, label=label),
        "stage_utilization": {row["name"]: row["utilization"]
                              for row in report.pipeline["stages"]},
    }


def plan_pipeline_capacity(rate: float, pipeline: PipelineSpec | str, *,
                           slo_seconds: float, duration: float,
                           slo_percentile: float = 0.95,
                           targets: "str | dict[str, str]" = "vitality",
                           max_replicas_per_stage: int = 4, top_k: int = 3,
                           traffic: TrafficPattern | None = None,
                           policy: str = "timeout", batch_size: int = 8,
                           timeout: float = 2e-3,
                           handoff_seconds: float = DEFAULT_STAGE_HANDOFF,
                           dispatch_overhead_seconds: float = DEFAULT_DISPATCH_OVERHEAD,
                           router: str = "least-loaded", seed: int = 0,
                           margin: float = 1.25,
                           stage_slo_seconds: "dict[str, float] | None" = None,
                           cache=None, jobs: int | None = None,
                           progress: Callable[[str], None] | None = None
                           ) -> dict[str, object]:
    """Size every stage pool of a pipeline jointly against an e2e SLO.

    Enumerates every per-stage replica-count vector (1 to
    ``max_replicas_per_stage`` per stage), prunes with the tandem-queue
    composition (per-stage estimates at the thinned rates, memoised per
    (stage, count), summed with visit-ratio weights plus the expected
    handoff delay), validates the ``top_k`` best survivors through
    :func:`repro.serve.serve_pipeline`, and picks the cheapest candidate
    whose *measured* end-to-end percentile meets the SLO.  The payload
    mirrors :func:`plan_capacity` — ``candidates`` / ``validated`` /
    ``chosen`` / ``boundary`` (one replica removed from the chosen
    candidate's bottleneck stage) / ``pareto_frontier`` — with candidates
    keyed by their per-stage pool map.  ``targets`` is one replica kind for
    every stage or a per-stage mapping (stages may plan different
    hardware).  Deterministic for fixed arguments.
    """

    if isinstance(pipeline, str):
        pipeline = PipelineSpec.parse(pipeline)
    check_finite(rate=rate, duration=duration, margin=margin,
                 slo_seconds=slo_seconds,
                 **{f"stage_slo_seconds[{name!r}]": slo
                    for name, slo in (stage_slo_seconds or {}).items()})
    check_finite(dispatch_overhead_seconds=dispatch_overhead_seconds,
                 handoff_seconds=handoff_seconds, allow_zero=True)
    check_fractions("slo_percentile", (slo_percentile, *DEFAULT_PERCENTILES))
    _check_search(jobs, max_replicas_per_stage=max_replicas_per_stage,
                  top_k=top_k)
    batching = make_policy(policy, batch_size=batch_size, timeout=timeout)
    routing = make_router(router)
    stage_names = [stage.name for stage in pipeline.stages]
    unknown = [name for name in stage_slo_seconds or {}
               if name not in stage_names]
    if unknown:
        raise ValueError(f"stage_slo_seconds names unknown stages "
                         f"{', '.join(repr(n) for n in unknown)}")
    if isinstance(targets, str):
        kinds = {name: targets for name in stage_names}
    else:
        kinds = dict(targets)
        unknown = [name for name in kinds if name not in stage_names]
        if unknown:
            raise ValueError(f"targets names unknown stages "
                             f"{', '.join(repr(n) for n in unknown)}")
        missing = [name for name in stage_names if name not in kinds]
        if missing:
            raise ValueError(f"targets is missing stages "
                             f"{', '.join(repr(n) for n in missing)}")
    if traffic is None:
        traffic = PoissonTraffic(
            rate=rate, mix=WorkloadMix.of([pipeline.stage(pipeline.entry).model]))
    service_times = ServiceTimes(dispatch_overhead_seconds, cache=cache)
    label = percentile_label(slo_percentile)
    percentiles = tuple(sorted(set(DEFAULT_PERCENTILES) | {slo_percentile}))
    areas = {name: _kind_area(kinds[name]) for name in stage_names}
    cost_key = "area_mm2" if all(area is not None for area in areas.values()) \
        else "energy_per_request_mj"

    # Per-(stage, count) analytic estimates: the thinned stage rate is fixed
    # by the pipeline's visit ratios, so the whole count-vector product
    # space composes from S x max_replicas_per_stage estimates.
    visits = pipeline.visit_ratios()
    stage_estimates: dict[tuple[str, int], object] = {}
    for stage in pipeline.stages:
        for count in range(1, max_replicas_per_stage + 1):
            stage_estimates[(stage.name, count)] = estimate_fleet(
                f"{count}x{kinds[stage.name]}", rate * visits[stage.name],
                stage.model, policy=batching,
                dispatch_overhead_seconds=dispatch_overhead_seconds,
                percentiles=(slo_percentile,), service_times=service_times)

    candidates = []
    for counts in itertools.product(range(1, max_replicas_per_stage + 1),
                                    repeat=len(stage_names)):
        estimate = PipelineEstimate.compose(
            pipeline, rate, handoff_seconds,
            {name: stage_estimates[(name, count)]
             for name, count in zip(stage_names, counts)})
        predicted = estimate.predicted(slo_percentile)
        feasible = estimate.stable and predicted is not None \
            and predicted <= slo_seconds * margin
        pools = {name: f"{count}x{kinds[name]}"
                 for name, count in zip(stage_names, counts)}
        area = None if cost_key != "area_mm2" else left_sum(
            areas[name] * count for name, count in zip(stage_names, counts))
        energy = left_sum(ratio * stage.energy_per_request_joules
                          for _, ratio, stage in estimate.stages)
        candidates.append({
            "pools": pools,
            "pools_text": ";".join(f"{name}={pools[name]}"
                                   for name in stage_names),
            "counts": dict(zip(stage_names, counts)),
            "replicas": sum(counts),
            "area_mm2": area,
            "energy_per_request_mj": energy * 1e3,
            "predicted_utilization":
                estimate.stage_estimate(estimate.bottleneck).utilization,
            "bottleneck": estimate.bottleneck,
            f"predicted_{label}_ms":
                None if predicted is None else predicted * 1e3,
            "predicted_feasible": feasible,
            "per_stage": {name: {"visit_ratio": ratio,
                                 "utilization": stage.utilization,
                                 "stable": stage.stable}
                          for name, ratio, stage in estimate.stages},
        })

    def cost(candidate: dict) -> tuple:
        return (candidate[cost_key] if candidate[cost_key] is not None
                else float("inf"),
                candidate["energy_per_request_mj"],
                candidate["replicas"], candidate["pools_text"])

    measure = partial(_measure_pipeline, traffic=traffic, pipeline=pipeline,
                      policy=batching, router=routing, duration=duration,
                      seed=seed, slo_seconds=slo_seconds,
                      stage_slo_seconds=stage_slo_seconds,
                      handoff_seconds=handoff_seconds,
                      dispatch_overhead_seconds=dispatch_overhead_seconds,
                      percentiles=percentiles, slo_percentile=slo_percentile,
                      label=label)
    name = itemgetter("pools_text")
    validated, chosen = _search(
        candidates, rank_keys=[cost_key, f"predicted_{label}_ms"], cost=cost,
        measure=measure, name=name, noun="candidate", top_k=top_k, jobs=jobs,
        cache=service_times.cache, duration=duration, progress=progress)

    boundary = None
    if chosen is not None and chosen["counts"][chosen["bottleneck"]] > 1:
        neck = chosen["bottleneck"]
        smaller = dict(chosen["counts"])
        smaller[neck] -= 1
        boundary = _boundary(
            next(candidate for candidate in candidates
                 if candidate["counts"] == smaller), validated,
            ("pools", "pools_text", "counts", f"{label}_ms", "slo_attained",
             "slo_violation_rate", "throughput_rps"),
            measure=measure, name=name, cache=service_times.cache,
            progress=progress)
        boundary["stage_shrunk"] = neck
    frontier = _frontier(validated, cost_key, name)

    return {
        "config": {
            "rate": rate, "pipeline": pipeline.to_dict(),
            "slo_seconds": slo_seconds, "slo_percentile": slo_percentile,
            "targets": dict(sorted(kinds.items())),
            "max_replicas_per_stage": max_replicas_per_stage, "top_k": top_k,
            "policy": policy, "batch_size": batch_size, "timeout": timeout,
            "handoff_seconds": handoff_seconds,
            "dispatch_overhead_seconds": dispatch_overhead_seconds,
            "router": router, "duration": duration, "seed": seed,
            "margin": margin, "traffic": traffic.to_dict(),
            **({"stage_slo_seconds": dict(sorted(stage_slo_seconds.items()))}
               if stage_slo_seconds else {}),
        },
        "objectives": [cost_key, "slo_violation_rate"],
        "evaluated": len(candidates),
        "simulated": len(validated),
        "candidates": candidates,
        "validated": validated,
        "chosen": chosen,
        "boundary": boundary,
        "pareto_frontier": frontier,
        "cache": service_times.cache.stats().to_dict(),
    }


def _llm_measurements(report, *, slo_percentile: float, label: str,
                      ttft_slo_seconds: float, tpot_slo_seconds: float) -> dict:
    """The measured figures shared by validation and colocated reference."""

    ttft_ms = report.ttft.quantile(slo_percentile) * 1e3
    tpot_ms = report.tpot.quantile(slo_percentile) * 1e3
    return {
        "slo_attained": (ttft_ms <= ttft_slo_seconds * 1e3
                         and tpot_ms <= tpot_slo_seconds * 1e3),
        f"ttft_{label}_ms": ttft_ms,
        f"tpot_{label}_ms": tpot_ms,
        "ttft_attainment": report.llm["ttft_attainment"],
        "tpot_attainment": report.llm["tpot_attainment"],
        "slo_attainment": report.llm["slo_attainment"],
        "decode_tokens_per_second": report.llm["decode_tokens_per_second"],
        "throughput_rps": report.throughput_rps,
        "energy_per_request_mj": report.energy_per_request_joules * 1e3,
    }


def _measure_llm_split(candidate: dict, *, traffic, duration, seed,
                       prompt_tokens, output_tokens, prefill_chunk,
                       max_batch, kv, step_overhead_seconds, handoff_seconds,
                       ttft_slo_seconds, tpot_slo_seconds, percentiles,
                       slo_percentile, label, cache=None) -> dict:
    """Validate one ``plan_llm_capacity`` split in the simulator.

    Module-level so ``jobs=N`` can pickle it; same cache semantics as
    :func:`_measure_fleet`.
    """

    report = serve_llm(
        traffic, prefill_fleet=candidate["prefill_fleet"],
        decode_fleet=candidate["decode_fleet"], duration=duration,
        seed=seed, prompt_tokens=prompt_tokens,
        output_tokens=output_tokens, prefill_chunk=prefill_chunk,
        max_batch=max_batch, kv=kv,
        step_overhead_seconds=step_overhead_seconds,
        handoff_seconds=handoff_seconds,
        ttft_slo_seconds=ttft_slo_seconds,
        tpot_slo_seconds=tpot_slo_seconds,
        percentiles=percentiles, cache=cache)
    return {
        "prefill_fleet": candidate["prefill_fleet"],
        "decode_fleet": candidate["decode_fleet"],
        "replicas": candidate["replicas"],
        "prefill_replicas": candidate["prefill_replicas"],
        "decode_replicas": candidate["decode_replicas"],
        "area_mm2": candidate["area_mm2"],
        f"predicted_ttft_{label}_ms": candidate[f"predicted_ttft_{label}_ms"],
        "predicted_tpot_ms": candidate["predicted_tpot_ms"],
        **_llm_measurements(report, slo_percentile=slo_percentile,
                            label=label, ttft_slo_seconds=ttft_slo_seconds,
                            tpot_slo_seconds=tpot_slo_seconds),
    }


def plan_llm_capacity(rate: float, model: str, *,
                      ttft_slo_seconds: float, tpot_slo_seconds: float,
                      duration: float, slo_percentile: float = 0.95,
                      target: str = "vitality",
                      prompt_tokens: int = DEFAULT_PROMPT_TOKENS,
                      output_tokens: int = DEFAULT_OUTPUT_TOKENS,
                      prefill_chunk: int = DEFAULT_PREFILL_CHUNK,
                      max_batch: int = DEFAULT_MAX_BATCH,
                      kv: KVCacheConfig | None = None,
                      step_overhead_seconds: float = DEFAULT_STEP_OVERHEAD,
                      handoff_seconds: float = DEFAULT_HANDOFF_SECONDS,
                      max_replicas: int = 8, top_k: int = 3,
                      traffic: TrafficPattern | None = None,
                      seed: int = 0, margin: float = 1.25,
                      cache: ResultCache | None = None,
                      jobs: int | None = None,
                      progress: Callable[[str], None] | None = None
                      ) -> dict[str, object]:
    """Size a disaggregated LLM deployment against a TTFT+TPOT SLO pair.

    Enumerates every ``(prefill, decode)`` replica split of a single
    ``target`` kind with ``prefill + decode <= max_replicas``, prunes with
    the analytic pool model (:func:`estimate_llm_pools` — stability plus
    both predicted phase percentiles within ``margin * slo``), validates the
    ``top_k`` cheapest survivors through :func:`repro.serve.serve_llm`, and
    picks the cheapest split whose *measured* TTFT and TPOT percentiles meet
    their SLOs.  Survivors are ranked analytic-first (Pareto boundary under
    replica count and predicted TTFT ahead of dominated splits) and
    ``jobs`` > 1 fans the validation runs over a process pool, with the same
    cache caveat as :func:`plan_capacity`.  The payload also carries a
    ``colocated_reference``: the
    chosen split's total replica count run as one colocated continuous
    fleet, so the disaggregation benefit is visible in the same units.
    Deterministic for fixed arguments.
    """

    check_finite(rate=rate, duration=duration, margin=margin,
                 ttft_slo_seconds=ttft_slo_seconds,
                 tpot_slo_seconds=tpot_slo_seconds)
    check_finite(step_overhead_seconds=step_overhead_seconds,
                 handoff_seconds=handoff_seconds, allow_zero=True)
    check_fractions("slo_percentile", (slo_percentile, *DEFAULT_PERCENTILES))
    _check_search(jobs, prompt_tokens=prompt_tokens,
                  output_tokens=output_tokens, prefill_chunk=prefill_chunk,
                  max_batch=max_batch, max_replicas=max_replicas, top_k=top_k)
    if max_replicas < 2:
        raise ValueError(f"max_replicas must be >= 2 (one replica per pool), "
                         f"got {max_replicas}")
    kv = KVCacheConfig() if kv is None else kv
    cache = ResultCache() if cache is None else cache
    if traffic is None:
        traffic = PoissonTraffic(rate=rate, mix=WorkloadMix.of([model]))
    label = percentile_label(slo_percentile)
    percentiles = tuple(sorted(set(DEFAULT_PERCENTILES) | {slo_percentile}))
    area = target_area_mm2(ReplicaSpec.parse(target).target)

    candidates = []
    for prefill in range(1, max_replicas):
        for decode in range(1, max_replicas + 1 - prefill):
            estimate = estimate_llm_pools(
                f"{prefill}x{target}", f"{decode}x{target}", rate, model,
                prompt_tokens=prompt_tokens, output_tokens=output_tokens,
                prefill_chunk=prefill_chunk, max_batch=max_batch, kv=kv,
                step_overhead_seconds=step_overhead_seconds,
                percentiles=(slo_percentile,), cache=cache)
            ttft = estimate.predicted_ttft(slo_percentile)
            tpot = estimate.tpot_seconds
            feasible = (estimate.stable
                        and ttft is not None
                        and ttft <= ttft_slo_seconds * margin
                        and tpot is not None
                        and tpot <= tpot_slo_seconds * margin)
            candidates.append({
                "prefill_replicas": prefill,
                "decode_replicas": decode,
                "replicas": prefill + decode,
                "prefill_fleet": f"{prefill}x{target}",
                "decode_fleet": f"{decode}x{target}",
                "area_mm2": None if area is None
                            else area * (prefill + decode),
                f"predicted_ttft_{label}_ms":
                    None if ttft is None else ttft * 1e3,
                "predicted_tpot_ms": None if tpot is None else tpot * 1e3,
                "predicted_feasible": feasible,
                "analytic": estimate.to_dict(),
            })

    def cost(candidate: dict) -> tuple:
        return (candidate["replicas"],
                candidate["area_mm2"] if candidate["area_mm2"] is not None
                else float("inf"),
                candidate["decode_replicas"])

    measure = partial(_measure_llm_split, traffic=traffic, duration=duration,
                      seed=seed, prompt_tokens=prompt_tokens,
                      output_tokens=output_tokens,
                      prefill_chunk=prefill_chunk, max_batch=max_batch,
                      kv=kv, step_overhead_seconds=step_overhead_seconds,
                      handoff_seconds=handoff_seconds,
                      ttft_slo_seconds=ttft_slo_seconds,
                      tpot_slo_seconds=tpot_slo_seconds,
                      percentiles=percentiles, slo_percentile=slo_percentile,
                      label=label)
    validated, chosen = _search(
        candidates, rank_keys=["replicas", f"predicted_ttft_{label}_ms"],
        cost=cost, measure=measure,
        name=lambda split: f"{split['prefill_fleet']} + {split['decode_fleet']}",
        noun="split", top_k=top_k, jobs=jobs, cache=cache, duration=duration,
        progress=progress)

    colocated_reference = None
    if chosen is not None:
        _note(progress, f"measuring colocated reference "
                        f"{chosen['replicas']}x{target}")
        report = serve_llm(
            traffic, fleet=f"{chosen['replicas']}x{target}",
            duration=duration, seed=seed, prompt_tokens=prompt_tokens,
            output_tokens=output_tokens, prefill_chunk=prefill_chunk,
            max_batch=max_batch, kv=kv,
            step_overhead_seconds=step_overhead_seconds,
            ttft_slo_seconds=ttft_slo_seconds,
            tpot_slo_seconds=tpot_slo_seconds,
            percentiles=percentiles, cache=cache)
        colocated_reference = {
            "fleet": f"{chosen['replicas']}x{target}",
            **_llm_measurements(report, slo_percentile=slo_percentile,
                                label=label, ttft_slo_seconds=ttft_slo_seconds,
                                tpot_slo_seconds=tpot_slo_seconds),
        }

    return {
        "config": {
            "rate": rate, "model": model,
            "ttft_slo_seconds": ttft_slo_seconds,
            "tpot_slo_seconds": tpot_slo_seconds,
            "slo_percentile": slo_percentile, "target": target,
            "prompt_tokens": prompt_tokens, "output_tokens": output_tokens,
            "prefill_chunk": prefill_chunk, "max_batch": max_batch,
            "kv": kv.to_dict(),
            "step_overhead_seconds": step_overhead_seconds,
            "handoff_seconds": handoff_seconds,
            "max_replicas": max_replicas, "top_k": top_k,
            "duration": duration, "seed": seed, "margin": margin,
            "traffic": traffic.to_dict(),
        },
        "evaluated": len(candidates),
        "simulated": len(validated),
        "candidates": candidates,
        "validated": validated,
        "chosen": chosen,
        "colocated_reference": colocated_reference,
        "cache": cache.stats().to_dict(),
    }
