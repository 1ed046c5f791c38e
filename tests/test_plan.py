"""Tests for repro.plan: queueing model, optimizer, autoscaling, determinism.

The acceptance assertions of the capacity-planning subsystem live here:

* the analytic utilization estimate lands within 15% of the discrete-event
  simulator on a reference scenario;
* the optimizer's chosen fleet meets the p99 SLO in simulation while the
  one-replica-smaller fleet does not;
* an autoscaled run meets the same SLO as a peak-sized static fleet while
  provisioning strictly fewer replica-seconds;
* ``repro plan`` / ``repro serve`` output is bit-identical across repeat
  runs under a fixed seed.
"""

from __future__ import annotations

import json
import math

import pytest

from repro.cli import main
from repro.engine import ResultCache
from repro.experiments.plan_exps import autoscale_study, capacity_planning
from repro.plan import (
    Autoscaler,
    QueueDepthScalePolicy,
    ScheduledScalePolicy,
    ServiceTimes,
    UtilizationScalePolicy,
    erlang_c,
    estimate_fleet,
    estimate_llm_pools,
    estimate_pipeline,
    make_scale_policy,
    plan_capacity,
    plan_llm_capacity,
    plan_pipeline_capacity,
)
from repro.serve import (
    DiurnalTraffic,
    PoissonTraffic,
    ReplicaSpec,
    TimeoutBatchPolicy,
    WorkloadMix,
    make_policy,
    serve,
)

MIX = WorkloadMix.of(["deit-tiny"])


class TestErlangC:
    def test_mm1_wait_probability_is_utilization(self):
        # For c=1 the Erlang C delay probability reduces to rho.
        for rho in (0.1, 0.5, 0.9):
            assert erlang_c(1, rho) == pytest.approx(rho)

    def test_mm2_known_value(self):
        # M/M/2 at rho=0.5 has P(wait) = 1/3 (textbook value).
        assert erlang_c(2, 1.0) == pytest.approx(1.0 / 3.0)

    def test_boundaries_and_validation(self):
        assert erlang_c(4, 0.0) == 0.0
        assert erlang_c(2, 2.0) == 1.0
        assert erlang_c(2, 5.0) == 1.0
        with pytest.raises(ValueError):
            erlang_c(0, 1.0)
        with pytest.raises(ValueError):
            erlang_c(2, -1.0)


class TestQueueingEstimate:
    def test_utilization_within_15_percent_of_simulation(self):
        """The acceptance criterion: the reference scenario's analytic
        steady-state utilization tracks the simulated value within 15%."""

        rate = 400.0
        estimate = estimate_fleet("1xvitality", rate, MIX, policy="fifo")
        report = serve(PoissonTraffic(rate=rate, mix=MIX), "1xvitality",
                       policy="fifo", duration=4.0, seed=0)
        simulated = sum(r.utilization for r in report.per_replica)
        assert simulated > 0.3                      # a meaningful load level
        assert abs(estimate.utilization - simulated) / simulated < 0.15

    def test_utilization_tracks_batched_policies_too(self):
        for policy, rate, replicas in (("timeout", 1200.0, 2),
                                       ("size", 2400.0, 2)):
            estimate = estimate_fleet(f"{replicas}xvitality", rate, MIX,
                                      policy=policy)
            report = serve(PoissonTraffic(rate=rate, mix=MIX),
                           f"{replicas}xvitality", policy=policy,
                           duration=4.0, seed=0)
            simulated = sum(r.utilization for r in report.per_replica) / replicas
            assert abs(estimate.utilization - simulated) / simulated < 0.15, policy

    def test_unstable_fleet_detected(self):
        estimate = estimate_fleet("1xvitality", 5000.0, MIX, policy="fifo")
        assert not estimate.stable
        assert estimate.utilization > 1.0
        assert estimate.predicted(0.99) is None
        assert estimate.mean_latency_seconds is None
        json.dumps(estimate.to_dict())              # no infinities leak out

    def test_throughput_ceiling_matches_saturated_simulation(self):
        estimate = estimate_fleet("1xvitality", 5000.0, MIX, policy="fifo")
        report = serve(PoissonTraffic(rate=5000.0, mix=MIX), "1xvitality",
                       policy="fifo", duration=1.0, seed=0)
        # Saturated: every request completes eventually, so completed/makespan
        # converges on the service ceiling.
        assert report.makespan > report.duration
        assert report.throughput_rps == \
            pytest.approx(estimate.throughput_ceiling_rps, rel=0.10)

    def test_service_times_shared_across_estimates(self):
        table = ServiceTimes()
        for count in (1, 2, 3):
            estimate_fleet(f"{count}xvitality", 400.0, MIX, policy="fifo",
                           service_times=table)
        # One engine simulation total: every fleet size reuses the
        # (deit-tiny, vitality, batch=1) result.
        assert table.cache.stats().misses == 1

    def test_batching_raises_predicted_throughput_ceiling(self):
        fifo = estimate_fleet("1xvitality", 400.0, MIX, policy="fifo")
        batched = estimate_fleet("1xvitality", 3000.0, MIX,
                                 policy=TimeoutBatchPolicy(max_batch=8))
        assert batched.effective_batch > 1
        assert batched.throughput_ceiling_rps > fifo.throughput_ceiling_rps

    def test_heterogeneous_fleet_and_mix_accepted(self):
        mixed = WorkloadMix.of(["deit-tiny", "levit-128"], weights=[1.0, 3.0])
        estimate = estimate_fleet("1xvitality,1xgpu:taylor", 100.0, mixed,
                                  policy="timeout")
        assert estimate.replicas == 2
        assert estimate.stable
        assert estimate.energy_per_request_joules > 0

    def test_validation(self):
        with pytest.raises(ValueError, match="rate"):
            estimate_fleet("1xvitality", 0.0, MIX)
        # Unchecked, a nan or inf rate returned an "unstable" estimate with
        # a nan or inf utilization instead of an error.
        for rate in (math.nan, math.inf):
            with pytest.raises(ValueError, match="rate must be finite"):
                estimate_fleet("1xvitality", rate, MIX)
        with pytest.raises(ValueError, match="unknown batching"):
            estimate_fleet("1xvitality", 10.0, MIX, policy="earliest-deadline")
        with pytest.raises(ValueError, match="dispatch_overhead"):
            ServiceTimes(dispatch_overhead_seconds=-1.0)
        with pytest.raises(ValueError,
                           match="dispatch_overhead_seconds must be finite"):
            ServiceTimes(dispatch_overhead_seconds=math.nan)
        with pytest.raises(KeyError, match="p75"):
            estimate_fleet("1xvitality", 10.0, MIX).predicted(0.75)

    @pytest.mark.parametrize("value", [1.0, math.nan, -0.1],
                             ids=["one", "nan", "negative"])
    @pytest.mark.parametrize("estimate", [
        lambda cache, percentiles: estimate_fleet(
            "1xvitality", 100.0, MIX, percentiles=percentiles,
            service_times=ServiceTimes(cache=cache)),
        lambda cache, percentiles: estimate_pipeline(
            "two = encoder[tokens=128] -> deit-tiny",
            {"encoder": "1xvitality", "deit-tiny": "1xvitality"}, 100.0,
            percentiles=percentiles, service_times=ServiceTimes(cache=cache)),
        lambda cache, percentiles: estimate_llm_pools(
            "1xvitality", "1xvitality", 10.0, "decoder",
            percentiles=percentiles, cache=cache),
    ], ids=["fleet", "pipeline", "llm"])
    def test_percentiles_are_checked_on_entry(self, estimate, value):
        """Unchecked, 1.0 died in the wait model with ``math domain
        error``, nan returned a ``"pnan"`` key and -0.1 a ``"p-10"`` one."""

        cache = ResultCache()
        with pytest.raises(ValueError, match=r"percentiles must be finite "
                                             r"and in \(0, 1\)"):
            estimate(cache, (0.5, value))
        assert cache.stats().hits + cache.stats().misses == 0

    def test_policy_is_a_built_instance_or_a_default_name(self):
        """Under a name the estimate batches at make_policy's defaults; the
        ``batch_size`` and ``timeout`` parameters that once fed the name
        path, unchecked (a nan timeout gave a stable fleet with a nan p99),
        are gone."""

        named = estimate_fleet("1xvitality", 3000.0, MIX, policy="timeout")
        built = estimate_fleet("1xvitality", 3000.0, MIX,
                               policy=make_policy("timeout"))
        assert named == built
        with pytest.raises(TypeError, match="timeout"):
            estimate_fleet("1xvitality", 100.0, MIX, policy="timeout",
                           timeout=math.nan)
        with pytest.raises(TypeError, match="batch_size"):
            estimate_pipeline("two = encoder[tokens=128] -> deit-tiny",
                              {"encoder": "1xvitality",
                               "deit-tiny": "1xvitality"}, 100.0,
                              batch_size=2.5)


class TestOptimizer:
    #: One shared search: rate saturating one vitality replica but not two.
    SCENARIO = dict(rate=1200.0, models=["deit-tiny"], slo_seconds=0.02,
                    duration=2.0, targets=("vitality",), max_replicas=4,
                    policy="fifo", seed=0)

    def test_chosen_fleet_meets_slo_and_one_smaller_does_not(self):
        """The acceptance criterion, directly: the optimizer's choice attains
        the p99 SLO in simulation, the next-smaller fleet misses it."""

        payload = plan_capacity(**self.SCENARIO)
        chosen = payload["chosen"]
        assert chosen is not None
        assert chosen["slo_attained"]
        assert chosen["p99_ms"] <= 20.0
        boundary = payload["boundary"]
        assert boundary is not None
        assert boundary["fleet"] == f"{chosen['replicas'] - 1}x{chosen['kind']}"
        assert not boundary["slo_attained"]
        assert boundary["p99_ms"] > 20.0

    def test_analytic_prune_agrees_with_simulation_on_stability(self):
        payload = plan_capacity(**self.SCENARIO)
        by_fleet = {candidate["fleet"]: candidate
                    for candidate in payload["candidates"]}
        # 1xvitality is overloaded at 1200 req/s (capacity ~840): pruned
        # analytically, confirmed failing by the boundary simulation.
        assert not by_fleet["1xvitality"]["predicted_feasible"]
        assert by_fleet["2xvitality"]["predicted_feasible"]

    def test_chosen_is_cheapest_and_on_the_frontier(self):
        payload = plan_capacity(**self.SCENARIO)
        chosen = payload["chosen"]
        attained = [candidate for candidate in payload["validated"]
                    if candidate["slo_attained"]]
        assert chosen["area_mm2"] == min(c["area_mm2"] for c in attained)
        assert chosen["pareto"]
        frontier = payload["pareto_frontier"]
        assert frontier
        costs = [point["area_mm2"] for point in frontier]
        assert costs == sorted(costs)

    def test_payload_is_json_and_deterministic(self):
        first = plan_capacity(**self.SCENARIO)
        second = plan_capacity(**self.SCENARIO)
        assert json.dumps(first) == json.dumps(second)

    def test_no_feasible_candidate_reports_empty_choice(self):
        payload = plan_capacity(rate=5000.0, models=["deit-tiny"],
                                slo_seconds=0.005, duration=0.5,
                                targets=("vitality",), max_replicas=1,
                                policy="fifo", seed=0)
        assert payload["chosen"] is None
        assert payload["validated"] == []
        assert payload["pareto_frontier"] == []

    def test_platform_targets_fall_back_to_energy_cost(self):
        payload = plan_capacity(rate=40.0, models=["deit-tiny"],
                                slo_seconds=0.2, duration=1.0,
                                targets=("gpu:taylor",), max_replicas=2,
                                top_k=1, policy="fifo", seed=0)
        assert payload["objectives"][0] == "energy_per_request_mj"
        assert all(candidate["area_mm2"] is None
                   for candidate in payload["candidates"])

    def test_validation(self):
        with pytest.raises(ValueError, match="slo_seconds"):
            plan_capacity(100.0, ["deit-tiny"], slo_seconds=0.0, duration=1.0)
        with pytest.raises(ValueError, match="max_replicas"):
            plan_capacity(100.0, ["deit-tiny"], slo_seconds=0.1, duration=1.0,
                          max_replicas=0)
        with pytest.raises(ValueError, match="target kind"):
            plan_capacity(100.0, ["deit-tiny"], slo_seconds=0.1, duration=1.0,
                          targets=())
        with pytest.raises(KeyError):
            plan_capacity(100.0, ["deit-tiny"], slo_seconds=0.1, duration=1.0,
                          targets=("tpu",))

    @pytest.mark.parametrize("planner, simulator, kwargs", [
        (plan_capacity, "serve", dict(rate=600.0, models=["deit-tiny"])),
        (plan_pipeline_capacity, "serve_pipeline", dict(
            rate=120.0, pipeline="plan2 = encoder[tokens=128] -> deit-tiny",
            max_replicas_per_stage=2)),
    ], ids=["capacity", "pipeline"])
    def test_validation_runs_batch_as_requested(self, monkeypatch, planner,
                                                simulator, kwargs):
        """Unchecked, ``batch_size`` and ``timeout`` shaped only the
        analytic prune, and every validation run batched at the defaults."""

        from repro.plan import optimizer

        real, seen = getattr(optimizer, simulator), []

        def spy(*args, policy, **rest):
            seen.append(policy)
            return real(*args, policy=policy, **rest)

        monkeypatch.setattr(optimizer, simulator, spy)
        payload = planner(**kwargs, slo_seconds=0.05, duration=0.5,
                          batch_size=2, timeout=0.01, seed=0)
        expected = {"name": "timeout", "timeout": 0.01, "max_batch": 2}
        assert len(seen) >= payload["simulated"] > 0
        assert all(not isinstance(policy, str) and policy.to_dict() == expected
                   for policy in seen)
        config = payload["config"]
        assert (config["policy"], config["batch_size"], config["timeout"]) == \
            ("timeout", 2, 0.01)

    @pytest.mark.parametrize("value", [math.nan, math.inf], ids=["nan", "inf"])
    @pytest.mark.parametrize("parameter", ["rate", "duration", "margin",
                                           "slo_seconds", "slo_percentile",
                                           "dispatch_overhead_seconds"])
    def test_non_finite_inputs_fail_before_the_search(self, parameter, value):
        """Unchecked, a nan margin, SLO or dispatch overhead prunes every
        fleet and returns ``chosen: None`` without an error, and a bad
        duration surfaces only in the first validation run, after the whole
        analytic prune."""

        cache = ResultCache()
        with pytest.raises(ValueError, match=f"{parameter} must be finite"):
            plan_capacity(**{**self.SCENARIO, "cache": cache, parameter: value})
        assert cache.stats().misses == 0

    @pytest.mark.parametrize("value", [0.0, 1.0, 1.5, -0.5])
    @pytest.mark.parametrize("planner, kwargs", [
        (plan_capacity, dict(rate=1200.0, models=["deit-tiny"],
                             slo_seconds=0.02, duration=1.0)),
        (plan_pipeline_capacity, dict(
            rate=120.0, pipeline="plan2 = encoder[tokens=128] -> deit-tiny",
            slo_seconds=0.02, duration=1.0)),
        (plan_llm_capacity, dict(rate=8.0, model="decoder",
                                 ttft_slo_seconds=0.2, tpot_slo_seconds=0.01,
                                 duration=1.0)),
    ], ids=["capacity", "pipeline", "llm"])
    def test_slo_percentile_outside_the_unit_interval_fails_first(
            self, planner, kwargs, value):
        """Unchecked, 1.0 and above died in the analytic estimators with
        ``math domain error``, and 0.0 broke the LLM planner's payload."""

        cache = ResultCache()
        with pytest.raises(ValueError, match=r"slo_percentile must be finite "
                                             r"and in \(0, 1\)"):
            planner(**kwargs, slo_percentile=value, cache=cache)
        assert cache.stats().misses == 0

    @pytest.mark.parametrize("planner, kwargs", [
        (plan_capacity, dict(rate=1200.0, models=["deit-tiny"],
                             slo_seconds=0.02, duration=1.0)),
        (plan_pipeline_capacity, dict(
            rate=120.0, pipeline="plan2 = encoder[tokens=128] -> deit-tiny",
            slo_seconds=0.02, duration=1.0)),
        (plan_llm_capacity, dict(rate=8.0, model="decoder",
                                 ttft_slo_seconds=0.2, tpot_slo_seconds=0.01,
                                 duration=1.0)),
    ], ids=["capacity", "pipeline", "llm"])
    def test_slo_percentile_sharing_a_report_label_fails_first(
            self, planner, kwargs):
        """Validation reports carry the default percentiles plus the SLO's.
        Unchecked, 0.9900001 ran the search and its "p99" overwrote
        0.99's in every validation report."""

        cache = ResultCache()
        with pytest.raises(ValueError, match=r"slo_percentile 0\.9900001 and "
                                             r"0\.99 share the label 'p99'"):
            planner(**kwargs, slo_percentile=0.9900001, cache=cache)
        assert cache.stats().hits == cache.stats().misses == 0

    @pytest.mark.parametrize("jobs", [-1, 0, 2.5, math.nan, True],
                             ids=["minus-one", "zero", "2.5", "nan", "True"])
    @pytest.mark.parametrize("planner, kwargs", [
        (plan_capacity, dict(rate=1200.0, models=["deit-tiny"],
                             slo_seconds=0.02, max_replicas=3)),
        (plan_pipeline_capacity, dict(
            rate=120.0, pipeline="plan2 = encoder[tokens=128] -> deit-tiny",
            slo_seconds=0.02, max_replicas_per_stage=2)),
        (plan_llm_capacity, dict(rate=8.0, model="decoder",
                                 ttft_slo_seconds=0.2, tpot_slo_seconds=0.01,
                                 max_replicas=2)),
    ], ids=["capacity", "pipeline", "llm"])
    def test_jobs_must_be_a_count(self, planner, kwargs, jobs):
        """Unchecked, ``jobs=2.5`` died inside the pool with a TypeError,
        and -1, 0, nan and True silently validated serially.  Checked in
        the search driver, it still failed only after the analytic prune
        (4 engine misses and 119 hits for ``plan_capacity``); the planners
        now refuse it before any estimate."""

        notes, cache = [], ResultCache()
        with pytest.raises(ValueError, match=r"jobs must be None or an "
                                             r"integer >= 1, got"):
            planner(**kwargs, duration=0.5, jobs=jobs, progress=notes.append,
                    cache=cache)
        assert notes == []
        assert cache.stats().hits + cache.stats().misses == 0

    @pytest.mark.parametrize("planner, kwargs, argument", [
        (plan_capacity, dict(rate=1200.0, models=["deit-tiny"],
                             slo_seconds=0.02, top_k=2.5), "top_k"),
        (plan_capacity, dict(rate=1200.0, models=["deit-tiny"],
                             slo_seconds=0.02, max_replicas=2.5),
         "max_replicas"),
        (plan_capacity, dict(rate=1200.0, models=["deit-tiny"],
                             slo_seconds=0.02, max_replicas=math.nan),
         "max_replicas"),
        (plan_capacity, dict(rate=100.0, models=["deit-tiny"],
                             slo_seconds=0.05, router="nosuch"), "router"),
        (plan_pipeline_capacity, dict(
            rate=100.0, pipeline="p = encoder[tokens=128] -> deit-tiny",
            slo_seconds=0.05, max_replicas_per_stage=2.5),
         "max_replicas_per_stage"),
        (plan_pipeline_capacity, dict(
            rate=100.0, pipeline="p = encoder[tokens=128] -> deit-tiny",
            slo_seconds=0.05, router="nosuch"), "router"),
        (plan_pipeline_capacity, dict(
            rate=100.0, pipeline="p = encoder[tokens=128] -> deit-tiny",
            slo_seconds=0.05, stage_slo_seconds={"nosuch": 0.01}),
         "stage_slo_seconds"),
        (plan_llm_capacity, dict(rate=8.0, model="decoder",
                                 ttft_slo_seconds=0.2, tpot_slo_seconds=0.01,
                                 top_k=1.5), "top_k"),
        (plan_llm_capacity, dict(rate=8.0, model="decoder",
                                 ttft_slo_seconds=0.2, tpot_slo_seconds=0.01,
                                 max_replicas=2.5), "max_replicas"),
    ], ids=["capacity-top-k", "capacity-max-replicas",
            "capacity-nan-max-replicas", "capacity-router",
            "pipeline-max-replicas-per-stage", "pipeline-router",
            "pipeline-stage-slo-name", "llm-top-k", "llm-max-replicas"])
    def test_bad_search_arguments_fail_before_any_estimate(
            self, planner, kwargs, argument):
        """Unchecked, a fractional ``top_k`` died in the ranking with
        ``slice indices must be integers`` after the analytic prune, a
        fractional replica bound with ``'float' object cannot be interpreted
        as an integer``, and an unknown router or stage-SLO name only inside
        the first validation run."""

        cache = ResultCache()
        with pytest.raises(ValueError, match=argument):
            planner(**kwargs, duration=0.3, cache=cache)
        assert cache.stats().hits + cache.stats().misses == 0

    @pytest.mark.parametrize("jobs", ["-3", "0"])
    def test_plan_command_refuses_bad_jobs(self, jobs, capsys):
        assert main(["plan", "--rate", "600", "--duration", "0.5",
                     "--slo-ms", "20", "--max-replicas", "2",
                     f"--jobs={jobs}", "--json"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"jobs must be None or an integer >= 1, got {jobs}" \
            in captured.err


class TestAutoscaling:
    DIURNAL = dict(duration=4.0, seed=0)

    def _scaler(self, max_replicas=3):
        return Autoscaler("utilization", "vitality", min_replicas=1,
                          max_replicas=max_replicas, interval=0.1,
                          provision_seconds=0.2)

    def test_autoscaled_meets_slo_on_fewer_replica_seconds(self):
        """The acceptance criterion: same diurnal traffic, same SLO attained,
        strictly fewer provisioned replica-seconds than the peak-sized fleet."""

        slo = 0.03
        traffic = DiurnalTraffic(peak_rate=1200.0, mix=MIX, period=4.0)
        static = serve(traffic, "3xvitality", policy="fifo",
                       slo_seconds=slo, **self.DIURNAL)
        autoscaled = serve(traffic, "1xvitality", policy="fifo",
                           slo_seconds=slo, autoscaler=self._scaler(),
                           **self.DIURNAL)
        assert static.latency.p99 <= slo
        assert autoscaled.latency.p99 <= slo
        assert autoscaled.completed == autoscaled.offered == static.offered
        assert autoscaled.replica_seconds < static.replica_seconds
        assert static.replica_seconds == pytest.approx(3 * static.makespan)

    def test_autoscaled_run_is_deterministic(self):
        traffic = DiurnalTraffic(peak_rate=1200.0, mix=MIX, period=4.0)
        scaler = self._scaler()
        first = serve(traffic, "1xvitality", policy="fifo",
                      autoscaler=scaler, window_seconds=0.5, **self.DIURNAL)
        second = serve(traffic, "1xvitality", policy="fifo",
                       autoscaler=scaler, window_seconds=0.5, **self.DIURNAL)
        assert first.to_json() == second.to_json()
        assert first.scale_events                    # it actually scaled

    def test_scale_events_tell_a_consistent_story(self):
        traffic = DiurnalTraffic(peak_rate=1200.0, mix=MIX, period=4.0)
        report = serve(traffic, "1xvitality", policy="fifo",
                       autoscaler=self._scaler(), window_seconds=1.0,
                       **self.DIURNAL)
        actions = [event.action for event in report.scale_events]
        assert "scale-up" in actions and "online" in actions
        assert actions.count("scale-up") == actions.count("online")
        assert actions.count("drain") == actions.count("retired")
        times = [event.time for event in report.scale_events]
        assert times == sorted(times)
        # Windowed reporting makes the scale-up visible: the busiest window
        # runs more replicas than the first.
        assert report.windows is not None
        peak_window = max(report.windows, key=lambda w: w.arrivals)
        assert peak_window.mean_active_replicas > \
            report.windows[0].mean_active_replicas
        assert sum(window.completed for window in report.windows) == \
            report.completed

    def test_max_replicas_respected(self):
        traffic = PoissonTraffic(rate=5000.0, mix=MIX)
        report = serve(traffic, "1xvitality", policy="fifo",
                       autoscaler=self._scaler(max_replicas=2),
                       duration=2.0, seed=0)
        assert len(report.per_replica) <= 2

    def test_scheduled_policy_steps(self):
        scaler = Autoscaler(ScheduledScalePolicy(((0.0, 2), (1.0, 1))),
                            "vitality", min_replicas=1, max_replicas=2,
                            interval=0.25, provision_seconds=0.1)
        traffic = PoissonTraffic(rate=200.0, mix=MIX)
        report = serve(traffic, "1xvitality", policy="fifo",
                       autoscaler=scaler, duration=2.0, seed=0)
        actions = [event.action for event in report.scale_events]
        assert actions.count("online") == 1
        assert actions.count("retired") == 1
        retired = [replica for replica in report.per_replica
                   if replica.retired_at is not None]
        assert len(retired) == 1
        assert retired[0].retired_at >= 1.0

    def test_policy_construction_and_validation(self):
        assert make_scale_policy("utilization").name == "utilization"
        assert make_scale_policy("queue-depth", high=8.0).high == 8.0
        with pytest.raises(ValueError, match="unknown scaling"):
            make_scale_policy("predictive")
        with pytest.raises(ValueError):
            UtilizationScalePolicy(high=0.2, low=0.5)
        with pytest.raises(ValueError):
            QueueDepthScalePolicy(high=1.0, low=2.0)
        with pytest.raises(ValueError, match="sorted"):
            ScheduledScalePolicy(((1.0, 2), (0.5, 1)))
        with pytest.raises(ValueError, match="min_replicas"):
            Autoscaler("utilization", "vitality", min_replicas=0)
        with pytest.raises(ValueError, match="max_replicas"):
            Autoscaler("utilization", "vitality", min_replicas=3,
                       max_replicas=2)
        with pytest.raises(ValueError, match="interval"):
            Autoscaler("utilization", "vitality", interval=0.0)
        with pytest.raises(KeyError):
            Autoscaler("utilization", "tpu")
        assert Autoscaler("utilization",
                          ReplicaSpec("gpu", "taylor")).unit.label == "gpu:taylor"

    @pytest.mark.parametrize("kwargs, argument", [
        (dict(interval=math.nan), "interval"),
        (dict(interval=math.inf), "interval"),
        (dict(provision_seconds=math.inf), "provision_seconds"),
        (dict(provision_seconds=math.nan), "provision_seconds"),
        (dict(min_replicas=1.5), "min_replicas"),
        (dict(max_replicas=math.inf), "max_replicas"),
    ], ids=["nan-interval", "inf-interval", "inf-provision", "nan-provision",
            "fractional-min", "infinite-max"])
    def test_autoscaler_checks_its_inputs(self, kwargs, argument):
        """Unchecked, a nan interval never scheduled a scale check and an
        infinite one or provision delay echoed as non-JSON ``Infinity``."""

        with pytest.raises(ValueError, match=argument):
            Autoscaler("utilization", "vitality", **kwargs)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -1.0],
                             ids=["nan", "inf", "negative"])
    @pytest.mark.parametrize("argument", ["high", "low"])
    def test_queue_depth_bounds_must_be_finite(self, argument, value):
        """Unchecked, ``high=inf`` constructed and an autoscaled report
        echoed it as non-JSON ``Infinity``."""

        with pytest.raises(ValueError, match=f"{argument} must be finite"):
            QueueDepthScalePolicy(**{argument: value})
        assert QueueDepthScalePolicy(low=0.0).low == 0.0

    @pytest.mark.parametrize("steps", [[(math.nan, 2)], [(math.inf, 2)],
                                       [(0.0, 1), (1.0, 2.5)]],
                             ids=["nan-time", "inf-time", "fractional-count"])
    def test_schedule_checks_its_steps(self, steps):
        """Unchecked, a nan step time constructed and a count of 2.5 was
        truncated to 2."""

        with pytest.raises(ValueError, match=r"steps\[\d\]"):
            ScheduledScalePolicy(steps)

    @pytest.mark.parametrize("flags, argument", [
        (["--scale-interval-ms", "nan"], "interval"),
        (["--provision-ms", "inf"], "provision"),
    ], ids=["nan-interval", "inf-provision"])
    def test_serve_refuses_bad_autoscaler_flags(self, flags, argument, capsys):
        assert main(["serve", "--autoscale", "utilization", "--duration", "2",
                     *flags, "--json"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert argument in captured.err

    def test_serve_offers_only_the_policies_it_can_build(self, capsys):
        """``scheduled`` needs (time, count) steps no flag carries: offered
        anyway, it always failed with a TypeError about ``steps``."""

        with pytest.raises(SystemExit) as exit_:
            main(["serve", "--autoscale", "scheduled", "--duration", "1"])
        assert exit_.value.code == 2
        assert "invalid choice: 'scheduled'" in capsys.readouterr().err


class TestRegisteredExperiments:
    def test_capacity_experiment_payload(self):
        payload = capacity_planning(quick=True)
        assert payload["chosen"] is not None
        assert payload["chosen"]["slo_attained"]
        assert payload["boundary"] is not None
        assert not payload["boundary"]["slo_attained"]
        json.dumps(payload)

    def test_autoscale_experiment_payload(self):
        payload = autoscale_study(quick=True)
        assert payload["static"]["slo_attained"]
        assert payload["autoscaled"]["slo_attained"]
        assert payload["autoscaled"]["replica_seconds"] < \
            payload["static"]["replica_seconds"]
        assert payload["replica_seconds_saved"] > 0
        assert payload["autoscaled_scale_events"]
        json.dumps(payload)


class TestCLIDeterminism:
    PLAN_ARGS = ["plan", "--rate", "1100", "--duration", "1", "--slo-ms", "20",
                 "--targets", "vitality", "--max-replicas", "3",
                 "--policy", "fifo", "--json"]
    SERVE_ARGS = ["serve", "--rate", "300", "--duration", "1",
                  "--fleet", "1xvitality", "--policy", "fifo",
                  "--percentiles", "50,95,99,99.9", "--window-ms", "250",
                  "--autoscale", "utilization", "--scale-max", "2",
                  "--scale-interval-ms", "100", "--provision-ms", "100",
                  "--json"]

    def _run(self, argv, capsys) -> str:
        assert main(argv) == 0
        return capsys.readouterr().out

    def test_repro_plan_bit_identical_across_runs(self, capsys):
        first = self._run(self.PLAN_ARGS, capsys)
        second = self._run(self.PLAN_ARGS, capsys)
        assert first == second
        payload = json.loads(first)
        assert payload["chosen"]["fleet"] == "2xvitality"

    def test_repro_serve_autoscaled_bit_identical_across_runs(self, capsys):
        first = self._run(self.SERVE_ARGS, capsys)
        second = self._run(self.SERVE_ARGS, capsys)
        assert first == second
        payload = json.loads(first)
        assert "p99.9" in payload["latency"]
        assert "windows" in payload
        assert payload["config"]["autoscaler"]["policy"]["name"] == "utilization"
