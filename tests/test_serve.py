"""Tests for the serving simulator: traffic, batching, routing, determinism."""

from __future__ import annotations

import json
import math
from collections import deque

import pytest

from repro.cli import main
from repro.serve import (
    BATCH_POLICIES,
    BurstyTraffic,
    DiurnalTraffic,
    EnergyAwareRouter,
    FIFOPolicy,
    Fleet,
    PoissonTraffic,
    ReplayTraffic,
    Request,
    SizeBatchPolicy,
    TimeoutBatchPolicy,
    WorkloadMix,
    compare,
    make_policy,
    make_router,
    make_traffic,
    percentile,
    percentile_label,
    serve,
    serve_llm,
    serve_pipeline,
)

MIX = WorkloadMix.of(["deit-tiny"])
MIXED = WorkloadMix.of(["deit-tiny", "levit-128"], weights=[1.0, 1.0])


class TestTraffic:
    def test_poisson_rate_and_determinism(self):
        traffic = PoissonTraffic(rate=200.0, mix=MIX)
        first = traffic.arrivals(10.0, seed=1)
        second = traffic.arrivals(10.0, seed=1)
        assert first == second
        # Mean count is rate * duration; 2000 expected, sigma ~45.
        assert 1700 < len(first) < 2300
        assert all(0 <= r.arrival < 10.0 for r in first)
        assert [r.index for r in first] == list(range(len(first)))

    def test_different_seeds_differ(self):
        traffic = PoissonTraffic(rate=100.0, mix=MIX)
        assert traffic.arrivals(5.0, seed=0) != traffic.arrivals(5.0, seed=1)

    def test_mix_draws_every_model(self):
        traffic = PoissonTraffic(rate=500.0, mix=MIXED)
        models = {r.model for r in traffic.arrivals(2.0, seed=0)}
        assert models == {"deit-tiny", "levit-128"}

    def test_bursty_is_burstier_than_poisson(self):
        """Max arrivals in any 100ms window should exceed Poisson's under
        the same mean-ish rate."""

        def peak_window(requests, window=0.1):
            times = [r.arrival for r in requests]
            return max(sum(1 for t in times if start <= t < start + window)
                       for start in [w * window for w in range(100)])

        poisson = PoissonTraffic(rate=200.0, mix=MIX).arrivals(10.0, seed=3)
        bursty = BurstyTraffic(rate=200.0, mix=MIX).arrivals(10.0, seed=3)
        assert peak_window(bursty) > peak_window(poisson)

    def test_diurnal_peak_vs_trough(self):
        traffic = DiurnalTraffic(peak_rate=400.0, mix=MIX, period=10.0)
        assert traffic.rate_at(0.0) == pytest.approx(400.0 * traffic.floor)
        assert traffic.rate_at(5.0) == pytest.approx(400.0)
        requests = traffic.arrivals(10.0, seed=0)
        trough = sum(1 for r in requests if r.arrival < 1.0 or r.arrival >= 9.0)
        peak = sum(1 for r in requests if 4.0 <= r.arrival < 6.0)
        assert peak > 3 * trough

    def test_replay_orders_and_truncates(self):
        traffic = ReplayTraffic.from_records(
            [[0.5, "deit-tiny"], [0.1, "levit-128"], [9.0, "deit-tiny"]])
        requests = traffic.arrivals(1.0, seed=0)
        assert [(r.arrival, r.model) for r in requests] == \
               [(0.1, "levit-128"), (0.5, "deit-tiny")]

    @pytest.mark.parametrize("records, message", [
        ([1, 2, 3], "trace records must be .* got 1$"),
        (5, "replay trace must be a list of records, got 5$"),
        ([["x", "deit-tiny"]], r"trace records must be .* got \['x', 'deit-tiny'\]$"),
        ([[None, "deit-tiny"]], r"trace records must be .* got \[None, 'deit-tiny'\]$"),
        (["ab"], "got 'ab'$"),
    ], ids=["int-records", "not-a-list", "string-time", "null-time",
            "string-record"])
    def test_replay_rejects_malformed_records(self, records, message):
        """Each names the bad record, where the first three once failed
        with 'object of type 'int' has no len()', ''int' object is not
        iterable' and 'could not convert string to float: 'x''."""

        with pytest.raises(ValueError, match=message):
            ReplayTraffic.from_records(records)
        with pytest.raises(ValueError, match=message):
            make_traffic("replay", 1.0, ["deit-tiny"], trace=records)

    def test_mix_merges_duplicate_models(self):
        mix = WorkloadMix.of(["deit-tiny", "deit-tiny", "levit-128"],
                             weights=[1.0, 2.0, 3.0])
        assert mix.to_dict() == {"deit-tiny": 3.0, "levit-128": 3.0}

    def test_validation(self):
        with pytest.raises(ValueError, match="unknown workload"):
            WorkloadMix.of(["resnet-50"])
        with pytest.raises(ValueError, match="positive"):
            PoissonTraffic(rate=0.0, mix=MIX)
        with pytest.raises(ValueError, match="duration"):
            PoissonTraffic(rate=1.0, mix=MIX).arrivals(0.0, seed=0)
        with pytest.raises(ValueError, match="unknown traffic"):
            make_traffic("square-wave", 1.0, ["deit-tiny"])
        with pytest.raises(ValueError, match="trace"):
            make_traffic("replay", 1.0, ["deit-tiny"])


def _queued(*models: str, start: float = 0.0, step: float = 0.01):
    return deque(Request(index=i, model=m, arrival=start + i * step)
                 for i, m in enumerate(models))


class TestBatchingPolicies:
    def test_fifo_takes_one(self):
        queue = _queued("deit-tiny", "deit-tiny")
        batch = FIFOPolicy().take(queue, now=1.0, draining=False)
        assert [r.index for r in batch] == [0]
        assert len(queue) == 1

    def test_size_waits_below_threshold_then_fires(self):
        policy = SizeBatchPolicy(batch_size=3)
        queue = _queued("deit-tiny", "deit-tiny")
        assert policy.take(queue, now=1.0, draining=False) is None
        queue = _queued("deit-tiny", "deit-tiny", "deit-tiny", "deit-tiny")
        batch = policy.take(queue, now=1.0, draining=False)
        assert [r.index for r in batch] == [0, 1, 2]
        assert [r.index for r in queue] == [3]

    def test_size_flushes_partial_batch_on_drain(self):
        queue = _queued("deit-tiny")
        batch = SizeBatchPolicy(batch_size=8).take(queue, now=1.0, draining=True)
        assert len(batch) == 1 and not queue

    def test_batches_are_single_model(self):
        queue = _queued("deit-tiny", "levit-128", "deit-tiny")
        batch = SizeBatchPolicy(batch_size=2).take(queue, now=1.0, draining=False)
        assert [r.model for r in batch] == ["deit-tiny", "deit-tiny"]
        assert [r.model for r in queue] == ["levit-128"]

    def test_timeout_fires_on_oldest_wait(self):
        policy = TimeoutBatchPolicy(timeout=0.5, max_batch=8)
        queue = _queued("deit-tiny", "deit-tiny")
        assert policy.take(queue, now=0.4, draining=False) is None
        assert policy.deadline(queue) == pytest.approx(0.5)
        batch = policy.take(queue, now=0.5, draining=False)
        assert len(batch) == 2

    def test_timeout_fires_early_on_full_batch(self):
        policy = TimeoutBatchPolicy(timeout=10.0, max_batch=2)
        queue = _queued("deit-tiny", "deit-tiny", "deit-tiny")
        batch = policy.take(queue, now=0.0, draining=False)
        assert len(batch) == 2

    def test_make_policy_names(self):
        assert make_policy("fifo").name == "fifo"
        assert make_policy("size", batch_size=4).batch_size == 4
        assert make_policy("timeout", timeout=1e-3).timeout == 1e-3
        with pytest.raises(ValueError, match="unknown batching"):
            make_policy("earliest-deadline")


class TestFleet:
    def test_parse_counts_and_attention(self):
        fleet = Fleet.parse("2xvitality,1xgpu:taylor,sanger")
        labels = [replica.name for replica in fleet.replicas]
        assert labels == ["vitality#0", "vitality#1", "gpu:taylor#0", "sanger#0"]
        assert fleet.describe() == "2xvitality,1xgpu:taylor,1xsanger"

    def test_parse_rejects_unknown(self):
        with pytest.raises(KeyError):
            Fleet.parse("2xtpu")
        with pytest.raises(ValueError):
            Fleet.parse("")
        with pytest.raises(ValueError, match="attention"):
            Fleet.parse("1xgpu:softermax")

    def test_warmup_sweeps_share_builder_path(self):
        from repro.engine import ResultCache

        fleet = Fleet.parse("2xvitality,1xgpu:taylor,1xgpu:vanilla")
        sweeps = fleet.warmup_sweeps(["deit-tiny"], batch_sizes=(1, 4))
        specs = [spec for builder in sweeps for spec in builder.expand()]
        # 3 distinct (target, attention) kinds x 2 batch sizes; duplicates
        # from the two vitality replicas collapse.
        assert len(specs) == 6
        cache = ResultCache()
        fleet.warmup(["deit-tiny"], batch_sizes=(1, 4), cache=cache)
        assert cache.stats().misses == 6


class TestServeDeterminism:
    CONFIG = dict(duration=1.5, seed=7)

    def test_same_seed_bit_identical_report(self):
        traffic = BurstyTraffic(rate=150.0, mix=MIXED)
        first = serve(traffic, "2xvitality,1xgpu", policy="timeout", **self.CONFIG)
        second = serve(traffic, "2xvitality,1xgpu", policy="timeout", **self.CONFIG)
        assert first.to_json() == second.to_json()

    def test_different_seed_differs(self):
        traffic = PoissonTraffic(rate=150.0, mix=MIX)
        first = serve(traffic, "1xvitality", duration=1.0, seed=0)
        second = serve(traffic, "1xvitality", duration=1.0, seed=1)
        assert first.to_json() != second.to_json()

    def test_single_request_identical_across_schedulers(self):
        """The degenerate one-request run: every policy dispatches the lone
        request immediately (drain flush), so the reports agree exactly."""

        traffic = ReplayTraffic.from_records([[0.25, "deit-tiny"]])
        rows = {}
        for policy in ("fifo", "size", "timeout"):
            report = serve(traffic, "1xvitality", policy=policy,
                           duration=1.0, seed=0)
            rows[policy] = (report.completed, report.latency.to_dict(),
                            report.queue_wait.to_dict(),
                            report.total_energy_joules)
        assert rows["fifo"] == rows["size"] == rows["timeout"]
        assert rows["fifo"][0] == 1

    def test_matrix_traffic_x_policy_x_heterogeneous_fleet(self):
        """The acceptance matrix: 3 traffic patterns x 3 policies on a
        heterogeneous fleet, each cell deterministic and fully served."""

        patterns = {
            "poisson": PoissonTraffic(rate=80.0, mix=MIX),
            "bursty": BurstyTraffic(rate=80.0, mix=MIX),
            "diurnal": DiurnalTraffic(peak_rate=120.0, mix=MIX, period=1.0),
        }
        for name, traffic in patterns.items():
            for policy in ("fifo", "size", "timeout"):
                report = serve(traffic, "1xvitality,1xgpu", policy=policy,
                               duration=1.0, seed=2)
                again = serve(traffic, "1xvitality,1xgpu", policy=policy,
                              duration=1.0, seed=2)
                assert report.to_json() == again.to_json(), (name, policy)
                assert report.completed == report.offered > 0, (name, policy)
                assert report.latency.p50 <= report.latency.p95 <= \
                       report.latency.p99 <= report.latency.max
                assert report.throughput_rps > 0
                assert report.energy_per_request_joules > 0
                assert 0 <= report.slo_violation_rate <= 1


class TestServeBehavior:
    def test_all_requests_served_and_accounted(self):
        traffic = PoissonTraffic(rate=100.0, mix=MIXED)
        report = serve(traffic, "2xvitality", policy="size", duration=1.0, seed=0)
        assert report.completed == report.offered
        assert sum(r.requests for r in report.per_replica) == report.completed
        assert report.total_energy_joules == pytest.approx(
            sum(r.energy_joules for r in report.per_replica))

    def test_batching_amortises_dispatch_overhead(self):
        """Under saturating traffic, batching sustains more throughput than
        one-at-a-time dispatch because the per-dispatch overhead amortises."""

        traffic = PoissonTraffic(rate=2000.0, mix=MIX)
        fifo = serve(traffic, "1xvitality", policy="fifo", duration=0.5, seed=0)
        size = serve(traffic, "1xvitality", policy="size", duration=0.5, seed=0)
        assert size.mean_batch_size > 4
        assert size.throughput_rps > fifo.throughput_rps

    def test_timeout_bounds_size_policy_tail(self):
        traffic = PoissonTraffic(rate=100.0, mix=MIX)
        size = serve(traffic, "2xvitality", policy="size", duration=2.0, seed=0)
        timeout = serve(traffic, "2xvitality", policy="timeout", duration=2.0, seed=0)
        assert timeout.latency.p99 < size.latency.p99

    def test_taylor_fleet_outserves_vanilla_fleet(self):
        """The acceptance criterion, directly: identical saturating traffic,
        higher sustained throughput on the taylor-attention fleet."""

        traffic = PoissonTraffic(rate=600.0, mix=MIX)
        reports = compare(traffic, {"taylor": "2xvitality", "vanilla": "2xsanger"},
                          policy="timeout", duration=1.0, seed=0)
        assert (reports["taylor"].throughput_rps
                > 1.2 * reports["vanilla"].throughput_rps)
        assert (reports["taylor"].energy_per_request_joules
                < reports["vanilla"].energy_per_request_joules)

    def test_least_loaded_uses_whole_fleet(self):
        traffic = PoissonTraffic(rate=800.0, mix=MIX)
        report = serve(traffic, "2xvitality", router="least-loaded",
                       duration=1.0, seed=0)
        shares = [r.requests / report.completed for r in report.per_replica]
        assert min(shares) > 0.25

    def test_energy_aware_prefers_efficient_replicas(self):
        """At light load every request stays on the accelerator; the GPU
        replica only exists to absorb spills."""

        traffic = PoissonTraffic(rate=50.0, mix=MIX)
        report = serve(traffic, "1xvitality,1xgpu", router="energy-aware",
                       duration=1.0, seed=0)
        gpu = [r for r in report.per_replica if r.target == "gpu"][0]
        assert gpu.requests == 0
        assert make_router("energy-aware").name == "energy-aware"

    @pytest.mark.parametrize("slack", [math.nan, math.inf, -0.001],
                             ids=["nan", "inf", "negative"])
    def test_energy_aware_slack_must_be_finite(self, slack):
        """Unchecked, a nan slack constructed and every routing decision
        then found no eligible replica: the run died mid-way with
        ``min() arg is an empty sequence``."""

        for build in (lambda: EnergyAwareRouter(slack_seconds=slack),
                      lambda: make_router("energy-aware", slack_seconds=slack)):
            with pytest.raises(ValueError,
                               match="slack_seconds must be finite and >= 0"):
                build()
        assert EnergyAwareRouter(slack_seconds=0.0).slack_seconds == 0.0

    def test_serve_uses_bounded_cache_and_reports_it(self):
        traffic = PoissonTraffic(rate=200.0, mix=MIX)
        report = serve(traffic, "1xvitality", policy="size", duration=1.0, seed=0)
        assert report.cache.max_entries is not None
        assert report.cache.misses > 0
        assert report.cache.hits > report.cache.misses   # shapes are reused

    def test_json_round_trip(self):
        traffic = PoissonTraffic(rate=50.0, mix=MIX)
        report = serve(traffic, "1xvitality", duration=0.5, seed=0)
        payload = json.loads(report.to_json())
        assert payload["completed"] == report.completed
        assert payload["config"]["fleet"] == "1xvitality"
        assert payload["per_replica"][0]["name"] == "vitality#0"
        assert payload["cache"]["misses"] == report.cache.misses

    def test_invalid_arguments(self):
        traffic = PoissonTraffic(rate=10.0, mix=MIX)
        with pytest.raises(ValueError, match="slo_seconds"):
            serve(traffic, "1xvitality", duration=1.0, slo_seconds=0.0)
        with pytest.raises(ValueError, match="dispatch_overhead"):
            serve(traffic, "1xvitality", duration=1.0,
                  dispatch_overhead_seconds=-1.0)
        with pytest.raises(ValueError, match="unknown router"):
            serve(traffic, "1xvitality", router="round-robin", duration=1.0)


def _serve_run(rate=40.0, **overrides):
    return serve(PoissonTraffic(rate=rate, mix=MIX), "1xvitality",
                 **{"duration": 0.5, **overrides})


def _pipeline_run(rate=40.0, **overrides):
    return serve_pipeline(PoissonTraffic(rate=rate, mix=MIX),
                          "two = deit-tiny -> levit-128",
                          {"deit-tiny": "1xvitality", "levit-128": "1xvitality"},
                          **{"duration": 0.5, **overrides})


def _llm_run(rate=5.0, **overrides):
    return serve_llm(PoissonTraffic(rate=rate, mix=WorkloadMix.of(["decoder"])),
                     "1xvitality", **{"duration": 0.5, **overrides})


#: Every float run parameter of each simulator entry point.
_RUN_PARAMETERS = [
    pytest.param(run, parameter, id=f"{name}-{parameter}")
    for name, run, parameters in (
        ("serve", _serve_run, ("duration", "slo_seconds",
                               "dispatch_overhead_seconds", "window_seconds")),
        ("serve_pipeline", _pipeline_run, ("duration", "slo_seconds",
                                           "dispatch_overhead_seconds",
                                           "window_seconds", "handoff_seconds")),
        ("serve_llm", _llm_run, ("duration", "slo_seconds", "ttft_slo_seconds",
                                 "tpot_slo_seconds", "step_overhead_seconds",
                                 "handoff_seconds")),
    )
    for parameter in parameters
]


class TestNonFiniteRunParameters:
    """nan and inf fail at the entry point with the argument's name.
    Unchecked, ``duration=inf`` never returns, ``duration=nan`` serves
    nothing, a nan SLO is never violated and a nan overhead makes p99 nan."""

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf],
                             ids=["nan", "inf", "-inf"])
    @pytest.mark.parametrize("run, parameter", _RUN_PARAMETERS)
    def test_rejected_with_its_name(self, run, parameter, value):
        with pytest.raises(ValueError, match=f"{parameter} must be finite"):
            run(**{parameter: value})

    @pytest.mark.parametrize("summary", ["exact", "streaming"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, 0.0,
                                       1.0, 1.5],
                             ids=["nan", "inf", "-inf", "zero", "one", "1.5"])
    @pytest.mark.parametrize("run", [_serve_run, _pipeline_run, _llm_run],
                             ids=["serve", "serve_pipeline", "serve_llm"])
    def test_bad_percentiles_fail_before_any_simulation(self, run, value,
                                                        summary):
        """Unchecked, an exact-summary run simulated everything before
        ``percentile()`` rejected the fraction without naming the argument,
        and took 0 and 1, which a streaming run refused at construction."""

        from repro.engine import ResultCache

        cache = ResultCache()
        with pytest.raises(ValueError, match=r"percentiles must be finite "
                                             r"and in \(0, 1\)"):
            run(percentiles=(0.999, value), summary=summary, cache=cache)
        assert cache.stats().hits == cache.stats().misses == 0

    def test_streaming_infinite_duration_fails_fast(self):
        with pytest.raises(ValueError, match="duration must be finite"):
            _serve_run(duration=math.inf, summary="streaming")

    def test_stage_slo_names_its_stage(self):
        with pytest.raises(ValueError,
                           match=r"stage_slo_seconds\['levit-128'\] must be finite"):
            _pipeline_run(stage_slo_seconds={"levit-128": math.nan})

    def test_traffic_rejects_non_finite_duration(self):
        with pytest.raises(ValueError, match="duration must be finite"):
            PoissonTraffic(rate=10.0, mix=MIX).arrivals(math.nan, seed=0)

    @pytest.mark.parametrize("value", [math.nan, math.inf], ids=["nan", "inf"])
    @pytest.mark.parametrize("parameter, make", [
        ("rate", lambda value: PoissonTraffic(rate=value, mix=MIX)),
        ("rate", lambda value: BurstyTraffic(rate=value, mix=MIX)),
        ("mean_burst", lambda value: BurstyTraffic(rate=10.0, mix=MIX,
                                                   mean_burst=value)),
        ("peak_rate", lambda value: DiurnalTraffic(peak_rate=value, mix=MIX)),
        ("period", lambda value: DiurnalTraffic(peak_rate=10.0, mix=MIX,
                                                period=value)),
        ("trace time", lambda value: ReplayTraffic.from_records(
            [[value, "deit-tiny"]])),
    ], ids=["poisson", "bursty", "bursty-dwell", "diurnal-peak",
            "diurnal-period", "replay-time"])
    def test_traffic_rejects_non_finite_rates(self, parameter, make, value):
        """Unchecked, a nan rate generates no arrivals at all, and a nan or
        inf replay time silently drops its request."""

        with pytest.raises(ValueError, match=f"{parameter} must be finite"):
            make(value)

    @pytest.mark.parametrize("value", [math.nan, math.inf, 2.5, True, 0],
                             ids=["nan", "inf", "2.5", "True", "zero"])
    @pytest.mark.parametrize("parameter, make", [
        ("batch_size", lambda value: SizeBatchPolicy(batch_size=value)),
        ("max_batch", lambda value: TimeoutBatchPolicy(max_batch=value)),
    ], ids=["size", "timeout"])
    def test_batch_limits_must_be_counts(self, parameter, make, value):
        """Unchecked, a nan limit constructs and the run then fails with an
        IndexError on an empty batch, and a limit of 2.5 forms batches of 3."""

        with pytest.raises(ValueError, match=f"{parameter} must be an integer >= 1"):
            make(value)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -1e-3],
                             ids=["nan", "inf", "negative"])
    def test_batch_timeout_must_be_finite(self, value):
        """Unchecked, a nan or infinite timeout never fires: 50 rps on
        ``1xvitality`` read p99 269 ms against 3.9 ms at the default."""

        with pytest.raises(ValueError, match="timeout must be finite and >= 0"):
            TimeoutBatchPolicy(timeout=value)

    @pytest.mark.parametrize("name", BATCH_POLICIES)
    @pytest.mark.parametrize("parameter, value", [
        ("batch_size", math.nan), ("batch_size", 2.5), ("batch_size", 0),
        ("timeout", math.nan), ("timeout", math.inf), ("timeout", -1e-3),
    ], ids=["batch-nan", "batch-2.5", "batch-zero", "timeout-nan",
            "timeout-inf", "timeout-negative"])
    def test_make_policy_checks_both_knobs_under_every_name(self, name,
                                                            parameter, value):
        """Unchecked, ``fifo`` built with any knob values, and ``repro plan
        --policy fifo --timeout-ms nan`` echoed ``"timeout": NaN``, which is
        not valid JSON.  Under ``timeout``, a bad ``batch_size`` was
        reported as ``max_batch``."""

        bound = ("an integer >= 1" if parameter == "batch_size"
                 else "finite and >= 0")
        with pytest.raises(ValueError, match=f"{parameter} must be {bound}"):
            make_policy(name, **{parameter: value})

    def test_plan_refuses_a_nan_timeout_under_fifo(self, capsys):
        assert main(["plan", "--policy", "fifo", "--timeout-ms", "nan",
                     "--rate", "600", "--duration", "0.5", "--slo-ms", "20",
                     "--json"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "timeout must be finite" in captured.err

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf],
                             ids=["nan", "inf", "-inf"])
    def test_mix_weight_names_its_model(self, value):
        """Unchecked, a nan weight never wins a draw and an infinite one
        wins every draw, and the config echo prints non-JSON NaN."""

        with pytest.raises(ValueError, match="mix weight for 'deit-tiny' "
                                             "must be finite and positive"):
            WorkloadMix.of(["deit-tiny", "levit-128"], [value, 1.0])

    @pytest.mark.parametrize("command", [
        ["serve"], ["plan", "--slo-ms", "20", "--max-replicas", "2"]],
        ids=["serve", "plan"])
    @pytest.mark.parametrize("weight", ["nan", "inf", "-inf"])
    def test_commands_refuse_a_non_finite_weight(self, command, weight,
                                                 capsys):
        """Unchecked, both commands exited 0 and printed
        ``"deit-tiny": NaN``, and serve ran levit-128 only."""

        assert main([*command, "--models", "deit-tiny,levit-128",
                     f"--weights={weight},1", "--duration", "0.5",
                     "--rate", "50", "--json"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "mix weight for 'deit-tiny' must be finite" in captured.err

    @pytest.mark.parametrize("pattern", [PoissonTraffic, BurstyTraffic,
                                         DiurnalTraffic])
    def test_traffic_rejects_a_bare_model_name_as_mix(self, pattern):
        """Unchecked, a model name constructs and then fails mid-run with
        an AttributeError on ``draws_per_request``."""

        with pytest.raises(ValueError, match=r"mix must be a WorkloadMix, "
                                             r"got 'deit-tiny'.*"
                                             r"WorkloadMix\.of\(\[\.\.\.\]\)"):
            pattern(100.0, "deit-tiny")


class TestServeEdgeCases:
    """Corners the capacity search exercises: empty runs, hopeless SLOs,
    replica drain with work in flight."""

    def test_zero_arrival_run(self):
        traffic = ReplayTraffic(())
        report = serve(traffic, "2xvitality", duration=1.0, seed=0)
        assert report.offered == report.completed == 0
        assert report.throughput_rps == 0.0
        assert report.slo_violation_rate == 0.0
        assert report.energy_per_request_joules == 0.0
        assert report.latency.count == 0 and report.latency.p99 == 0.0
        assert report.makespan == 1.0
        assert report.replica_seconds == pytest.approx(2.0)
        json.loads(report.to_json())                 # still serialisable

    def test_zero_arrivals_in_window(self):
        """A trace with one early request leaves later windows empty."""

        traffic = ReplayTraffic.from_records([[0.1, "deit-tiny"]])
        report = serve(traffic, "1xvitality", duration=2.0, seed=0,
                       window_seconds=0.5)
        assert report.completed == 1
        assert [window.completed for window in report.windows][1:] == [0, 0, 0]
        assert sum(window.arrivals for window in report.windows) == 1

    def test_fleet_that_never_meets_the_slo(self):
        """An SLO below the bare service time: every request violates, yet
        the run still completes and reports cleanly."""

        traffic = PoissonTraffic(rate=50.0, mix=MIX)
        report = serve(traffic, "1xvitality", policy="fifo", duration=1.0,
                       seed=0, slo_seconds=1e-6)
        assert report.completed == report.offered > 0
        assert report.slo_violation_rate == 1.0
        assert report.latency.p50 > report.slo_seconds

    def test_overloaded_fleet_still_serves_everything(self):
        traffic = PoissonTraffic(rate=4000.0, mix=MIX)
        report = serve(traffic, "1xvitality", policy="fifo", duration=0.5,
                       seed=0)
        assert report.completed == report.offered
        assert report.makespan > report.duration     # the drain tail
        assert report.latency.max > report.queue_wait.p50 > 0

    def test_replica_drain_with_in_flight_batches(self):
        """Scale-down mid-run: the drained replica finishes its in-flight
        batch, flushes its queue, retires — and loses no requests."""

        from repro.plan import Autoscaler, ScheduledScalePolicy

        scaler = Autoscaler(ScheduledScalePolicy(((0.2, 1),)), "vitality",
                            min_replicas=1, max_replicas=2, interval=0.1,
                            provision_seconds=0.1)
        traffic = PoissonTraffic(rate=1500.0, mix=MIX)
        report = serve(traffic, "2xvitality", policy="size", duration=1.0,
                       seed=0, autoscaler=scaler)
        assert report.completed == report.offered
        retired = [replica for replica in report.per_replica
                   if replica.retired_at is not None]
        assert len(retired) == 1
        drain_time = next(event.time for event in report.scale_events
                          if event.action == "drain")
        # The drained replica was mid-batch or queued at 1500 req/s, so its
        # retirement strictly trails the drain decision.
        assert retired[0].retired_at > drain_time
        assert retired[0].requests > 0
        # After retirement it serves nothing: every completion on it precedes
        # (or coincides with) its retirement.
        assert retired[0].busy_seconds <= retired[0].retired_at

    def test_drained_replica_receives_no_new_requests(self):
        from repro.plan import Autoscaler, ScheduledScalePolicy

        scaler = Autoscaler(ScheduledScalePolicy(((0.5, 1),)), "vitality",
                            min_replicas=1, max_replicas=2, interval=0.25,
                            provision_seconds=0.1)
        traffic = ReplayTraffic.from_records(
            [[0.1, "deit-tiny"], [0.2, "deit-tiny"],
             [0.8, "deit-tiny"], [0.9, "deit-tiny"]])
        report = serve(traffic, "2xvitality", policy="fifo", duration=1.0,
                       seed=0, autoscaler=scaler)
        survivor = [replica for replica in report.per_replica
                    if replica.retired_at is None]
        # Both late arrivals land on the surviving replica.
        assert sum(replica.requests for replica in survivor) >= 2
        assert report.completed == 4

    def test_drained_replica_flushes_its_partial_batch(self):
        """A draining replica will see no further arrival, so it flushes
        its partial size batch at the drain instead of holding it until the
        last arrival's run-end flush at 0.9 s."""

        from repro.plan import Autoscaler, ScheduledScalePolicy

        scaler = Autoscaler(ScheduledScalePolicy(((0.5, 1),)), "vitality",
                            min_replicas=1, max_replicas=2, interval=0.25,
                            provision_seconds=0.1)
        traffic = ReplayTraffic.from_records(
            [[0.1, "deit-tiny"], [0.2, "deit-tiny"], [0.9, "deit-tiny"]])
        report = serve(traffic, "2xvitality", SizeBatchPolicy(batch_size=8),
                       duration=1.0, seed=0, autoscaler=scaler)
        retired = [replica for replica in report.per_replica
                   if replica.retired_at is not None]
        assert len(retired) == 1 and retired[0].requests == 1
        assert 0.5 < retired[0].retired_at < 0.9
        assert report.completed == 3


class TestConfigurablePercentiles:
    def test_default_json_shape_unchanged(self):
        summary = serve(PoissonTraffic(rate=50.0, mix=MIX), "1xvitality",
                        duration=0.5, seed=0).latency
        assert set(summary.to_dict()) == \
            {"count", "mean", "p50", "p95", "p99", "max"}

    @pytest.mark.parametrize("run, rate", [(_serve_run, 200.0),
                                           (_pipeline_run, 200.0),
                                           (_llm_run, 5.0)],
                             ids=["serve", "serve_pipeline", "serve_llm"])
    def test_extra_percentiles_ride_along(self, run, rate):
        report = run(rate=rate, duration=1.0, seed=0,
                     percentiles=(0.5, 0.95, 0.99, 0.999))
        payload = json.loads(report.to_json())
        assert "p99.9" in payload["latency"]
        assert report.latency.quantile(0.999) >= report.latency.p99
        assert report.latency.quantile(0.999) <= report.latency.max
        assert "p99.9_ms" in report.summary_row()
        # The kernel echoes non-default percentiles for every simulator.
        assert report.config["percentiles"] == [0.5, 0.95, 0.99, 0.999]

    @pytest.mark.parametrize("summary", ["exact", "streaming"])
    @pytest.mark.parametrize("first, second", [(0.99, 0.9900001),
                                               (0.5, 0.5000001),
                                               (0.999, 0.99900004)],
                             ids=["p99", "p50", "p99.9"])
    @pytest.mark.parametrize("run", [_serve_run, _pipeline_run, _llm_run],
                             ids=["serve", "serve_pipeline", "serve_llm"])
    def test_percentiles_sharing_a_label_fail_before_any_simulation(
            self, run, first, second, summary):
        """Labels are six significant digits of the percent, so two
        fractions can share one.  Unchecked, the report carried both under
        one key, and the second overwrote the first."""

        from repro.engine import ResultCache

        cache = ResultCache()
        with pytest.raises(ValueError) as error:
            run(percentiles=(first, 0.95, second), summary=summary,
                cache=cache)
        assert str(error.value) == (
            f"percentiles {first!r} and {second!r} share the label "
            f"{percentile_label(first)!r}")
        assert cache.stats().hits == cache.stats().misses == 0
        # The same fraction twice is one quantile, not a collision.
        assert run(percentiles=(first, first), summary=summary) \
            .latency.quantile(first) is not None

    def test_serve_cli_refuses_percentiles_sharing_a_label(self, capsys):
        assert main(["serve", "--percentiles", "50,95,99,99.00001",
                     "--duration", "1", "--rate", "200", "--json"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "percentiles 0.99 and 0.9900001 share the label 'p99'" \
            in captured.err

    def test_quantile_lookup_errors_on_missing(self):
        report = serve(PoissonTraffic(rate=50.0, mix=MIX), "1xvitality",
                       duration=0.5, seed=0)
        assert report.latency.quantile(0.99) == report.latency.p99
        with pytest.raises(KeyError, match="p99.9"):
            report.latency.quantile(0.999)

    def test_window_validation(self):
        with pytest.raises(ValueError, match="window_seconds"):
            serve(PoissonTraffic(rate=50.0, mix=MIX), "1xvitality",
                  duration=0.5, window_seconds=0.0)

    def test_per_model_summaries_carry_extra_percentiles(self):
        """Regression: per-model summaries used to drop the percentiles knob,
        so extra quantiles were reachable fleet-wide but not per model."""

        report = serve(PoissonTraffic(rate=200.0, mix=MIXED), "1xvitality",
                       duration=1.0, seed=0,
                       percentiles=(0.5, 0.95, 0.99, 0.999))
        assert report.per_model
        for model, summary in report.per_model:
            assert summary.quantile(0.999) >= summary.p99
            assert "p99.9" in summary.to_dict()


class TestMetrics:
    def test_percentile_nearest_rank(self):
        values = [10.0, 20.0, 30.0, 40.0, 50.0]
        assert percentile(values, 0.50) == 30.0
        assert percentile(values, 0.95) == 50.0
        assert percentile(values, 0.99) == 50.0
        assert percentile([7.0], 0.99) == 7.0
        with pytest.raises(ValueError):
            percentile([], 0.5)
        with pytest.raises(ValueError):
            percentile(values, 1.5)
