"""Tests for LLM serving: continuous batching, KV accounting, disaggregation."""

from __future__ import annotations

import json
import math

import pytest

from repro.engine import ResultCache
from repro.plan import estimate_llm_pools, plan_llm_capacity
from repro.serve import (
    KVCacheConfig,
    PoissonTraffic,
    ReplayTraffic,
    Request,
    TokenDistribution,
    TokenProfile,
    WorkloadMix,
    serve,
    serve_llm,
)

MIX = WorkloadMix.of(["decoder"])
PAIR = WorkloadMix.of(["decoder", "decoder[layers=6]"],
                      tokens=TokenProfile.of("64:256", "16:64"))
#: serve_llm's token and size arguments; plan_llm_capacity forwards the first four.
COUNTS = ("prompt_tokens", "output_tokens", "prefill_chunk", "max_batch",
          "kv_bucket")


def _traffic(rate: float = 15.0, mix: WorkloadMix = MIX) -> PoissonTraffic:
    return PoissonTraffic(rate=rate, mix=mix)


class TestTokenProfiles:
    def test_distribution_grammar(self):
        assert TokenDistribution.parse("512") == TokenDistribution(512, 512)
        assert TokenDistribution.parse("64:256") == TokenDistribution(64, 256)
        assert TokenDistribution.parse(128).mean == 128.0
        with pytest.raises(ValueError):
            TokenDistribution.parse("256:64")

    def test_unprofiled_requests_carry_no_tokens(self):
        requests = _traffic().arrivals(2.0, seed=0)
        assert all(r.prompt_tokens is None and r.output_tokens is None
                   for r in requests)

    def test_profiled_requests_sample_in_range(self):
        mix = WorkloadMix.of(["decoder"],
                             tokens=TokenProfile.of("128:256", 32))
        requests = PoissonTraffic(rate=50.0, mix=mix).arrivals(2.0, seed=0)
        assert requests
        assert all(128 <= r.prompt_tokens <= 256 for r in requests)
        assert all(r.output_tokens == 32 for r in requests)
        assert len({r.prompt_tokens for r in requests}) > 1
        again = PoissonTraffic(rate=50.0, mix=mix).arrivals(2.0, seed=0)
        assert requests == again

    def test_profiles_do_not_disturb_unprofiled_arrivals(self):
        """Adding a profile must not shift the arrival sequence itself."""

        plain = _traffic(50.0).arrivals(2.0, seed=0)
        mix = WorkloadMix.of(["decoder"], tokens=TokenProfile.of(512, 64))
        profiled = PoissonTraffic(rate=50.0, mix=mix).arrivals(2.0, seed=0)
        assert [(r.arrival, r.model) for r in plain] == \
            [(r.arrival, r.model) for r in profiled]

    def test_replay_token_records(self):
        trace = ReplayTraffic.from_records(
            [[0.0, "decoder", 128, 8], [0.5, "decoder", 256, 4]])
        requests = trace.arrivals(1.0, seed=0)
        assert [(r.prompt_tokens, r.output_tokens) for r in requests] == \
            [(128, 8), (256, 4)]
        with pytest.raises(ValueError):
            ReplayTraffic.from_records([[0.0, "decoder", 128]])

    @pytest.mark.parametrize("tokens", [math.nan, 2.5, 64.0, 0, True],
                             ids=["nan", "fraction", "float", "zero", "bool"])
    def test_replay_rejects_non_integer_token_counts(self, tokens):
        """A nan prompt passed the old ``< 1`` check, never finished prefill
        and blocked every request queued behind it.  ``from_records`` once
        truncated counts with ``int()`` before the check saw them, serving a
        fractional count as a shorter request."""

        with pytest.raises(ValueError, match="trace token counts must be integers"):
            ReplayTraffic(((0.1, "decoder", tokens, 4), (0.2, "decoder", 64, 4)))
        with pytest.raises(ValueError, match="trace token counts must be integers"):
            ReplayTraffic.from_records([[0.1, "decoder", tokens, 4]])


class TestKVCache:
    def test_capacity_from_sram(self):
        from repro.workloads import get_workload
        kv = KVCacheConfig()
        per_token = kv.bytes_per_token(get_workload("decoder"))
        # decoder: 12 layers x 12 heads x (64 + 64) dims x 2 bytes.
        assert per_token == 12 * 12 * 128 * 2
        report = serve_llm(_traffic(2.0), fleet="1xvitality", duration=1.0,
                           prompt_tokens=64, output_tokens=4)
        expected = int(200 * 1024 * kv.dram_ratio // per_token)
        assert report.per_replica[0].kv_capacity_tokens == expected

    def test_admission_at_exactly_full_capacity(self):
        """A reservation equal to the remaining capacity must be admitted."""

        trace = ReplayTraffic.from_records([[0.0, "decoder", 96, 32]])
        report = serve_llm(trace, fleet="1xvitality", duration=1.0,
                           kv=KVCacheConfig(capacity_tokens=128))
        assert report.completed == 1
        assert report.per_replica[0].kv_peak_tokens == 128

    def test_oversized_request_is_a_clean_error(self):
        trace = ReplayTraffic.from_records([[0.0, "decoder", 256, 16]])
        with pytest.raises(ValueError, match="KV tokens"):
            serve_llm(trace, fleet="1xvitality", duration=1.0,
                      kv=KVCacheConfig(capacity_tokens=128))

    @pytest.mark.parametrize("summary", ["exact", "streaming"])
    def test_oversized_request_fails_when_it_arrives(self, summary):
        """Both summary modes check feasibility per arrival: the request
        ahead of the oversized one has already been simulated."""

        trace = ReplayTraffic.from_records(
            [[0.0, "decoder", 64, 4], [0.5, "decoder", 256, 16]])
        cache = ResultCache()
        with pytest.raises(ValueError, match=r"request 1 \('decoder'\) "
                                             r"needs 272 KV tokens"):
            serve_llm(trace, fleet="1xvitality", duration=1.0, cache=cache,
                      kv=KVCacheConfig(capacity_tokens=128), summary=summary)
        assert cache.stats().misses > 0

    def test_completion_unblocks_queued_request(self):
        """Two requests, capacity for one: the second must wait for the
        first's completion to free KV, then run to completion."""

        trace = ReplayTraffic.from_records(
            [[0.0, "decoder", 96, 16], [0.001, "decoder", 96, 16]])
        blocked = serve_llm(trace, fleet="1xvitality", duration=1.0,
                            kv=KVCacheConfig(capacity_tokens=128))
        ample = serve_llm(trace, fleet="1xvitality", duration=1.0,
                          kv=KVCacheConfig(capacity_tokens=4096))
        assert blocked.completed == ample.completed == 2
        assert blocked.per_replica[0].kv_peak_tokens <= 128
        # Under the tight cap the second request's admission waits for the
        # first's *completion* (its decode included), not just its prefill.
        assert blocked.queue_wait.max > ample.queue_wait.max + 0.005

    @pytest.mark.parametrize("value", [math.nan, math.inf, 0.0, -1.0],
                             ids=["nan", "inf", "zero", "negative"])
    @pytest.mark.parametrize("parameter", ["dram_ratio", "platform_sram_kb"])
    def test_bad_capacity_floats_rejected_at_construction(self, parameter,
                                                          value):
        """A nan or inf used to reach ``serve_llm``'s ``capacity_for`` and
        fail in an int conversion whose message named neither argument."""

        with pytest.raises(ValueError, match=f"{parameter} must be finite"):
            KVCacheConfig(**{parameter: value})

    @pytest.mark.parametrize("value", [math.nan, 600.5, 2.5e6, True, 0, -3],
                             ids=["nan", "fraction", "float", "bool", "zero",
                                  "negative"])
    @pytest.mark.parametrize("parameter", ["capacity_tokens",
                                           "bytes_per_value"])
    def test_non_integer_counts_rejected_at_construction(self, parameter,
                                                         value):
        """A nan capacity used to complete no request and export ``NaN``
        capacities, which is invalid JSON; a fractional one ran with a float
        capacity, a nan ``bytes_per_value`` died converting to an integer
        mid-run, a fractional one gave float KV bytes per token, and a bool
        passed as 1."""

        with pytest.raises(ValueError,
                           match=f"{parameter} must be an integer >= 1"):
            KVCacheConfig(**{parameter: value})

    def test_default_and_integer_counts_still_construct(self):
        assert KVCacheConfig().capacity_tokens is None
        config = KVCacheConfig(capacity_tokens=128, bytes_per_value=1)
        assert (config.capacity_tokens, config.bytes_per_value) == (128, 1)

    def test_kv_never_exceeds_capacity(self):
        report = serve_llm(_traffic(30.0), fleet="1xvitality", duration=2.0,
                           kv=KVCacheConfig(capacity_tokens=2048),
                           prompt_tokens=256, output_tokens=32)
        replica = report.per_replica[0]
        assert 0 < replica.kv_peak_tokens <= 2048


class TestServeLLM:
    def test_deterministic_reports(self):
        first = serve_llm(_traffic(), fleet="2xvitality", duration=2.0, seed=4)
        second = serve_llm(_traffic(), fleet="2xvitality", duration=2.0, seed=4)
        assert first.to_json() == second.to_json()

    def test_disaggregated_deterministic(self):
        kwargs = dict(prefill_fleet="1xvitality", decode_fleet="1xvitality",
                      duration=2.0, seed=4)
        first = serve_llm(_traffic(), **kwargs)
        second = serve_llm(_traffic(), **kwargs)
        assert first.to_json() == second.to_json()

    def test_routing_count_is_the_queued_prompt_sum(self, monkeypatch):
        """Disaggregated routing reads each prefill replica's queued prompt
        tokens as a running count; at every routing decision of an
        overloaded run it equals the sum over the queue it replaced."""

        from repro.serve.llm import LLMReplica

        running = LLMReplica.pending_prefill_tokens.fget
        decisions, depths = [], []

        def checked(replica):
            scanned = sum(request.prompt_tokens
                          for request in replica.prefill_queue)
            current = replica.current_prefill
            if current is not None:
                scanned += current.prompt_tokens - current.prefilled
            decisions.append(running(replica) == scanned)
            depths.append(len(replica.prefill_queue))
            return running(replica)

        monkeypatch.setattr(LLMReplica, "pending_prefill_tokens",
                            property(checked))
        mix = WorkloadMix.of(["decoder"],
                             tokens=TokenProfile.of("64:1024", "8:32"))
        report = serve_llm(_traffic(120.0, mix), prefill_fleet="2xvitality",
                           decode_fleet="1xvitality", duration=3.0, seed=3)
        assert report.completed == report.offered
        assert len(decisions) == 2 * report.offered and all(decisions)
        assert max(depths) > 20

    def test_every_request_served_with_roles(self):
        report = serve_llm(_traffic(), prefill_fleet="1xvitality",
                           decode_fleet="1xvitality", duration=2.0, seed=0)
        assert report.completed == report.offered > 0
        roles = {r.role for r in report.per_replica}
        assert roles == {"prefill", "decode"}
        decode = next(r for r in report.per_replica if r.role == "decode")
        prefill = next(r for r in report.per_replica if r.role == "prefill")
        assert decode.decode_steps > 0
        # Completions are recorded on the decode pool; the prefill pool only
        # runs prompt chunks.
        assert decode.requests == report.completed
        assert prefill.requests == 0 and prefill.decode_steps == 0

    def test_ttft_and_tpot_sanity(self):
        report = serve_llm(_traffic(2.0), fleet="1xvitality", duration=2.0,
                           prompt_tokens=512, output_tokens=16)
        # TTFT covers at least the prefill compute (512 tokens ~ 26ms on
        # vitality), TPOT at least one decode step (~1ms), both well under
        # a second at this trivial load.
        assert 0.02 < report.ttft.mean < 0.2
        assert 5e-4 < report.tpot.mean < 0.05
        assert report.llm["generated_tokens"] == report.completed * 15
        assert report.llm["prefill_tokens"] == report.offered * 512

    def test_continuous_beats_monolithic_decode_throughput(self):
        cache = ResultCache(max_entries=4096)
        mix = WorkloadMix.of(["decoder"],
                             tokens=TokenProfile.of(256, "16:128"))
        traffic = PoissonTraffic(rate=40.0, mix=mix)
        rates = {}
        for scheduler in ("continuous", "monolithic"):
            report = serve_llm(traffic, fleet="2xvitality", duration=2.0,
                               seed=0, scheduler=scheduler, cache=cache)
            rates[scheduler] = report.llm["decode_tokens_per_second"]
        assert rates["continuous"] > rates["monolithic"]

    def test_monolithic_rejects_disaggregated_fleets(self):
        with pytest.raises(ValueError, match="monolithic"):
            serve_llm(_traffic(), prefill_fleet="1xvitality",
                      decode_fleet="1xvitality", scheduler="monolithic",
                      duration=1.0)

    def test_fleet_arguments_are_exclusive(self):
        with pytest.raises(ValueError):
            serve_llm(_traffic(), fleet="1xvitality",
                      prefill_fleet="1xvitality", decode_fleet="1xvitality",
                      duration=1.0)
        with pytest.raises(ValueError):
            serve_llm(_traffic(), duration=1.0)

    def test_non_sequence_model_is_rejected(self):
        traffic = PoissonTraffic(rate=5.0, mix=WorkloadMix.of(["deit-tiny"]))
        with pytest.raises(ValueError, match="sequence-family"):
            serve_llm(traffic, fleet="1xvitality", duration=1.0)

    @pytest.mark.parametrize("value", [math.nan, 2.5, 0, True],
                             ids=["nan", "fraction", "zero", "bool"])
    @pytest.mark.parametrize("parameter", COUNTS)
    def test_bad_counts_fail_before_any_engine_call(self, parameter, value):
        """A nan prompt completed no request, a fractional chunk failed
        mid-run on an unnamed knob, and a fractional output ran silently."""

        cache = ResultCache()
        with pytest.raises(ValueError,
                           match=f"{parameter} must be an integer >= 1"):
            serve_llm(_traffic(30.0), fleet="2xvitality", duration=1.0,
                      cache=cache, **{parameter: value})
        assert cache.stats().hits + cache.stats().misses == 0

    def test_request_tokens_from_any_pattern_must_be_integers(self):
        """A pattern other than the built-in ones can still hand over a
        fractional count; the request built from it is checked too."""

        class Fractional:
            def arrivals(self, duration, seed):
                return [Request(0, "decoder", 0.1, prompt_tokens=2.5,
                                output_tokens=4)]

        cache = ResultCache()
        with pytest.raises(ValueError, match="request 0 needs integer"):
            serve_llm(Fractional(), fleet="1xvitality", duration=1.0,
                      cache=cache)
        assert cache.stats().hits + cache.stats().misses == 0

    @pytest.mark.parametrize("summary", ["exact", "streaming"])
    @pytest.mark.parametrize("scheduler", ["continuous", "monolithic"])
    def test_nan_prompt_fails_under_every_scheduler(self, scheduler, summary):
        cache = ResultCache()
        with pytest.raises(ValueError, match="prompt_tokens must be an integer"):
            serve_llm(_traffic(30.0), fleet="2xvitality", duration=1.0,
                      scheduler=scheduler, summary=summary, cache=cache,
                      prompt_tokens=math.nan)
        assert cache.stats().hits + cache.stats().misses == 0

    @pytest.mark.parametrize("fleets", [
        dict(fleet="1xvitality,1xgpu:taylor"),
        dict(fleet="1xvitality,1xgpu:taylor", scheduler="monolithic"),
        dict(prefill_fleet="1xvitality", decode_fleet="1xgpu:taylor"),
    ], ids=["continuous", "monolithic", "disaggregated"])
    def test_each_iteration_shape_builds_one_spec(self, engine_calls, fleets):
        """Each distinct shape is resolved once per run, and every prefill
        chunk and decode step still makes its own cache lookup, with equal
        shapes sharing one spec object: one per cache miss."""

        import repro.serve.llm as llm

        engine_calls.watch(llm)
        cache = ResultCache()
        report = serve_llm(_traffic(30.0, PAIR), duration=2.0, seed=5,
                           cache=cache, **fleets)
        stats = cache.stats()
        resolved, lookups = engine_calls.resolved, engine_calls.lookups
        assert len(resolved) == len(set(resolved)) == stats.misses > 1
        assert len({id(spec) for spec in lookups}) == len(set(lookups)) \
            == stats.misses
        dispatches = sum(replica.batches for replica in report.per_replica)
        assert len(lookups) == stats.hits + stats.misses == dispatches

    def test_classic_report_shape_unchanged(self):
        """The additive LLM fields must not leak into classic serve JSON."""

        report = serve(_traffic(5.0), "1xvitality", duration=1.0, seed=0)
        payload = json.loads(report.to_json())
        assert "ttft" not in payload and "tpot" not in payload
        assert "llm" not in payload
        assert all("role" not in replica for replica in payload["per_replica"])
        assert "ttft_p95_ms" not in report.summary_row()

    def test_llm_report_json_round_trip(self):
        report = serve_llm(_traffic(), fleet="1xvitality", duration=1.0, seed=0)
        payload = json.loads(report.to_json())
        assert payload["llm"]["scheduler"] == "continuous"
        assert payload["ttft"]["count"] == report.completed
        assert payload["per_replica"][0]["role"] == "unified"


class TestLLMPlanning:
    def test_estimate_llm_pools(self):
        estimate = estimate_llm_pools("2xvitality", "1xvitality", 10.0,
                                      "decoder", prompt_tokens=512,
                                      output_tokens=64)
        assert estimate.prefill_stable
        assert estimate.prefill_service_seconds > 0.01
        assert estimate.predicted_ttft(0.95) >= estimate.prefill_service_seconds
        assert 1 <= estimate.decode_batch <= estimate.decode_concurrency_cap
        payload = estimate.to_dict()
        assert payload["stable"] == estimate.stable

    def test_estimate_overload_is_unstable(self):
        estimate = estimate_llm_pools("1xvitality", "1xvitality", 500.0,
                                      "decoder")
        assert not estimate.stable
        assert estimate.ttft_mean_seconds is None or estimate.tpot_seconds is None

    @pytest.mark.parametrize("value", [math.nan, math.inf], ids=["nan", "inf"])
    @pytest.mark.parametrize("parameter", ["rate", "step_overhead_seconds"])
    def test_estimate_llm_pools_rejects_non_finite_inputs(self, parameter,
                                                          value):
        """Unchecked, a nan or inf rate returned an "unstable" estimate and
        a nan step overhead priced every iteration at nan."""

        cache = ResultCache()
        kwargs = dict(rate=10.0, step_overhead_seconds=2e-4, cache=cache)
        with pytest.raises(ValueError, match=f"{parameter} must be finite"):
            estimate_llm_pools("1xvitality", "1xvitality", model="decoder",
                               **{**kwargs, parameter: value})
        assert cache.stats().misses == 0

    @pytest.mark.parametrize("value", [math.nan, math.inf], ids=["nan", "inf"])
    @pytest.mark.parametrize("parameter", ["rate", "duration", "margin",
                                           "ttft_slo_seconds",
                                           "tpot_slo_seconds",
                                           "slo_percentile",
                                           "step_overhead_seconds",
                                           "handoff_seconds"])
    def test_plan_llm_capacity_rejects_non_finite_inputs(self, parameter,
                                                         value):
        cache = ResultCache()
        kwargs = dict(rate=8.0, model="decoder", ttft_slo_seconds=0.2,
                      tpot_slo_seconds=0.01, duration=1.0, max_replicas=4,
                      cache=cache)
        with pytest.raises(ValueError, match=f"{parameter} must be finite"):
            plan_llm_capacity(**{**kwargs, parameter: value})
        assert cache.stats().misses == 0

    @pytest.mark.parametrize("value", [math.nan, 2.5, 0, True],
                             ids=["nan", "fraction", "zero", "bool"])
    @pytest.mark.parametrize("parameter", COUNTS[:4])
    def test_plan_llm_capacity_rejects_bad_counts(self, parameter, value):
        """A nan prompt used to die in the search with ZeroDivisionError."""

        cache = ResultCache()
        with pytest.raises(ValueError,
                           match=f"{parameter} must be an integer >= 1"):
            plan_llm_capacity(8.0, "decoder", ttft_slo_seconds=0.2,
                              tpot_slo_seconds=0.01, duration=1.0,
                              max_replicas=4, cache=cache,
                              **{parameter: value})
        assert cache.stats().hits + cache.stats().misses == 0

    def test_plan_llm_capacity_chooses_and_validates(self):
        payload = plan_llm_capacity(
            8.0, "decoder", ttft_slo_seconds=0.2, tpot_slo_seconds=0.01,
            duration=1.0, max_replicas=4, top_k=1)
        assert payload["evaluated"] == 6       # splits of 2..4 replicas
        chosen = payload["chosen"]
        assert chosen is not None
        assert chosen["slo_attained"]
        reference = payload["colocated_reference"]
        assert reference["fleet"] == f"{chosen['replicas']}xvitality"
