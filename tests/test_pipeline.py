"""Tests for multi-stage pipeline serving and tandem-queue planning.

The acceptance assertions of the pipeline subsystem live here:

* the spec grammar parses and validates at construction time, with errors
  naming the offending stage;
* ``serve_pipeline`` is bit-reproducible under a fixed seed (exact and
  streaming summaries, with and without per-stage autoscaling) and leaves
  the classic single-model report shape untouched;
* the tandem M/M/c composition lands within 15% of the discrete-event
  simulator on 2-stage and 3-stage reference pipelines, and names the
  bottleneck stage when a pool saturates;
* ``plan_pipeline_capacity``'s chosen pools meet the end-to-end SLO in
  simulation while the bottleneck-stage-minus-one boundary misses it.
"""

from __future__ import annotations

import json
import math

import pytest

from repro.cli import main
from repro.engine import ResultCache
from repro.experiments import get_experiment, list_experiments
from repro.experiments.pipeline_exps import rag_pipeline_study
from repro.plan import Autoscaler, estimate_pipeline, plan_pipeline_capacity
from repro.serve import (
    PipelineSpec,
    PipelineStage,
    PoissonTraffic,
    StageRoute,
    WorkloadMix,
    serve,
    serve_pipeline,
)

#: Arrival stream for pipeline runs (the mix's model is ignored — each stage
#: serves its own workload).
TRAFFIC = lambda rate: PoissonTraffic(rate=rate, mix=WorkloadMix.of(["deit-tiny"]))

#: Reference pipelines at operating points where both the utilization and the
#: mean-latency predictions are expected to track simulation within 15%
#: (moderate load; the exponential-wait tail bias grows past ~70% utilization).
TWO_STAGE = "two = encoder[tokens=128] -> gen:encoder[tokens=256]"
TWO_POOLS = {"encoder": "1xvitality", "gen": "2xvitality"}
THREE_STAGE = "rag = encoder[tokens=256] -> rerank:encoder[tokens=64] -> deit-tiny"
THREE_POOLS = {"encoder": "2xvitality", "rerank": "1xvitality",
               "deit-tiny": "1xvitality"}


# ------------------------------------------------------------ spec grammar


class TestPipelineSpec:
    def test_parse_arrow_grammar(self):
        spec = PipelineSpec.parse(
            "rag = encoder[tokens=512] -> rerank:encoder[tokens=128] -> deit-tiny")
        assert spec.name == "rag"
        assert spec.entry == "encoder"
        assert [stage.name for stage in spec.stages] == \
            ["encoder", "rerank", "deit-tiny"]
        assert spec.stage("rerank").model == "encoder[tokens=128]"
        # Linear chains: each stage routes to the next with probability 1.
        assert spec.stage("encoder").routes == (StageRoute("rerank", 1.0),)
        assert spec.stage("deit-tiny").routes == ()
        assert spec.stage("deit-tiny").exit_probability() == 1.0

    def test_parse_defaults_name_and_labels(self):
        spec = PipelineSpec.parse("encoder[tokens=128] -> deit-tiny")
        assert spec.name == "pipeline"
        # Labels default to the model's family name (knobs stripped).
        assert spec.entry == "encoder"

    def test_single_stage_pipeline(self):
        spec = PipelineSpec.parse("solo = deit-tiny")
        assert len(spec.stages) == 1
        assert spec.expected_handoffs() == 0.0

    def test_cascade_visit_ratios(self):
        spec = PipelineSpec.cascade("spec", "encoder[tokens=32]",
                                    "encoder[tokens=512]", acceptance_rate=0.7)
        ratios = spec.visit_ratios()
        assert ratios["draft"] == pytest.approx(1.0)
        assert ratios["verify"] == pytest.approx(0.3)
        assert spec.expected_handoffs() == pytest.approx(0.3)
        assert spec.stage("draft").exit_probability() == pytest.approx(0.7)

    def test_to_dict_round_trips_through_constructor(self):
        spec = PipelineSpec.cascade("spec", "encoder[tokens=32]",
                                    "encoder[tokens=512]", acceptance_rate=0.7)
        payload = spec.to_dict()
        rebuilt = PipelineSpec(
            payload["name"],
            tuple(PipelineStage(row["name"], row["model"],
                                tuple(StageRoute(route["to"], route["probability"])
                                      for route in row["routes"]))
                  for row in payload["stages"]),
            entry=payload["entry"])
        assert rebuilt.to_dict() == payload

    def test_unknown_model_error_names_the_stage(self):
        with pytest.raises(Exception, match=r"stage 'rerank'"):
            PipelineSpec.parse("rag = deit-tiny -> rerank:no-such-model")

    def test_bad_knob_error_names_the_stage(self):
        with pytest.raises(Exception, match=r"stage 'encoder'"):
            PipelineSpec.parse("rag = encoder[tokens=-4] -> deit-tiny")

    def test_duplicate_labels_rejected_with_hint(self):
        with pytest.raises(ValueError, match="label stages explicitly"):
            PipelineSpec.parse("encoder[tokens=512] -> encoder[tokens=128]")

    def test_route_probabilities_must_sum_to_one(self):
        with pytest.raises(ValueError, match="sum to 1"):
            PipelineSpec("bad", (
                PipelineStage("a", "deit-tiny",
                              routes=(StageRoute("b", 0.5),
                                      StageRoute(None, 0.2))),
                PipelineStage("b", "deit-tiny")), entry="a")

    def test_route_probability_must_be_positive(self):
        with pytest.raises(ValueError, match="positive"):
            PipelineStage("a", "deit-tiny",
                          routes=(StageRoute("b", -0.5),
                                  StageRoute(None, 1.5)))
            PipelineSpec("bad", (
                PipelineStage("a", "deit-tiny",
                              routes=(StageRoute(None, -0.5),
                                      StageRoute(None, 1.5))),), entry="a")

    def test_unknown_route_target_rejected(self):
        with pytest.raises(ValueError, match="unknown stage 'nowhere'"):
            PipelineSpec("bad", (
                PipelineStage("a", "deit-tiny",
                              routes=(StageRoute("nowhere", 1.0),)),),
                entry="a")

    def test_cycles_rejected(self):
        with pytest.raises(ValueError, match="routing cycle"):
            PipelineSpec("loop", (
                PipelineStage("a", "deit-tiny",
                              routes=(StageRoute("b", 1.0),)),
                PipelineStage("b", "deit-tiny",
                              routes=(StageRoute("a", 1.0),))), entry="a")

    def test_unreachable_stage_rejected(self):
        with pytest.raises(ValueError, match="unreachable"):
            PipelineSpec("bad", (
                PipelineStage("a", "deit-tiny"),
                PipelineStage("orphan", "deit-tiny")), entry="a")

    def test_bad_entry_and_empty_stage_rejected(self):
        with pytest.raises(ValueError, match="names no stage"):
            PipelineSpec("bad", (PipelineStage("a", "deit-tiny"),), entry="z")
        with pytest.raises(ValueError, match="empty stage"):
            PipelineSpec.parse("deit-tiny -> -> deit-tiny")

    def test_cascade_acceptance_rate_validated(self):
        with pytest.raises(ValueError, match="acceptance_rate"):
            PipelineSpec.cascade("bad", "deit-tiny", "deit-tiny",
                                 acceptance_rate=1.0)


# --------------------------------------------------------------- simulator


class TestServePipeline:
    def run(self, **kwargs):
        defaults = dict(duration=1.0, seed=0)
        defaults.update(kwargs)
        return serve_pipeline(TRAFFIC(120.0), THREE_STAGE, THREE_POOLS,
                              **defaults)

    def test_linear_chain_serves_every_request_through_every_stage(self):
        report = self.run()
        assert report.completed == report.offered > 0
        block = report.pipeline
        assert block["name"] == "rag"
        assert block["entry"] == "encoder"
        rows = {row["name"]: row for row in block["stages"]}
        assert set(rows) == {"encoder", "rerank", "deit-tiny"}
        # Every request visits every stage of a linear chain, paying two hops.
        for row in rows.values():
            assert row["requests"] == report.completed
            assert row["utilization"] > 0
            assert row["latency"]["mean"] > 0
        assert block["handoffs"] == 2 * report.completed
        # End-to-end latency covers the full traversal: at least the summed
        # stage means plus both handoff delays.
        stage_mean = sum(row["latency"]["mean"] for row in rows.values())
        assert report.latency.mean >= stage_mean
        assert report.latency.mean == pytest.approx(
            stage_mean + 2 * block["handoff_seconds"], rel=1e-9)

    def test_replica_reports_carry_stage_and_prefixed_names(self):
        report = self.run()
        stages = {replica.stage for replica in report.per_replica}
        assert stages == {"encoder", "rerank", "deit-tiny"}
        for replica in report.per_replica:
            assert replica.name.startswith(f"{replica.stage}/")

    def test_bit_reproducible_under_fixed_seed(self):
        assert self.run().to_json() == self.run().to_json()

    def test_streaming_summary_matches_exact(self):
        exact = self.run()
        streaming = self.run(summary="streaming")
        assert streaming.completed == exact.completed
        assert streaming.latency.count == exact.latency.count
        assert streaming.latency.mean == pytest.approx(exact.latency.mean,
                                                       rel=1e-9)
        assert streaming.to_json() == self.run(summary="streaming").to_json()
        rows = {row["name"]: row for row in streaming.pipeline["stages"]}
        exact_rows = {row["name"]: row for row in exact.pipeline["stages"]}
        for name, row in rows.items():
            assert row["requests"] == exact_rows[name]["requests"]
            assert row["latency"]["mean"] == pytest.approx(
                exact_rows[name]["latency"]["mean"], rel=1e-9)

    def test_cascade_routing_matches_seeded_acceptance_rate(self):
        cascade = PipelineSpec.cascade("spec", "encoder[tokens=32]",
                                       "encoder[tokens=512]",
                                       acceptance_rate=0.7)
        report = serve_pipeline(
            TRAFFIC(200.0), cascade,
            {"draft": "1xvitality", "verify": "2xvitality"},
            duration=2.0, seed=0)
        rows = {row["name"]: row for row in report.pipeline["stages"]}
        assert rows["draft"]["requests"] == report.completed
        escalated = rows["verify"]["requests"] / rows["draft"]["requests"]
        assert escalated == pytest.approx(0.3, abs=0.08)
        assert report.pipeline["handoffs"] == rows["verify"]["requests"]

    def test_per_stage_slos_reported(self):
        report = self.run(stage_slo_seconds={"encoder": 0.05,
                                             "deit-tiny": 1e-6})
        rows = {row["name"]: row for row in report.pipeline["stages"]}
        assert rows["encoder"]["slo_seconds"] == 0.05
        assert rows["encoder"]["slo_attainment"] == pytest.approx(1.0)
        assert rows["deit-tiny"]["slo_attainment"] == 0.0  # impossible SLO
        assert rows["rerank"]["slo_seconds"] is None
        assert rows["rerank"]["slo_attainment"] is None

    def test_per_stage_autoscaling_is_deterministic(self):
        def run():
            scaler = Autoscaler("utilization", "vitality", min_replicas=1,
                                max_replicas=3, interval=0.1,
                                provision_seconds=0.1)
            return serve_pipeline(
                TRAFFIC(250.0), TWO_STAGE,
                {"encoder": "1xvitality", "gen": "2xvitality"},
                duration=2.0, seed=0, autoscalers={"encoder": scaler})

        first, second = run(), run()
        assert first.to_json() == second.to_json()
        assert first.scale_events        # the saturated entry stage scaled up
        scaled = [replica for replica in first.per_replica
                  if replica.stage == "encoder"]
        assert len(scaled) > 1
        assert "autoscalers" in first.config

    def test_classic_serve_report_shape_is_unchanged(self):
        traffic = PoissonTraffic(rate=100.0, mix=WorkloadMix.of(["deit-tiny"]))
        report = serve(traffic, "1xvitality", "fifo", duration=0.5, seed=0)
        payload = json.loads(report.to_json())
        assert "pipeline" not in payload
        assert all("stage" not in replica for replica in payload["per_replica"])

    def test_validation_errors(self):
        with pytest.raises(ValueError, match="missing stages 'rerank'"):
            serve_pipeline(TRAFFIC(10.0), THREE_STAGE,
                           {"encoder": "1xvitality", "deit-tiny": "1xvitality"},
                           duration=0.1)
        with pytest.raises(ValueError, match="unknown stages 'typo'"):
            serve_pipeline(TRAFFIC(10.0), THREE_STAGE,
                           dict(THREE_POOLS, typo="1xvitality"), duration=0.1)
        with pytest.raises(ValueError, match="unknown stage 'typo'"):
            serve_pipeline(TRAFFIC(10.0), THREE_STAGE, THREE_POOLS,
                           duration=0.1, stage_slo_seconds={"typo": 0.1})
        with pytest.raises(ValueError, match="unknown stage 'typo'"):
            serve_pipeline(TRAFFIC(10.0), THREE_STAGE, THREE_POOLS,
                           duration=0.1,
                           autoscalers={"typo": Autoscaler(
                               "utilization", "vitality")})
        shared = Autoscaler("utilization", "vitality")
        with pytest.raises(ValueError, match="its own Autoscaler"):
            serve_pipeline(TRAFFIC(10.0), THREE_STAGE, THREE_POOLS,
                           duration=0.1,
                           autoscalers={"encoder": shared, "rerank": shared})
        with pytest.raises(ValueError, match="handoff_seconds"):
            serve_pipeline(TRAFFIC(10.0), THREE_STAGE, THREE_POOLS,
                           duration=0.1, handoff_seconds=-1.0)


class TestServeIsOneStagePipeline:
    """Differential oracle: :func:`serve` is the one-pool case of the kernel
    ``serve_pipeline`` runs, so one-stage pipeline traffic on the same fleet
    serves identically — every request, wait and replica figure."""

    FLEET = "2xvitality,1xgpu:taylor"

    @pytest.mark.parametrize("summary", ["exact", "streaming"])
    @pytest.mark.parametrize("policy", ["fifo", "size", "timeout"])
    def test_reports_agree(self, policy, summary):
        kwargs = dict(policy=policy, duration=2.0, seed=3, summary=summary)
        classic = serve(TRAFFIC(900.0), self.FLEET, **kwargs)
        staged = serve_pipeline(TRAFFIC(900.0), "one = deit-tiny",
                                {"deit-tiny": self.FLEET}, **kwargs)
        assert classic.offered == staged.offered > 0
        assert classic.completed == staged.completed == classic.offered
        assert classic.latency == staged.latency
        assert classic.queue_wait == staged.queue_wait

        def figures(report):
            return [(replica.busy_seconds, replica.energy_joules,
                     replica.batches, replica.requests)
                    for replica in report.per_replica]

        assert figures(classic) == figures(staged)


# ------------------------------------------------- tandem-queue estimator


class TestEstimatePipeline:
    def compare(self, pipeline, pools, rate):
        """(simulated report, analytic estimate) at one operating point."""

        report = serve_pipeline(TRAFFIC(rate), pipeline, pools, policy="fifo",
                                duration=4.0, seed=0)
        estimate = estimate_pipeline(pipeline, pools, rate, policy="fifo")
        return report, estimate

    def assert_within_15_percent(self, report, estimate):
        assert estimate.stable
        measured = {row["name"]: row for row in report.pipeline["stages"]}
        for name, _, stage_estimate in estimate.stages:
            assert stage_estimate.utilization == pytest.approx(
                measured[name]["utilization"], rel=0.15)
        assert estimate.mean_latency_seconds == pytest.approx(
            report.latency.mean, rel=0.15)

    def test_two_stage_within_15_percent_of_simulation(self):
        report, estimate = self.compare(TWO_STAGE, TWO_POOLS, 40.0)
        self.assert_within_15_percent(report, estimate)

    def test_three_stage_within_15_percent_of_simulation(self):
        report, estimate = self.compare(THREE_STAGE, THREE_POOLS, 40.0)
        self.assert_within_15_percent(report, estimate)

    def test_cascade_thins_downstream_rate(self):
        cascade = PipelineSpec.cascade("spec", "encoder[tokens=32]",
                                       "encoder[tokens=512]",
                                       acceptance_rate=0.7)
        estimate = estimate_pipeline(
            cascade, {"draft": "1xvitality", "verify": "1xvitality"}, 30.0)
        # The verify stage sees only the 30% of requests the draft escalates.
        draft = estimate.stage_estimate("draft")
        verify = estimate.stage_estimate("verify")
        assert verify.rate_rps == pytest.approx(0.3 * draft.rate_rps)
        assert estimate.expected_handoffs == pytest.approx(0.3)

    def test_unstable_stage_detected_and_named(self):
        estimate = estimate_pipeline(THREE_STAGE, THREE_POOLS, 400.0,
                                     policy="fifo")
        assert not estimate.stable
        assert "encoder" in estimate.unstable_stages
        assert estimate.bottleneck == "encoder"
        assert estimate.mean_latency_seconds is None
        assert estimate.predicted(0.99) is None

    def test_payload_round_trips_to_json(self):
        estimate = estimate_pipeline(TWO_STAGE, TWO_POOLS, 40.0)
        payload = json.loads(json.dumps(estimate.to_dict()))
        assert payload["pipeline"] == "two"
        assert [row["name"] for row in payload["stages"]] == ["encoder", "gen"]
        with pytest.raises(KeyError):
            estimate.stage_estimate("typo")

    def test_validation(self):
        with pytest.raises(ValueError, match="rate"):
            estimate_pipeline(TWO_STAGE, TWO_POOLS, 0.0)
        for rate in (math.nan, math.inf):
            with pytest.raises(ValueError, match="rate must be finite"):
                estimate_pipeline(TWO_STAGE, TWO_POOLS, rate)
        # Unchecked, a nan handoff gave stable=True with nan percentiles.
        with pytest.raises(ValueError, match="handoff_seconds must be finite"):
            estimate_pipeline(TWO_STAGE, TWO_POOLS, 10.0,
                              handoff_seconds=math.nan)
        with pytest.raises(ValueError, match="missing stages"):
            estimate_pipeline(TWO_STAGE, {"encoder": "1xvitality"}, 10.0)


# ------------------------------------------------------- capacity planning


class TestPlanPipelineCapacity:
    #: A rate that saturates one encoder replica's tail (~144 req/s capacity)
    #: but sits comfortably on two; deit-tiny never binds.
    SCENARIO = dict(rate=120.0, pipeline="plan2 = encoder[tokens=128] -> deit-tiny",
                    slo_seconds=0.02, duration=2.0, slo_percentile=0.95,
                    targets="vitality", max_replicas_per_stage=2,
                    policy="fifo", seed=0)

    def test_chosen_pools_meet_slo_and_bottleneck_minus_one_does_not(self):
        payload = plan_pipeline_capacity(**self.SCENARIO)
        chosen = payload["chosen"]
        assert chosen is not None
        assert chosen["slo_attained"]
        assert chosen["p95_ms"] <= 20.0
        boundary = payload["boundary"]
        assert boundary is not None
        assert not boundary["slo_attained"]
        assert boundary["p95_ms"] > 20.0
        # The boundary removes one replica from the chosen bottleneck stage.
        shrunk = boundary["stage_shrunk"]
        assert boundary["counts"][shrunk] == chosen["counts"][shrunk] - 1

    def test_analytic_prune_keeps_simulated_below_evaluated(self):
        payload = plan_pipeline_capacity(**self.SCENARIO)
        assert payload["evaluated"] == 4      # 2 counts x 2 stages
        assert payload["simulated"] < payload["evaluated"]
        assert len(payload["validated"]) <= payload["simulated"]

    def test_payload_is_json_and_deterministic(self):
        first = plan_pipeline_capacity(**self.SCENARIO)
        second = plan_pipeline_capacity(**self.SCENARIO)
        assert json.dumps(first) == json.dumps(second)

    def test_chosen_is_cheapest_attained_and_frontier_sorted(self):
        payload = plan_pipeline_capacity(**self.SCENARIO)
        attained = [candidate for candidate in payload["validated"]
                    if candidate["slo_attained"]]
        assert payload["chosen"]["area_mm2"] == min(
            candidate["area_mm2"] for candidate in attained)
        frontier = payload["pareto_frontier"]
        assert frontier
        costs = [point["area_mm2"] for point in frontier]
        assert costs == sorted(costs)

    def test_per_stage_targets_accepted(self):
        payload = plan_pipeline_capacity(
            rate=60.0, pipeline="mix = encoder[tokens=128] -> deit-tiny",
            slo_seconds=0.05, duration=1.0, slo_percentile=0.95,
            targets={"encoder": "vitality", "deit-tiny": "vitality"},
            max_replicas_per_stage=2, policy="fifo", seed=0)
        assert payload["chosen"] is not None
        assert payload["config"]["targets"] == {"encoder": "vitality",
                                                "deit-tiny": "vitality"}

    def test_validation(self):
        with pytest.raises(ValueError, match="slo_seconds"):
            plan_pipeline_capacity(10.0, TWO_STAGE, slo_seconds=0.0,
                                   duration=0.5)
        with pytest.raises(ValueError, match="max_replicas_per_stage"):
            plan_pipeline_capacity(10.0, TWO_STAGE, slo_seconds=0.1,
                                   duration=0.5, max_replicas_per_stage=0)
        with pytest.raises(ValueError, match="targets"):
            plan_pipeline_capacity(10.0, TWO_STAGE, slo_seconds=0.1,
                                   duration=0.5, targets={"encoder": "vitality"})

    @pytest.mark.parametrize("value", [math.nan, math.inf], ids=["nan", "inf"])
    @pytest.mark.parametrize("parameter", ["rate", "duration", "margin",
                                           "slo_seconds", "stage_slo_seconds",
                                           "slo_percentile",
                                           "dispatch_overhead_seconds",
                                           "handoff_seconds"])
    def test_non_finite_inputs_fail_before_the_search(self, parameter, value):
        cache = ResultCache()
        override = {"encoder": value} if parameter == "stage_slo_seconds" \
            else value
        with pytest.raises(ValueError, match=f"{parameter}.* must be finite"):
            plan_pipeline_capacity(
                **{**self.SCENARIO, "cache": cache, parameter: override})
        assert cache.stats().misses == 0


# ------------------------------------------------------------- experiment


class TestRagExperiment:
    def test_registered(self):
        assert "rag" in list_experiments()
        assert get_experiment("rag").paper_reference == "beyond the paper"

    def test_claims_hold(self):
        payload = rag_pipeline_study(quick=True)
        joint = payload["joint_vs_proportional"]
        # Claim (a): both sizings attain the e2e SLO; the joint plan does it
        # on strictly fewer replicas than uniform per-stage growth.
        assert joint["joint"]["slo_attained"]
        assert joint["proportional"]["slo_attained"]
        assert joint["joint"]["replicas"] < joint["proportional"]["replicas"]
        assert joint["replicas_saved"] >= 1
        cascade = payload["cascade_vs_monolithic"]
        # Claim (b): on the same two replicas and matched accuracy proxy the
        # cascade's mean latency beats monolithic large-model serving.
        assert cascade["cascade"]["replicas"] == \
            cascade["monolithic"]["replicas"]
        assert cascade["cascade"]["accuracy_proxy"] == \
            cascade["monolithic"]["accuracy_proxy"]
        assert cascade["cascade"]["mean_ms"] < cascade["monolithic"]["mean_ms"]
        assert cascade["mean_latency_speedup"] > 1.0
        assert cascade["cascade"]["escalation_rate"] == \
            pytest.approx(1.0 - cascade["acceptance_rate"], abs=0.1)
        # The whole payload is JSON-serialisable for `repro run rag --json`.
        json.dumps(payload)


# -------------------------------------------------------------------- CLI


class TestPipelineCLI:
    SERVE_ARGS = ["serve", "--rate", "60", "--duration", "1", "--quiet",
                  "--pipeline", "rag = encoder[tokens=128] -> deit-tiny",
                  "--pools", "encoder=1xvitality;deit-tiny=1xvitality"]

    def test_serve_pipeline_json(self, capsys):
        assert main(self.SERVE_ARGS + ["--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["completed"] > 0
        assert [row["name"] for row in payload["pipeline"]["stages"]] == \
            ["encoder", "deit-tiny"]
        assert payload["config"]["pipeline"]["name"] == "rag"

    def test_serve_pipeline_human_tables(self, capsys):
        assert main(self.SERVE_ARGS) == 0
        out = capsys.readouterr().out
        assert "| stage |" in out
        assert "encoder/vitality#0" in out
        assert "handoffs" in out

    def test_serve_pipeline_deterministic(self, capsys):
        assert main(self.SERVE_ARGS + ["--json"]) == 0
        first = capsys.readouterr().out
        assert main(self.SERVE_ARGS + ["--json"]) == 0
        assert capsys.readouterr().out == first

    def test_plan_pipeline_json(self, capsys):
        assert main(["plan", "--rate", "120", "--slo-ms", "20",
                     "--duration", "1", "--percentile", "95",
                     "--policy", "fifo", "--quiet", "--json",
                     "--pipeline", "plan2 = encoder[tokens=128] -> deit-tiny",
                     "--targets", "vitality", "--max-replicas", "2"]) == 0
        payload = json.loads(capsys.readouterr().out)
        chosen = payload["chosen"]
        assert chosen is not None
        assert chosen["pools"] == {"encoder": "2xvitality",
                                   "deit-tiny": "1xvitality"}
        assert payload["simulated"] < payload["evaluated"]

    def test_plan_pipeline_ignores_models(self, capsys):
        """Stages name their own workloads, so an empty --models is no
        error under --pipeline (it once failed with 'no workloads given')."""

        argv = ["plan", "--rate", "40", "--slo-ms", "40", "--duration", "0.5",
                "--quiet", "--json", "--max-replicas", "2",
                "--pipeline", "p = encoder[tokens=64] -> deit-tiny"]
        assert main(argv) == 0
        expected = capsys.readouterr().out
        assert main(argv + ["--models", ""]) == 0
        assert capsys.readouterr().out == expected
        assert main(argv[:-2] + ["--models", ""]) == 2
        assert capsys.readouterr().err == "error: no workloads given\n"

    def test_serve_pipeline_errors(self, capsys):
        assert main(self.SERVE_ARGS[:-2]) == 2        # --pools missing
        assert "--pools" in capsys.readouterr().err
        assert main(self.SERVE_ARGS + ["--llm"]) == 2
        assert "mutually exclusive" in capsys.readouterr().err
        assert main(self.SERVE_ARGS[:-1] + ["garbage"]) == 2
        assert "stage=value" in capsys.readouterr().err
        assert main(self.SERVE_ARGS + ["--stage-slo-ms", "encoder=abc"]) == 2
        assert capsys.readouterr().err == (
            "error: --stage-slo-ms values must be numbers, got 'encoder=abc'\n")
        bad_model = ["serve", "--rate", "10", "--duration", "0.2", "--quiet",
                     "--pipeline", "x = no-such -> deit-tiny",
                     "--pools", "a=1xvitality"]
        assert main(bad_model) == 2
        assert "stage 'no-such'" in capsys.readouterr().err
