"""Tests for the workload IR and its configured-name grammar: knob
round-trips, canonicalisation equivalences, cache unification, the sequence
families (encoder/decoder/transformer), decode-phase op counts and the
seqscale experiment."""

from __future__ import annotations

import json

import pytest

from repro.attention.op_counting import (
    count_taylor_attention_ops,
    count_vanilla_attention_ops,
)
from repro.cli import main
from repro.engine import (
    DiskResultCache,
    ResultCache,
    RunSpec,
    Sweep,
    UnknownWorkloadError,
    canonical_workload_name,
    canonicalise_spec,
    simulate,
)
from repro.experiments import run_experiment
from repro.knobs import KnobError
from repro.serve import Fleet, PoissonTraffic, WorkloadMix, serve
from repro.workloads import (
    AttentionLayerSpec,
    DEIT_TINY,
    FAMILIES,
    configured_name,
    get_family,
    get_workload,
    list_families,
    list_workloads,
    scaled_to_tokens,
)


class TestGrammarResolution:
    def test_bare_names_resolve_to_seed_objects(self):
        for name in list_workloads():
            assert get_workload(name).name == name
        assert get_workload("deit-tiny") is DEIT_TINY

    def test_every_seed_name_is_a_family(self):
        assert set(list_workloads()) <= set(list_families())
        assert {"encoder", "decoder", "transformer"} <= set(list_families())

    def test_knob_round_trip(self):
        family = get_family("decoder")
        config = family.resolve("tokens=1,kv_tokens=2048,phase=decode")
        rendered = family.schema.render(config)
        assert family.resolve(rendered) == config

    def test_spellings_share_one_object(self):
        a = get_workload("decoder[tokens=1,kv_tokens=2048,phase=decode]")
        b = get_workload("decoder[phase=decode,kv_tokens=2048]")
        c = get_workload("decoder[kv_tokens=2048,phase=decode,tokens=1,heads=12]")
        d = get_workload("decoder[tokens=1,kv_tokens=2048]")   # explicit geometry
        assert a is b is c is d
        # phase is a lowering macro: once it has shaped tokens/kv_tokens it is
        # dropped, so the canonical name is the explicit geometry.
        assert a.name == "decoder[kv_tokens=2048,tokens=1]"

    def test_canonical_names_re_parse_to_themselves(self):
        for name in ("decoder[phase=decode,tokens=4,kv_tokens=4]",
                     "decoder[kv_tokens=2048,phase=decode]",
                     "encoder[tokens=64,kv_tokens=64]"):
            canonical = canonical_workload_name(name)
            assert canonical_workload_name(canonical) == canonical
            assert get_workload(canonical) is get_workload(name)

    def test_configured_name_overrides_and_sorts_knobs(self):
        assert configured_name("deit-tiny", tokens=512) == "deit-tiny[tokens=512]"
        assert (configured_name("decoder[tokens=64,phase=prefill]", tokens=128,
                                kv_tokens=256)
                == "decoder[kv_tokens=256,phase=prefill,tokens=128]")

    def test_first_decode_step_simulates(self):
        # kv_tokens == tokens drops the kv knob and phase drops after
        # lowering; the canonicalised spec must still resolve and run.
        result = simulate(
            RunSpec("decoder[phase=decode,tokens=4,kv_tokens=4]", target="gpu"),
            cache=ResultCache())
        assert result.model == "decoder[tokens=4]"
        assert result.end_to_end_latency > 0

    def test_reference_knobs_resolve_to_reference_object(self):
        assert get_workload("deit-tiny[tokens=197]") is DEIT_TINY
        assert get_workload("deit-tiny[tokens=197,heads=3,dim=192]") is DEIT_TINY
        assert get_workload("decoder[tokens=1024]") is get_workload("decoder")

    def test_kv_tokens_equal_to_tokens_is_dropped(self):
        assert canonical_workload_name("decoder[kv_tokens=1024]") == "decoder"
        assert canonical_workload_name("encoder[tokens=64,kv_tokens=64]") == \
            "encoder[tokens=64]"

    def test_decode_phase_lowers_to_single_query(self):
        workload = get_workload("decoder[kv_tokens=512,phase=decode]")
        layer = workload.attention_layers[0]
        assert (layer.tokens, layer.kv_tokens, layer.causal) == (1, 512, True)

    def test_decode_phase_requires_kv_tokens(self):
        with pytest.raises(KnobError, match="kv_tokens"):
            get_workload("decoder[phase=decode]")

    def test_decode_keeps_explicit_tokens_even_at_the_family_default(self):
        # 1024 is decoder's reference tokens value; spelling it out in a
        # decode config is a deliberate chunk size, not an absent knob.
        explicit = get_workload("decoder[tokens=1024,kv_tokens=2048,phase=decode]")
        assert explicit.attention_layers[0].tokens == 1024
        assert canonical_workload_name(
            "decoder[tokens=1024,kv_tokens=2048,phase=decode]") == \
            "decoder[kv_tokens=2048]"
        neighbour = get_workload("decoder[tokens=1023,kv_tokens=2048,phase=decode]")
        assert neighbour.attention_layers[0].tokens == 1023

    def test_causal_needs_kv_at_least_tokens(self):
        with pytest.raises(KnobError, match="kv_tokens >= tokens"):
            get_workload("decoder[tokens=512,kv_tokens=256]")
        with pytest.raises(ValueError):
            AttentionLayerSpec(tokens=8, qk_dim=4, heads=1, kv_tokens=4, causal=True)

    def test_heads_must_divide_dim(self):
        with pytest.raises(KnobError, match="divide"):
            get_workload("transformer[dim=100,heads=3]")

    def test_unknown_workload_lists_families_and_knobs(self):
        with pytest.raises(UnknownWorkloadError) as excinfo:
            get_workload("resnet-50")
        message = str(excinfo.value.args[0])
        assert "families" in message and "decoder" in message
        assert "kv_tokens" in message

    def test_malformed_bracket_rejected(self):
        with pytest.raises(UnknownWorkloadError):
            get_workload("deit-tiny[tokens=64")
        with pytest.raises(KnobError, match="unknown knob"):
            get_workload("deit-tiny[pe=32x32]")

    def test_duplicate_knobs_rejected_even_at_reference_value(self):
        with pytest.raises(KnobError, match="duplicate knob"):
            get_workload("deit-tiny[tokens=197,tokens=512]")
        with pytest.raises(KnobError, match="duplicate knob"):
            get_workload("deit-tiny[tokens=512,tokens=1024]")

    def test_sequence_families_have_sensible_geometry(self):
        encoder = get_workload("encoder")
        assert encoder.attention_layers[0].embed_dim == 768
        assert not encoder.attention_layers[0].causal
        decoder = get_workload("decoder")
        assert decoder.attention_layers[0].causal
        assert decoder.attention_layers[0].tokens == 1024
        transformer = get_workload("transformer")
        assert transformer.linear_macs() == DEIT_TINY.linear_macs()


class TestTokenScaling:
    def test_tokens_knob_matches_deprecated_override(self):
        via_knob = get_workload("levit-128[tokens=392]")
        via_scale = scaled_to_tokens(get_workload("levit-128"), 392)
        assert via_knob.attention_layers == via_scale.attention_layers
        assert via_knob.linear_layers == via_scale.linear_layers

    def test_multi_stage_ratios_floor_consistently(self):
        scaled = get_workload("mobilevit-xs[tokens=300]")
        # 256/64/16-token stages at ratio 300/256, floored: 300, 75, 18.
        assert [layer.tokens for layer in scaled.attention_layers] == [300, 75, 18]

    def test_reference_tokens_is_identity(self):
        workload = get_workload("levit-128")
        assert scaled_to_tokens(workload, 196) is workload
        assert get_workload("levit-128[tokens=196]") is workload

    def test_scaling_preserves_shrinking_blocks(self):
        scaled = get_workload("levit-128[tokens=392]")
        shrink = scaled.attention_layers[-1]
        assert shrink.kv_tokens > shrink.tokens


class TestCacheUnification:
    def test_configured_spellings_share_cache_entries(self):
        cache = ResultCache()
        simulate(RunSpec("deit-tiny[tokens=512,heads=3]"), cache=cache)
        simulate(RunSpec("deit-tiny[tokens=512]"), cache=cache)
        simulate(RunSpec("deit-tiny[heads=3,tokens=512]"), cache=cache)
        stats = cache.stats()
        assert (stats.misses, stats.hits, stats.size) == (1, 2, 1)

    def test_reference_tokens_share_the_bare_entry(self):
        cache = ResultCache()
        simulate(RunSpec("deit-tiny"), cache=cache)
        simulate(RunSpec("deit-tiny[heads=3,tokens=197]"), cache=cache)
        simulate(RunSpec("deit-tiny[tokens=197]"), cache=cache)
        stats = cache.stats()
        assert (stats.misses, stats.hits, stats.size) == (1, 2, 1)

    def test_canonicalise_spec_lowers_tokens_onto_grammar(self):
        spec = canonicalise_spec(RunSpec("deit-tiny[heads=3,tokens=512]",
                                         target="salo"))
        assert spec == RunSpec("deit-tiny[tokens=512]", target="salo")
        reference = canonicalise_spec(RunSpec("deit-tiny[tokens=197]"))
        assert reference.model == "deit-tiny"

    def test_result_model_is_canonical(self):
        result = simulate(RunSpec("deit-tiny[heads=3,tokens=512]", target="gpu"),
                          cache=ResultCache())
        assert result.model == "deit-tiny[tokens=512]"

    def test_disk_cache_keys_on_canonical_names(self, tmp_path):
        first = DiskResultCache(tmp_path)
        original = simulate(RunSpec("deit-tiny[heads=3,tokens=512]"), cache=first)
        second = DiskResultCache(tmp_path)
        restored = simulate(RunSpec("deit-tiny[tokens=512]"), cache=second)
        assert restored == original
        assert second.stats().disk_hits == 1

    def test_model_and_target_knobs_cross_in_sweeps(self):
        outcome = (Sweep()
                   .models("decoder", "deit-tiny")
                   .model_configs("", "tokens=128")
                   .targets("vitality")
                   .over_configs("", "pe=32x32")
                   .run(cache=ResultCache()))
        assert len(outcome.results) == 8
        models = {spec.model for spec in outcome.specs}
        assert models == {"decoder", "decoder[tokens=128]",
                          "deit-tiny", "deit-tiny[tokens=128]"}

    def test_model_configs_rejects_preconfigured_models(self):
        with pytest.raises(ValueError, match="already-configured"):
            list(Sweep().models("decoder[tokens=64]").model_configs("tokens=128")
                 .expand())

    def test_parallel_sweep_handles_configured_models(self):
        builder = (Sweep().models("decoder").model_configs("tokens=64", "tokens=128")
                   .targets("vitality", "gpu"))
        serial = builder.run(cache=ResultCache())
        parallel = builder.run(cache=ResultCache(), jobs=2)
        assert serial.results == parallel.results


class TestDecodeOpCounts:
    def test_causal_prefill_halves_the_score_matrix(self):
        full = AttentionLayerSpec(tokens=256, qk_dim=64, heads=4)
        causal = AttentionLayerSpec(tokens=256, qk_dim=64, heads=4, causal=True)
        ratio = (count_vanilla_attention_ops(causal).exponentiations
                 / count_vanilla_attention_ops(full).exponentiations)
        assert ratio == pytest.approx((256 + 1) / (2 * 256))

    def test_decode_step_counts_scale_with_cache_length(self):
        def vanilla_at(kv):
            layer = AttentionLayerSpec(tokens=1, qk_dim=64, heads=4,
                                       kv_tokens=kv, causal=True)
            return count_vanilla_attention_ops(layer)

        assert vanilla_at(2048).multiplications == 2 * vanilla_at(1024).multiplications
        assert vanilla_at(1024).exponentiations == 4 * 1024

    def test_taylor_counts_are_causal_invariant(self):
        full = AttentionLayerSpec(tokens=256, qk_dim=64, heads=4)
        causal = AttentionLayerSpec(tokens=256, qk_dim=64, heads=4, causal=True)
        assert count_taylor_attention_ops(full) == count_taylor_attention_ops(causal)

    def test_decode_favors_vanilla_prefill_favors_taylor(self):
        """Without a carried context cache, one decode step is cheaper under
        softmax attention, while long prefill is cheaper under Taylor — the
        asymmetry seqscale quantifies."""

        decode = get_workload("decoder[tokens=1,kv_tokens=2048,phase=decode]")
        assert (count_vanilla_attention_ops(decode).total
                < count_taylor_attention_ops(decode).total)
        prefill = get_workload("decoder[tokens=2048]")
        assert (count_taylor_attention_ops(prefill).total
                < count_vanilla_attention_ops(prefill).total)


class TestSeqscaleExperiment:
    def test_two_point_sweep(self):
        payload = run_experiment("seqscale", tokens=(128, 1024),
                                 cache=ResultCache())
        assert [row["tokens"] for row in payload["rows"]] == [128, 1024]
        assert payload["rows"][1]["op_ratio"] > payload["rows"][0]["op_ratio"]
        json.dumps(payload)

    def test_crossover_reported_on_decoder_ladder(self):
        payload = run_experiment("seqscale", tokens=(128, 256, 512, 1024),
                                 cache=ResultCache())
        crossover = payload["latency_crossover_tokens"]
        assert crossover is not None
        rows = {row["tokens"]: row for row in payload["rows"]}
        assert rows[crossover]["latency_ratio"] > 1.0

    def test_deit_family_ladder(self):
        payload = run_experiment("seqscale", model="deit-tiny",
                                 tokens=(197, 788), baseline="edge_gpu",
                                 cache=ResultCache())
        assert payload["rows"][0]["workload"] == "deit-tiny"
        assert payload["rows"][1]["workload"] == "deit-tiny[tokens=788]"

    def test_accelerator_is_peak_matched_to_the_baseline(self):
        from repro.engine import get_target

        cache = ResultCache()
        payload = run_experiment("seqscale", tokens=(1024,), cache=cache)
        expected = simulate(
            RunSpec("decoder", target="vitality",
                    scale_to_peak=get_target("gpu").peak_macs_per_second),
            cache=cache)
        assert payload["rows"][0]["vitality_ms"] == \
            pytest.approx(expected.end_to_end_latency * 1e3)


class TestServeConfiguredWorkloads:
    def test_mix_accepts_configured_names(self):
        mix = WorkloadMix.of(["deit-tiny[tokens=64]", "deit-tiny"])
        assert dict(mix.entries)["deit-tiny[tokens=64]"] == 1.0

    def test_mix_rejects_unknown_and_bad_knobs(self):
        with pytest.raises(ValueError, match="in mix.*unknown workload"):
            WorkloadMix.of(["resnet-50"])
        # Bad knobs carry the same construction-site context as bad families.
        with pytest.raises(ValueError, match="in mix.*unknown knob"):
            WorkloadMix.of(["deit-tiny[pe=32x32]"])
        with pytest.raises(ValueError, match="in mix.*positive integer"):
            WorkloadMix.of(["deit-tiny[tokens=0]"])

    def test_serve_runs_a_configured_mix(self):
        traffic = PoissonTraffic(
            rate=30.0, mix=WorkloadMix.of(["deit-tiny[tokens=64]", "deit-tiny"]))
        report = serve(traffic, Fleet.parse("2xvitality"), duration=1.0, seed=0)
        assert report.completed == report.offered > 0
        served = {model for model, _ in report.per_model}
        assert "deit-tiny[tokens=64]" in served


class TestWorkloadsCLI:
    def test_workloads_listing_json(self, capsys):
        assert main(["workloads"]) == 0
        payload = json.loads(capsys.readouterr().out)
        families = {entry["family"]: entry for entry in payload["families"]}
        assert set(families) == set(list_families())
        decoder = families["decoder"]
        knob_names = {knob["name"] for knob in decoder["knobs"]}
        assert {"tokens", "kv_tokens", "causal", "phase"} <= knob_names
        assert decoder["reference"]["attention_layers"][0]["causal"] is True
        assert payload["seed_workloads"] == list_workloads()

    def test_workloads_single_name_json(self, capsys):
        assert main(["workloads", "decoder[kv_tokens=2048,phase=decode]"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["canonical_name"] == "decoder[kv_tokens=2048,tokens=1]"
        assert payload["attention_layers"][0]["kv_tokens"] == 2048
        assert payload["attention_ops_millions"]["vanilla"] > 0

    def test_workloads_unknown_name_clean_error(self, capsys):
        assert main(["workloads", "resnet-50"]) == 2
        assert "unknown workload" in capsys.readouterr().err

    def test_simulate_configured_workload(self, capsys):
        assert main(["simulate", "deit-tiny[tokens=512]", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["model"] == "deit-tiny[tokens=512]"
        assert payload["end_to_end_latency"] > 0

    @pytest.mark.parametrize("model, configured", [
        ("deit-tiny", "deit-tiny[tokens=512]"),
        ("deit-tiny[tokens=300]", "deit-tiny[tokens=512]"),
        ("levit-128", "levit-128[tokens=512]"),
        ("decoder[kv_tokens=2048]", "decoder[kv_tokens=2048,tokens=512]"),
        ("decoder[phase=decode]", "decoder[phase=decode,tokens=512]"),
    ])
    def test_simulate_tokens_flag_is_the_configured_name(self, capsys, model,
                                                         configured):
        """Same exit code and output, error included: ``decoder[phase=decode]``
        needs a ``kv_tokens`` either way."""

        code = main(["simulate", model, "--tokens", "512", "--json"])
        lowered = (code, *capsys.readouterr())
        code = main(["simulate", configured, "--json"])
        assert lowered == (code, *capsys.readouterr())

    def test_simulate_tokens_flag_rejects_zero(self, capsys):
        assert main(["simulate", "deit-tiny", "--tokens", "0"]) == 2
        assert "'tokens'" in capsys.readouterr().err

    def test_simulate_bad_workload_knob_clean_error(self, capsys):
        assert main(["simulate", "decoder[phase=decode]"]) == 2
        assert "kv_tokens" in capsys.readouterr().err

    def test_accelerate_bad_knobs_clean_error(self, capsys):
        assert main(["accelerate", "deit-tiny[tokens=0]"]) == 2
        assert "positive integer" in capsys.readouterr().err
        assert main(["accelerate", "deit-tiny", "--baseline", "gpu[bogus=1]"]) == 2
        assert "unknown knob" in capsys.readouterr().err

    def test_sweep_crosses_configured_models_and_targets(self, capsys):
        assert main(["sweep", "--models", "decoder[kv_tokens=1024],deit-tiny",
                     "--targets", "vitality[pe=32x32],gpu", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert len(payload["runs"]) == 4
        models = {run["spec"]["model"] for run in payload["runs"]}
        assert models == {"decoder[kv_tokens=1024]", "deit-tiny"}

    def test_serve_accepts_configured_workload_mix(self, capsys):
        assert main(["serve", "--duration", "1", "--rate", "20",
                     "--models", "deit-tiny[tokens=64],deit-tiny",
                     "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["completed"] > 0
        assert "deit-tiny[tokens=64]" in payload["config"]["traffic"]["mix"]

    def test_list_mentions_families(self, capsys):
        assert main(["list"]) == 0
        assert "transformer" in capsys.readouterr().out


class TestSeedGoldenUnderGrammar:
    """The grammar refactor moved workload resolution, not the numbers: the
    seed experiments replayed through the redesigned API must match the
    golden file bit-for-bit (see also TestSeedEquivalence in
    test_design_space.py, which asserts the same for every hardware path)."""

    def test_fig11_and_table2_bit_identical(self):
        import pathlib

        golden = json.loads((pathlib.Path(__file__).parent / "data"
                             / "seed_hardware_golden.json").read_text())
        assert json.loads(json.dumps(run_experiment("fig11"))) == golden["fig11"]
        assert json.loads(json.dumps(run_experiment("tab2"))) == golden["table2"]

    def test_families_reference_objects_are_seed_objects(self):
        for name in list_workloads():
            assert FAMILIES[name].reference is get_workload(name)
