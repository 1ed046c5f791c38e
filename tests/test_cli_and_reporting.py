"""Tests for the CLI and the markdown reporting helpers."""

from __future__ import annotations

import json

import pytest

from repro.cli import DEFAULT_BASELINES, main
from repro.experiments.hardware_exps import (
    FIG11_12_BASELINES,
    fig11_latency_speedup,
    fig12_energy_efficiency,
)
from repro.experiments.reporting import (
    format_value,
    markdown_table,
    nested_dict_table,
    render_experiment,
)


class TestReporting:
    def test_format_value_floats(self):
        assert format_value(123.456) == "123"
        assert format_value(3.14159) == "3.14"
        assert format_value(0.01234) == "0.0123"
        assert format_value(0) == "0"

    def test_format_value_misc(self):
        assert format_value(True) == "yes"
        assert format_value([1.0, 2.0]) == "1.00, 2.00"
        assert format_value("text") == "text"

    def test_markdown_table_basic(self):
        table = markdown_table([{"a": 1, "b": 2.5}, {"a": 3, "b": 4.5}])
        lines = table.splitlines()
        assert lines[0] == "| a | b |"
        assert lines[1] == "|---|---|"
        assert len(lines) == 4

    def test_markdown_table_empty(self):
        assert markdown_table([]) == "(no rows)"

    def test_markdown_table_missing_cells(self):
        table = markdown_table([{"a": 1}, {"b": 2}], columns=["a", "b"])
        assert "|  | 2 |" in table.splitlines()[-1]

    def test_nested_dict_table(self):
        table = nested_dict_table({"deit-tiny": {"speedup": 3.0}, "levit-128": {"speedup": 5.0}})
        assert "deit-tiny" in table
        assert "speedup" in table.splitlines()[0]

    def test_render_experiment_mapping(self):
        assert "| name |" in render_experiment("x", {"row": {"col": 1.0}})

    def test_render_experiment_sequence(self):
        rendered = render_experiment("fig14", [0.1, 0.2])
        assert "index" in rendered

    def test_render_experiment_scalar(self):
        assert render_experiment("x", 3.0) == "3.00"


class TestCLI:
    def test_list_command(self, capsys):
        assert main(["list"]) == 0
        output = capsys.readouterr().out
        assert "fig11" in output
        assert "deit-tiny" in output
        assert "vitality" in output

    def test_run_table1_markdown(self, capsys):
        assert main(["run", "tab1"]) == 0
        output = capsys.readouterr().out
        assert "Table I" in output
        assert "deit-tiny" in output

    def test_run_table6_json(self, capsys):
        assert main(["run", "tab6", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["vitality"]["processors"] == ["Acc.", "Div.", "Add."]

    def test_run_unknown_experiment(self, capsys):
        assert main(["run", "fig99"]) == 2

    def test_accelerate_command(self, capsys):
        assert main(["accelerate", "deit-tiny", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["latency_speedup"]["sanger"] > 1.0

    def test_accelerate_baseline_subset(self, capsys):
        assert main(["accelerate", "deit-tiny", "--baseline", "sanger", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert set(payload["latency_speedup"]) == {"sanger", "attention_sanger"}

    @pytest.mark.parametrize("model", ["deit-tiny", "levit-128",
                                       "mobilevit-xs", "deit-base"])
    def test_accelerate_prints_the_fig11_12_rows(self, model, capsys):
        assert DEFAULT_BASELINES == FIG11_12_BASELINES
        assert main(["accelerate", model, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        for key, figure in (("latency_speedup", fig11_latency_speedup),
                            ("energy_efficiency", fig12_energy_efficiency)):
            assert list(payload[key].items()) == \
                list(figure((model,))[model].items())

    def test_accelerate_unknown_model_clean_error(self, capsys):
        assert main(["accelerate", "not-a-model"]) == 2
        error = capsys.readouterr().err
        assert "unknown workload" in error
        assert "families" in error        # the error lists the families

    def test_accelerate_unknown_baseline_clean_error(self, capsys):
        assert main(["accelerate", "deit-tiny", "--baseline", "tpu"]) == 2
        error = capsys.readouterr().err
        assert "unknown target" in error
        assert "vitality" in error    # the error lists what IS available

    def test_simulate_command_json(self, capsys):
        assert main(["simulate", "deit-tiny", "--target", "sanger", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["model"] == "deit-tiny"
        assert payload["target"] == "sanger"
        assert payload["end_to_end_latency"] > 0

    def test_simulate_unknown_target(self, capsys):
        assert main(["simulate", "deit-tiny", "--target", "abacus"]) == 2
        assert "unknown target" in capsys.readouterr().err

    def test_simulate_unknown_model(self, capsys):
        assert main(["simulate", "vgg16"]) == 2
        assert "unknown workload" in capsys.readouterr().err

    def test_simulate_markdown_output(self, capsys):
        assert main(["simulate", "deit-tiny", "--attention-only"]) == 0
        assert "end_to_end_latency_ms" in capsys.readouterr().out

    def test_sweep_command_json(self, capsys):
        assert main(["sweep", "--models", "deit-tiny", "--targets", "vitality,sanger",
                     "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert len(payload["runs"]) == 2
        assert {run["spec"]["target"] for run in payload["runs"]} == {"vitality", "sanger"}

    def test_sweep_command_markdown_reports_cache(self, capsys):
        assert main(["sweep", "--models", "deit-tiny", "--targets", "salo"]) == 0
        output = capsys.readouterr().out
        assert "| model |" in output
        assert "cache:" in output

    def test_sweep_unknown_target(self, capsys):
        assert main(["sweep", "--models", "deit-tiny", "--targets", "tpu"]) == 2
        assert "unknown target" in capsys.readouterr().err

    def test_sweep_unknown_model(self, capsys):
        assert main(["sweep", "--models", "resnet", "--targets", "vitality"]) == 2
        assert "unknown workload" in capsys.readouterr().err

    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            main([])
