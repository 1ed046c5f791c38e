"""Byte-for-byte transcript of the ``repro`` command line.

``tests/data/cli_goldens.json`` holds, for each command line below, its exit
code, stdout and stderr, and for every subcommand path the parsed arguments
``vars(parse_args(argv))`` (without the dispatch handler).  The commands
cover every leg of every subcommand and every input-error path, so a change
to the CLI's code shows up here as a changed byte.  Each command runs on a
cleared default result cache with builtin ``sum()`` refusing floats.  Input
files live in a temporary directory spelled ``{tmp}`` in the golden.

Regenerate (only when a message change is intended and documented)::

    PYTHONPATH=src:tests python tests/test_cli_transcript.py
"""

from __future__ import annotations

import contextlib
import io
import json
from pathlib import Path

import pytest

from repro.cli import _build_parser, main
from repro.engine import clear_cache

GOLDEN_PATH = Path(__file__).parent / "data" / "cli_goldens.json"

PIPELINE = "p = encoder[tokens=64] -> deit-tiny"
POOLS = "encoder=1xvitality;deit-tiny=1xvitality"
QUICK_SERVE = ("--duration", "0.5", "--rate", "50", "--quiet")
QUICK_LLM = ("--llm", "--models", "decoder", "--rate", "10", "--duration", "1",
             "--quiet")
QUICK_PLAN = ("--rate", "600", "--duration", "0.5", "--max-replicas", "2")
QUICK_PLAN_LLM = ("--llm", "--models", "decoder", "--rate", "5",
                  "--duration", "1", "--max-replicas", "2", "--quiet")
QUICK_PLAN_PIPELINE = ("--pipeline", PIPELINE, "--rate", "40",
                       "--duration", "0.5", "--slo-ms", "40",
                       "--max-replicas", "2", "--quiet")

#: Input files written into ``{tmp}`` before each command.
INPUT_FILES = {
    "trace.json": json.dumps([[0.1, "deit-tiny"], [0.2, "levit-128"],
                              [0.25, "deit-tiny"]]),
    "not_json.txt": "not json",
}

COMMANDS: dict[str, tuple[str, ...]] = {
    # -- every leg
    "list": ("list",),
    "workloads-name": ("workloads", "deit-tiny"),
    "run-tab1": ("run", "tab1"),
    "run-fig1-json": ("run", "fig1", "--json"),
    "run-fig11-json": ("run", "fig11", "--json"),
    "run-tab4-flops-json": ("run", "tab4_flops", "--json"),
    "simulate": ("simulate", "deit-tiny", "--target", "sanger"),
    "simulate-roofline": ("simulate", "deit-tiny",
                          "--target", "vitality[dram_gbps=25]"),
    "simulate-json": ("simulate", "levit-128", "--tokens", "256", "--json"),
    "sweep": ("sweep", "--models", "deit-tiny", "--targets", "vitality,sanger",
              "--batch-sizes", "1,4"),
    "sweep-json": ("sweep", "--models", "deit-tiny", "--targets", "vitality",
                   "--json"),
    "dse": ("dse", "--pe", "32x32,64x64", "--freq", "1ghz", "--sram-kb", "200"),
    "dse-dram-gbps": ("dse", "--pe", "64x64", "--freq", "1ghz",
                      "--sram-kb", "200", "--dram-gbps", "25,100"),
    "serve-classic": ("serve", *QUICK_SERVE),
    "serve-classic-json": ("serve", "--models", "deit-tiny,levit-128",
                           "--weights", "3,1", "--percentiles", "50,99.9",
                           *QUICK_SERVE, "--json"),
    "serve-autoscaled": ("serve", "--autoscale", "utilization",
                         "--duration", "2", "--rate", "300",
                         "--window-ms", "500", "--quiet"),
    "serve-replay": ("serve", "--traffic", "replay", "--trace",
                     "{tmp}/trace.json", "--duration", "1", "--quiet"),
    "serve-observability": ("serve", *QUICK_SERVE, "--trace-out",
                            "{tmp}/t.json", "--metrics-out", "{tmp}/m.prom"),
    "serve-pipeline": ("serve", "--pipeline", PIPELINE, "--pools", POOLS,
                       "--stage-slo-ms", "encoder=5", *QUICK_SERVE),
    "serve-pipeline-json": ("serve", "--pipeline", PIPELINE, "--pools", POOLS,
                            *QUICK_SERVE, "--json"),
    "serve-llm-continuous": ("serve", *QUICK_LLM),
    "serve-llm-continuous-json": ("serve", *QUICK_LLM, "--json"),
    "serve-llm-monolithic": ("serve", *QUICK_LLM, "--scheduler", "monolithic"),
    "serve-llm-disaggregated": ("serve", *QUICK_LLM,
                                "--prefill-fleet", "1xvitality",
                                "--decode-fleet", "1xvitality",
                                "--prompt-tokens", "64:128",
                                "--output-tokens", "8"),
    "plan-classic": ("plan", *QUICK_PLAN),
    "plan-classic-json": ("plan", "--models", "deit-tiny,levit-128",
                          "--weights", "1,1", *QUICK_PLAN, "--quiet", "--json"),
    "plan-llm": ("plan", *QUICK_PLAN_LLM),
    "plan-llm-rejects-weights": ("plan", *QUICK_PLAN_LLM, "--weights", "x",
                                 "--json"),
    "plan-pipeline": ("plan", *QUICK_PLAN_PIPELINE),
    "plan-pipeline-stage-targets": ("plan", *QUICK_PLAN_PIPELINE, "--targets",
                                    "encoder=vitality;deit-tiny=gpu", "--json"),
    "plan-pipeline-ignores-models": ("plan", *QUICK_PLAN_PIPELINE,
                                     "--models", "", "--json"),
    "accelerate": ("accelerate", "deit-tiny"),
    "accelerate-salo-gpu": ("accelerate", "deit-tiny", "--baseline", "salo,gpu"),
    "accelerate-json": ("accelerate", "deit-tiny", "--json"),
    # -- comma-separated numbers
    "sweep-batch-sizes-x": ("sweep", "--batch-sizes", "x"),
    "dse-sram-kb-x": ("dse", "--sram-kb", "x"),
    "dse-dram-gbps-x": ("dse", "--dram-gbps", "x"),
    "serve-weights-x": ("serve", "--weights", "x"),
    "plan-weights-x": ("plan", "--weights", "x"),
    "serve-percentiles-x": ("serve", "--percentiles", "50,abc"),
    "serve-percentiles-out-of-range": ("serve", "--percentiles", "100"),
    "serve-weights-comma": ("serve", "--models", "deit-tiny,levit-128",
                            "--weights", ","),
    "plan-weights-comma": ("plan", "--models", "deit-tiny,levit-128",
                           "--weights", ",", "--quiet"),
    # -- other input errors
    "serve-replay-without-trace": ("serve", "--traffic", "replay"),
    "serve-replay-missing-file": ("serve", "--traffic", "replay",
                                  "--trace", "{tmp}/missing.json"),
    "serve-replay-not-json": ("serve", "--traffic", "replay",
                              "--trace", "{tmp}/not_json.txt"),
    "serve-observability-unwritable": ("serve", *QUICK_SERVE, "--metrics-out",
                                       "{tmp}/missing/m.prom"),
    "serve-pipeline-without-pools": ("serve", "--pipeline", PIPELINE),
    "serve-pipeline-bad-pools": ("serve", "--pipeline", PIPELINE,
                                 "--pools", "encoder"),
    "serve-pipeline-llm": ("serve", "--pipeline", PIPELINE, "--pools", POOLS,
                           "--llm"),
    "serve-stage-slo-x": ("serve", "--pipeline", PIPELINE, "--pools", POOLS,
                          "--stage-slo-ms", "encoder=abc"),
    "serve-llm-bad-prompt": ("serve", "--llm", "--prompt-tokens", "0"),
    "serve-llm-bad-kv-capacity": ("serve", *QUICK_LLM, "--kv-capacity", "0"),
    "serve-llm-slo-zero": ("serve", *QUICK_LLM, "--slo-ms", "0"),
    "serve-timeout-nan": ("serve", "--timeout-ms", "nan"),
    "plan-pipeline-llm": ("plan", "--pipeline", PIPELINE, "--llm"),
    "plan-no-models": ("plan", "--models", ""),
    "plan-no-targets": ("plan", "--targets", ""),
    "plan-percentile-100": ("plan", "--percentile", "100"),
    "sweep-no-targets": ("sweep", "--targets", ""),
    "sweep-jobs-0": ("sweep", "--models", "deit-tiny", "--targets", "vitality",
                     "--jobs", "0"),
    "dse-no-pe": ("dse", "--pe", ""),
    "simulate-bad-scale": ("simulate", "deit-tiny", "--scale-to-peak", "-1"),
    "accelerate-no-baselines": ("accelerate", "deit-tiny", "--baseline", ","),
    "trace-missing-file": ("trace", "summarize", "{tmp}/missing.json"),
    "trace-not-a-trace": ("trace", "summarize", "{tmp}/trace.json"),
    # -- unknown names
    "simulate-unknown-model": ("simulate", "nope"),
    "sweep-unknown-model": ("sweep", "--models", "nope"),
    "dse-unknown-model": ("dse", "--model", "nope"),
    "serve-unknown-model": ("serve", "--models", "nope"),
    "serve-llm-unknown-model": ("serve", "--llm", "--models", "nope"),
    "plan-unknown-model": ("plan", "--models", "nope", "--quiet"),
    "accelerate-unknown-model": ("accelerate", "nope"),
    "workloads-unknown-model": ("workloads", "nope"),
    "simulate-unknown-target": ("simulate", "deit-tiny", "--target", "tpu"),
    "sweep-unknown-target": ("sweep", "--targets", "tpu"),
    "dse-unknown-target": ("dse", "--target", "tpu"),
    "serve-unknown-target": ("serve", "--fleet", "1xtpu", "--quiet"),
    "plan-unknown-target": ("plan", "--targets", "tpu", "--quiet"),
    "accelerate-unknown-baseline": ("accelerate", "deit-tiny",
                                    "--baseline", "tpu"),
    "run-unknown-experiment": ("run", "fig99"),
}

#: One command line per subcommand path, for the parsed defaults.
PARSE_PATHS: tuple[tuple[str, ...], ...] = (
    ("list",), ("workloads",), ("run", "tab1"), ("simulate", "deit-tiny"),
    ("sweep",), ("dse",), ("serve",), ("plan",),
    ("trace", "summarize", "trace.json"), ("accelerate", "deit-tiny"),
)


def _transcript(argv: tuple[str, ...], tmp: Path) -> dict[str, object]:
    """Run one command line in-process on a cleared default cache."""

    for name, text in INPUT_FILES.items():
        (tmp / name).write_text(text)
    clear_cache()
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = main([arg.replace("{tmp}", str(tmp)) for arg in argv])
    return {"argv": list(argv), "exit": code,
            "stdout": stdout.getvalue().replace(str(tmp), "{tmp}"),
            "stderr": stderr.getvalue().replace(str(tmp), "{tmp}")}


def _parsed(argv: tuple[str, ...]) -> dict[str, object]:
    namespace = vars(_build_parser().parse_args(argv))
    namespace.pop("handler", None)
    return namespace


@pytest.fixture(scope="module")
def golden() -> dict[str, dict]:
    return json.loads(GOLDEN_PATH.read_text())


def test_golden_covers_exactly_these_commands(golden):
    assert sorted(golden["commands"]) == sorted(COMMANDS)
    assert sorted(golden["parsed"]) == sorted(" ".join(argv)
                                              for argv in PARSE_PATHS)


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_command_transcript(name, golden, tmp_path, no_float_sum):
    assert _transcript(COMMANDS[name], tmp_path) == golden["commands"][name]


@pytest.mark.parametrize("argv", PARSE_PATHS, ids=" ".join)
def test_parsed_defaults(argv, golden):
    assert _parsed(argv) == golden["parsed"][" ".join(argv)]


@pytest.mark.parametrize("argv", PARSE_PATHS, ids=" ".join)
def test_help_renders(argv, capsys):
    """Help strings are %-formatted only when --help asks for them."""

    with pytest.raises(SystemExit) as done:
        _build_parser().parse_args([*argv, "--help"])
    assert done.value.code == 0
    assert capsys.readouterr().out.startswith("usage: repro")


if __name__ == "__main__":
    import builtins
    import tempfile

    from conftest import _integer_sum

    builtins.sum = _integer_sum
    with tempfile.TemporaryDirectory() as directory:
        commands = {name: _transcript(argv, Path(directory))
                    for name, argv in COMMANDS.items()}
    GOLDEN_PATH.write_text(json.dumps(
        {"commands": commands,
         "parsed": {" ".join(argv): _parsed(argv) for argv in PARSE_PATHS}},
        indent=1, ensure_ascii=False) + "\n")
