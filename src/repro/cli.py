"""Command-line interface for the reproduction.

Usage examples::

    python -m repro list                      # experiments, models, targets
    python -m repro run tab1                  # regenerate Table I
    python -m repro run fig11 --json          # Fig. 11 speedups as JSON
    python -m repro run fig13 --full          # training ablation with long settings
    python -m repro simulate deit-tiny --target sanger --json
    python -m repro simulate deit-tiny --target "vitality[pe=32x32,freq=1ghz]"
    python -m repro simulate "deit-tiny[tokens=1024]"              # configured workload
    python -m repro workloads                  # workload families, knobs, geometries
    python -m repro workloads "decoder[tokens=1,kv_tokens=2048,phase=decode]"
    python -m repro sweep --models deit-tiny,levit-128 --targets vitality,sanger
    python -m repro sweep --models "decoder[kv_tokens=1024],deit-tiny" \
                          --targets "vitality[pe=32x32],gpu"       # model x target knobs
    python -m repro sweep --targets vitality,sanger --jobs 4       # parallel
    python -m repro dse --pe 32x32,64x64 --freq 500mhz,1ghz --json # Pareto frontier
    python -m repro --cache-dir .repro-cache dse --jobs 4          # persistent cache
    python -m repro accelerate deit-tiny      # accelerator vs baselines for one model
    python -m repro serve --rate 200 --duration 5 --fleet 2xvitality --policy timeout
    python -m repro serve --rate 200 --duration 5 --percentiles 50,95,99,99.9
    python -m repro serve --traffic diurnal --rate 1200 --fleet 1xvitality \
                          --policy fifo --autoscale utilization --scale-max 3
    python -m repro plan --rate 1200 --slo-ms 20 \
                         --targets "vitality,vitality[pe=32x32]"   # fleet search
    python -m repro serve --llm --models decoder --rate 20 --duration 4 \
                          --fleet 2xvitality                # continuous batching
    python -m repro serve --llm --models decoder --rate 20 --duration 4 \
                          --prefill-fleet 2xvitality --decode-fleet 1xvitality \
                          --prompt-tokens 256:1024          # disaggregated pools
    python -m repro plan --llm --models decoder --rate 15 --duration 4 \
                         --ttft-slo-ms 100 --tpot-slo-ms 8  # size both pools
    python -m repro serve --llm --models decoder --rate 20 --duration 4 \
                          --trace-out trace.json --metrics-out metrics.prom
    python -m repro trace summarize trace.json  # queue/prefill/decode breakdown
    python -m repro serve --rate 80 --duration 4 \
                          --pipeline "rag = encoder[tokens=512] -> rerank:encoder[tokens=128] -> deit-tiny" \
                          --pools "encoder=2xvitality;rerank=1xvitality;deit-tiny=1xvitality"
    python -m repro plan --rate 80 --slo-ms 60 --duration 2 \
                         --pipeline "rag = encoder[tokens=128] -> deit-tiny" \
                         --targets vitality               # joint stage sizing
    python -m repro --log-level debug serve --rate 100 --duration 1 --quiet
"""

from __future__ import annotations

import argparse
import inspect
import json
import sys

from repro.engine import (
    DiskResultCache,
    ResultCache,
    RunSpec,
    Sweep,
    get_target,
    list_targets,
    simulate,
    split_configured_names,
)
from repro.experiments.dse_exps import explore_design_space
from repro.experiments import get_experiment, list_experiments, run_experiment
from repro.experiments.reporting import markdown_table, render_experiment
from repro.obs import (
    LOG_LEVELS,
    MetricsCollector,
    Observability,
    Progress,
    TraceRecorder,
    configure_logging,
    format_summary,
    load_trace,
    summarize_trace,
    write_chrome_trace,
    write_prometheus,
)
from repro.plan import (
    SCALE_POLICIES,
    Autoscaler,
    plan_capacity,
    plan_llm_capacity,
    plan_pipeline_capacity,
)
from repro.serve import (
    BATCH_POLICIES,
    DEFAULT_OUTPUT_TOKENS,
    DEFAULT_PERCENTILES,
    DEFAULT_PROMPT_TOKENS,
    DEFAULT_SLO,
    Fleet,
    KVCacheConfig,
    ROUTERS,
    SCHEDULERS,
    SUMMARY_MODES,
    TRAFFIC_PATTERNS,
    TokenDistribution,
    TokenProfile,
    make_policy,
    make_router,
    make_traffic,
    serve,
    serve_llm,
    serve_pipeline,
)
from repro.serve.llm import DEFAULT_LLM_SLO
from repro.workloads import (
    FAMILIES,
    canonical_workload_name,
    configured_name,
    get_workload,
    list_families,
    list_workloads,
)

#: Baselines the ``accelerate`` command compares against by default: those of
#: Figs. 11-12 (``hardware_exps.FIG11_12_BASELINES``), restated here so that
#: importing the CLI does not import ``hardware_exps``.
DEFAULT_BASELINES = ("sanger", "cpu", "edge_gpu", "gpu")


def _add_run_flags(parser, *, rate: float, duration: float,
                   slo_ms: float | None) -> None:
    """The traffic, batching and output flags ``serve`` and ``plan`` share."""

    parser.add_argument("--rate", type=float, default=rate,
                        help="arrival rate in requests per second (the "
                             "peak rate of diurnal traffic)")
    parser.add_argument("--duration", type=float, default=duration,
                        help="length of the simulated arrival window in seconds")
    parser.add_argument("--models", default="deit-tiny",
                        help="comma-separated workloads requests are drawn from; "
                             "configured names work inline, e.g. "
                             "'deit-tiny[tokens=1024],levit-128'")
    parser.add_argument("--weights", default="",
                        help="comma-separated mix weights matching --models")
    parser.add_argument("--slo-ms", type=float, default=slo_ms,
                        help="per-request end-to-end latency SLO " + (
                            "(default: 50, or 1000 under --llm)"
                            if slo_ms is None else "(default: %(default)g)"))
    parser.add_argument("--policy", default="timeout", choices=BATCH_POLICIES,
                        help="batch-formation policy (default: timeout)")
    parser.add_argument("--batch", type=int, default=8,
                        help="target/max batch size for size and timeout batching")
    parser.add_argument("--timeout-ms", type=float, default=2.0,
                        help="batching window for the timeout policy")
    parser.add_argument("--overhead-ms", type=float, default=0.5,
                        help="host-side dispatch overhead per batch")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--json", action="store_true")
    parser.add_argument("--quiet", action="store_true",
                        help="suppress stderr progress output")


def _add_llm_flags(group, *, token_ranges: bool) -> None:
    """The LLM flags ``serve`` and ``plan`` share.

    ``serve`` takes each token count as text, a fixed count or a seeded
    uniform range ('256:1024'), and leaves it unset by default, so that the
    traffic carries token counts only when asked; ``plan`` takes integers.
    """

    group.add_argument("--llm", action="store_true",
                       help="take the LLM leg this group describes")
    group.add_argument("--ttft-slo-ms", type=float, default=200.0,
                       help="time-to-first-token SLO")
    group.add_argument("--tpot-slo-ms", type=float, default=10.0,
                       help="time-per-output-token SLO")
    for flag, default, what in (("--prompt-tokens", DEFAULT_PROMPT_TOKENS,
                                 "prompt length"),
                                ("--output-tokens", DEFAULT_OUTPUT_TOKENS,
                                 "generated tokens")):
        group.add_argument(flag, type=str if token_ranges else int,
                           default=None if token_ranges else default,
                           help=f"{what} per request"
                                + (": a count or a seeded range 'LO:HI'"
                                   if token_ranges else "")
                                + f" (default: {default})")
    group.add_argument("--prefill-chunk", type=int, default=256,
                       help="prompt tokens per prefill engine call")
    group.add_argument("--kv-capacity", type=int,
                       help="override per-replica KV capacity in tokens "
                            "(default: derived from the target's SRAM)")
    group.add_argument("--step-overhead-ms", type=float, default=0.2,
                       help="host overhead per prefill chunk / decode step")
    group.add_argument("--handoff-ms", type=float, default=2.0,
                       help="prefill-to-decode KV transfer delay")


def _add_pipeline_flags(group) -> None:
    """The pipeline flags ``serve`` and ``plan`` share."""

    group.add_argument("--pipeline", metavar="SPEC",
                       help="arrow-grammar pipeline, e.g. 'rag = "
                            "encoder[tokens=512] -> rerank:encoder[tokens=128]"
                            " -> deit-tiny' (--models is ignored: stages name "
                            "their own workloads)")
    group.add_argument("--stage-handoff-ms", type=float, default=1.0,
                       help="stage-to-stage handoff delay")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="repro",
                                     description="ViTALiTy (HPCA 2023) reproduction toolkit")
    parser.add_argument("--cache-dir", metavar="DIR",
                        help="persist simulation results as JSON under DIR so "
                             "repeated invocations skip simulated design points")
    parser.add_argument("--log-level", choices=LOG_LEVELS, default="warning",
                        help="logging verbosity on stderr (debug narrates "
                             "dispatch and autoscaling decisions)")
    subparsers = parser.add_subparsers(dest="command", required=True)

    subparsers.add_parser(
        "list", help="list experiments, models, attention modes and targets"
    ).set_defaults(handler=_command_list)

    workloads = subparsers.add_parser(
        "workloads", help="list workload families, knobs and geometry/MAC "
                          "summaries as JSON (or resolve one configured name)")
    workloads.set_defaults(handler=_command_workloads)
    workloads.add_argument("name", nargs="?",
                           help="optional (configured) workload name to resolve, "
                                "e.g. 'deit-tiny[tokens=1024]'")

    run = subparsers.add_parser("run", help="run one experiment by identifier")
    run.set_defaults(handler=_command_run)
    run.add_argument("experiment", help="experiment id, e.g. tab1, fig11, fig13")
    run.add_argument("--json", action="store_true", help="print raw JSON instead of markdown")
    run.add_argument("--full", action="store_true",
                     help="use the long (quick=False) settings for training experiments")

    sim = subparsers.add_parser("simulate", help="simulate one model on one target")
    sim.set_defaults(handler=_command_simulate)
    sim.add_argument("model", help="workload name, e.g. deit-tiny")
    sim.add_argument("--target", default="vitality",
                     help="simulation target (see `repro list`)")
    sim.add_argument("--attention", choices=("vanilla", "taylor"),
                     help="attention formulation (platform targets only)")
    sim.add_argument("--batch", type=int, default=1, help="batch size")
    sim.add_argument("--tokens", type=int, help="run MODEL[tokens=N]")
    sim.add_argument("--dataflow", choices=("down_forward", "g_stationary"),
                     help="ViTALiTy accumulation dataflow")
    sim.add_argument("--no-pipeline", action="store_true",
                     help="disable the ViTALiTy intra-layer pipeline")
    sim.add_argument("--attention-only", action="store_true",
                     help="skip the projection/MLP GEMMs")
    sim.add_argument("--scale-to-peak", type=float,
                     help="scale the PE array to this peak MAC/s before simulating")
    sim.add_argument("--layers", action="store_true",
                     help="include per-layer step records (implies --json)")
    sim.add_argument("--json", action="store_true")

    swp = subparsers.add_parser("sweep",
                                help="simulate a cross product of models and targets")
    swp.set_defaults(handler=_command_sweep)
    swp.add_argument("--models", default="",
                     help="comma-separated workload names (default: all seed "
                          "models); configured names work inline, e.g. "
                          "'decoder[kv_tokens=1024],deit-tiny'")
    swp.add_argument("--targets", default="vitality,sanger",
                     help="comma-separated target names; design points "
                          "configure inline, e.g. 'vitality[pe=32x32],sanger'")
    swp.add_argument("--batch-sizes", default="1", help="comma-separated batch sizes")
    swp.add_argument("--attention-only", action="store_true")
    swp.add_argument("--jobs", type=int, metavar="N",
                     help="simulate cache misses across N worker processes")
    swp.add_argument("--json", action="store_true")

    dse = subparsers.add_parser(
        "dse", help="design-space exploration: sweep microarchitecture knobs "
                    "and report the latency/energy/area Pareto frontier")
    dse.set_defaults(handler=_command_dse)
    dse.add_argument("--model", default="deit-tiny",
                     help="workload to explore the space on")
    dse.add_argument("--target", default="vitality",
                     help="configurable target family to explore")
    dse.add_argument("--pe", default=",".join(("32x32", "64x64", "128x128")),
                     help="comma-separated PE-array geometries (ROWSxCOLS)")
    dse.add_argument("--freq", default="250mhz,500mhz,1ghz",
                     help="comma-separated clock frequencies")
    dse.add_argument("--sram-kb", default="100,200,400",
                     help="comma-separated buffer capacities in KB")
    dse.add_argument("--dram-gbps", default="",
                     help="comma-separated DRAM bandwidths in GB/s; adds a "
                          "bandwidth axis simulated with the tile-level "
                          "memory model (omit for ideal bandwidth)")
    dse.add_argument("--jobs", type=int, metavar="N",
                     help="simulate design points across N worker processes")
    dse.add_argument("--json", action="store_true",
                     help="print the full point cloud as JSON instead of the "
                          "frontier table")

    srv = subparsers.add_parser("serve",
                                help="discrete-event inference-serving simulation")
    srv.set_defaults(handler=_command_serve)
    _add_run_flags(srv, rate=100.0, duration=10.0, slo_ms=None)
    srv.add_argument("--traffic", default="poisson", choices=TRAFFIC_PATTERNS,
                     help="arrival pattern (default: poisson)")
    srv.add_argument("--period", type=float, default=10.0,
                     help="diurnal cycle length in seconds")
    srv.add_argument("--trace", help="JSON file of [time, model] arrivals "
                                     "for --traffic replay")
    srv.add_argument("--fleet", default="2xvitality",
                     help='replica spec, e.g. "2xvitality,1xgpu:taylor"')
    srv.add_argument("--router", default="least-loaded", choices=ROUTERS)
    srv.add_argument("--percentiles", default="50,95,99",
                     help="comma-separated latency percentiles to report, "
                          "e.g. 50,95,99,99.9 (p50/p95/p99 always included)")
    srv.add_argument("--window-ms", type=float,
                     help="add per-window throughput/p99/replica-count rows "
                          "at this resolution")
    srv.add_argument("--autoscale",
                     choices=[name for name in SCALE_POLICIES
                              if name != "scheduled"],
                     help="make the fleet dynamic under this scaling policy")
    srv.add_argument("--scale-unit",
                     help="replica kind scale-ups add (default: the fleet's "
                          "first replica kind)")
    srv.add_argument("--scale-min", type=int, default=1,
                     help="minimum active replicas under autoscaling")
    srv.add_argument("--scale-max", type=int, default=8,
                     help="maximum replicas under autoscaling")
    srv.add_argument("--scale-interval-ms", type=float, default=250.0,
                     help="autoscaler control period")
    srv.add_argument("--provision-ms", type=float, default=500.0,
                     help="delay before a scaled-up replica comes online")
    srv.add_argument("--summary", default="exact", choices=SUMMARY_MODES,
                     help="report mode: exact percentiles over every "
                          "request's latency, or "
                          "bounded-memory streaming sketches for "
                          "million-request runs")
    srv.add_argument("--trace-out", metavar="FILE",
                     help="record the run as Chrome trace-event JSON "
                          "(load in Perfetto; summarize with `repro trace`)")
    srv.add_argument("--metrics-out", metavar="FILE",
                     help="write streaming run metrics in the Prometheus "
                          "text exposition format")
    llm = srv.add_argument_group(
        "llm serving", "autoregressive serving: continuous batching, chunked "
                       "prefill, KV-cache admission, disaggregated pools "
                       "(--policy/--router/--autoscale do not apply)")
    _add_llm_flags(llm, token_ranges=True)
    llm.add_argument("--scheduler", default="continuous", choices=SCHEDULERS,
                     help="iteration-level (continuous) or request-level "
                          "gang (monolithic) batching")
    llm.add_argument("--prefill-fleet",
                     help="dedicated prefill pool, e.g. 3xvitality "
                          "(with --decode-fleet; replaces --fleet)")
    llm.add_argument("--decode-fleet",
                     help="dedicated decode pool, e.g. 1xvitality")
    pipe = srv.add_argument_group(
        "pipeline serving", "multi-stage request DAGs: each request "
                            "traverses per-stage replica pools "
                            "(RAG chains, cascade draft->verify)")
    _add_pipeline_flags(pipe)
    pipe.add_argument("--pools", metavar="MAP",
                      help="semicolon-separated stage pools, e.g. "
                           "'encoder=2xvitality;rerank=1xvitality'")
    pipe.add_argument("--stage-slo-ms", metavar="MAP",
                      help="optional per-stage latency SLOs, e.g. "
                           "'encoder=30;deit-tiny=5' (reported per stage; "
                           "--slo-ms stays the end-to-end SLO)")

    plan = subparsers.add_parser(
        "plan", help="SLO-driven capacity planning: search candidate fleets, "
                     "prune analytically, validate the best in simulation")
    plan.set_defaults(handler=_command_plan)
    _add_run_flags(plan, rate=1200.0, duration=2.0, slo_ms=20.0)
    plan.add_argument("--percentile", type=float, default=99.0,
                      help="SLO percentile, e.g. 99 or 99.9")
    plan.add_argument("--targets", default="vitality",
                      help="comma-separated candidate replica kinds; configured "
                           "design points and :attention pins work inline, "
                           "e.g. 'vitality,vitality[pe=32x32],gpu:taylor'; "
                           "under --pipeline one kind for every stage, or a "
                           "per-stage map 'encoder=vitality;deit-tiny=gpu'")
    plan.add_argument("--max-replicas", type=int, default=8,
                      help="largest per-kind replica count to consider")
    plan.add_argument("--top-k", type=int, default=3,
                      help="analytically-feasible candidates to validate in "
                           "the discrete-event simulator")
    plan.add_argument("--jobs", type=int, metavar="N",
                      help="validate shortlisted candidates across N "
                           "processes")
    _add_llm_flags(plan.add_argument_group(
        "llm planning", "size disaggregated prefill/decode pools against a "
                        "TTFT+TPOT SLO pair (first --models entry, first "
                        "--targets kind; --slo-ms/--policy do not apply)"),
        token_ranges=False)
    _add_pipeline_flags(plan.add_argument_group(
        "pipeline planning", "size every stage pool of a multi-stage "
                             "pipeline jointly against the end-to-end SLO "
                             "(--max-replicas bounds each stage's pool)"))

    trace = subparsers.add_parser(
        "trace", help="work with trace files recorded by serve --trace-out")
    trace_sub = trace.add_subparsers(dest="trace_command", required=True)
    summarize = trace_sub.add_parser(
        "summarize", help="critical-path breakdown of one trace: time in "
                          "queue vs prefill vs decode vs handoff, per model "
                          "and per replica kind")
    summarize.set_defaults(handler=_command_trace)
    summarize.add_argument("trace_file", help="Chrome trace-event JSON file")
    summarize.add_argument("--json", action="store_true")

    accelerate = subparsers.add_parser("accelerate",
                                       help="run the accelerator comparison for one model")
    accelerate.set_defaults(handler=_command_accelerate)
    accelerate.add_argument("model", help="workload name, e.g. deit-tiny")
    accelerate.add_argument("--baseline", default=",".join(DEFAULT_BASELINES),
                            help="comma-separated baseline targets to compare against")
    accelerate.add_argument("--json", action="store_true")
    return parser


def _split_csv(text: str) -> tuple[str, ...]:
    return tuple(item.strip() for item in text.split(",") if item.strip())


def _parse_csv(text: str, flag: str, kind: type) -> tuple:
    """Comma-separated ``int`` or ``float`` values of ``flag``."""

    try:
        return tuple(kind(item) for item in _split_csv(text))
    except ValueError:
        noun = "integers" if kind is int else "numbers"
        raise ValueError(f"{flag} must be comma-separated {noun}, "
                         f"got {text!r}") from None


def _parse_stage_map(text: str, option: str, kind: type = str) -> dict:
    """``"encoder=2xvitality;rerank=1xvitality"`` -> a stage-keyed dict."""

    mapping = {}
    for item in text.split(";"):
        item = item.strip()
        if not item:
            continue
        key, sep, value = item.partition("=")
        if not sep or not key.strip() or not value.strip():
            raise ValueError(f"{option} entries must be 'stage=value' pairs "
                             f"separated by ';', got {item!r}")
        try:
            mapping[key.strip()] = kind(value.strip())
        except ValueError:
            raise ValueError(f"{option} values must be numbers, "
                             f"got {item!r}") from None
    if not mapping:
        raise ValueError(f"{option} names no stages: {text!r}")
    return mapping


def _mix_weights(arguments: argparse.Namespace) -> tuple[float, ...] | None:
    # "," gives no weights, which the mix rejects against its models.
    if not arguments.weights:
        return None
    return _parse_csv(arguments.weights, "--weights", float)


def _make_cache(arguments: argparse.Namespace) -> ResultCache | None:
    """The run's result cache: disk-backed under ``--cache-dir``, else default."""

    if arguments.cache_dir:
        return DiskResultCache(arguments.cache_dir)
    return None


def _command_list(arguments: argparse.Namespace) -> int:
    # The model zoo imports NumPy; only this command needs it.
    from repro.models import available_attention_modes, available_models

    print("Experiments:")
    for identifier in list_experiments():
        spec = get_experiment(identifier)
        print(f"  {identifier:18s} {spec.paper_reference:18s} {spec.title}")
    print("\nModels:          " + ", ".join(available_models()))
    print("Workload families: " + ", ".join(list_families())
          + "  (knobs: `repro workloads`)")
    print("Attention modes: " + ", ".join(available_attention_modes()))
    print("Targets:         " + ", ".join(list_targets()))
    return 0


def _workload_summary(name: str) -> dict[str, object]:
    """Geometry and MAC/op summary of one resolved workload."""

    from repro.attention.op_counting import (
        count_taylor_attention_ops,
        count_vanilla_attention_ops,
    )

    workload = get_workload(name)
    return {
        "name": workload.name,
        "canonical_name": canonical_workload_name(name),
        "attention_layers": [
            {"tokens": layer.tokens, "kv_tokens": layer.kv_tokens,
             "qk_dim": layer.qk_dim, "v_dim": layer.v_dim, "heads": layer.heads,
             "repeats": layer.repeats, "causal": layer.causal}
            for layer in workload.attention_layers
        ],
        "total_attention_layers": workload.total_attention_layers(),
        "linear_macs": workload.linear_macs(),
        "attention_ops_millions": {
            "vanilla": count_vanilla_attention_ops(workload).total / 1e6,
            "taylor": count_taylor_attention_ops(workload).total / 1e6,
        },
        "baseline_accuracy": workload.baseline_accuracy,
    }


def _command_workloads(arguments: argparse.Namespace) -> int:
    if arguments.name:
        print(json.dumps(_workload_summary(arguments.name), indent=2))
        return 0
    families = []
    for name, family in FAMILIES.items():
        families.append({
            "family": name,
            "doc": family.doc,
            "knobs": [
                {"name": knob.name, "doc": knob.doc,
                 "default": (None if knob.default is None
                             else knob.render(knob.default))}
                for _, knob in sorted(family.schema.knobs.items())
            ],
            "reference": _workload_summary(name),
        })
    print(json.dumps({"families": families,
                      "seed_workloads": list_workloads()}, indent=2))
    return 0


def _command_run(arguments: argparse.Namespace) -> int:
    spec = get_experiment(arguments.experiment)
    kwargs = {}
    if arguments.full and "quick" in inspect.signature(spec.runner).parameters:
        kwargs["quick"] = False
    result = run_experiment(arguments.experiment, **kwargs)
    if arguments.json:
        print(json.dumps(result, indent=2, default=str))
    else:
        print(f"# {spec.paper_reference} — {spec.title}\n")
        print(render_experiment(arguments.experiment, result))
    return 0


def _command_simulate(arguments: argparse.Namespace) -> int:
    model = arguments.model
    if arguments.tokens is not None:
        model = configured_name(model, tokens=arguments.tokens)
    spec = RunSpec(
        model=model,
        target=arguments.target,
        attention=arguments.attention,
        batch_size=arguments.batch,
        dataflow=arguments.dataflow,
        pipelined=False if arguments.no_pipeline else None,
        include_linear=not arguments.attention_only,
        scale_to_peak=arguments.scale_to_peak,
    )
    result = simulate(spec, cache=_make_cache(arguments))
    if arguments.json or arguments.layers:
        print(result.to_json(include_layers=arguments.layers))
        return 0
    rows = [{
        "model": result.model,
        "target": result.target,
        "attention_latency_ms": result.attention_latency * 1e3,
        "end_to_end_latency_ms": result.end_to_end_latency * 1e3,
        "end_to_end_energy_mj": result.end_to_end_energy * 1e3,
    }]
    print(markdown_table(rows))
    if result.roofline:
        print("\n## Roofline (per unique layer)\n")
        print(markdown_table(
            [{
                "layer": record.layer,
                "bound": record.bound,
                "compute_cycles": record.compute_cycles,
                "load_stall": record.load_stall_cycles,
                "drain_stall": record.drain_stall_cycles,
                "ai_flops_per_byte": record.arithmetic_intensity,
                "attained_gbps": record.attained_gbps,
            } for record in result.roofline],
            ["layer", "bound", "compute_cycles", "load_stall",
             "drain_stall", "ai_flops_per_byte", "attained_gbps"]))
    return 0


def _command_sweep(arguments: argparse.Namespace) -> int:
    models = split_configured_names(arguments.models) or tuple(list_workloads())
    targets = split_configured_names(arguments.targets)
    if not targets:
        raise ValueError("no targets given")
    batch_sizes = _parse_csv(arguments.batch_sizes, "--batch-sizes", int)
    builder = Sweep().models(*models).targets(*targets).batch_sizes(*batch_sizes or (1,))
    if arguments.attention_only:
        builder.attention_only()
    # Validate names up front so the error names the bad axis value
    # instead of surfacing mid-sweep.
    for model in models:
        get_workload(model)
    for target in targets:
        get_target(target)
    outcome = builder.run(cache=_make_cache(arguments), jobs=arguments.jobs)
    if arguments.json:
        print(json.dumps(outcome.to_dict(), indent=2))
        return 0
    print(markdown_table(outcome.to_rows()))
    disk = f", {outcome.disk_hits} from disk" if outcome.disk_hits else ""
    print(f"\n{len(outcome.results)} runs — cache: {outcome.hits} hits, "
          f"{outcome.misses} misses{disk}")
    return 0


def _command_dse(arguments: argparse.Namespace) -> int:
    sram_kb = _parse_csv(arguments.sram_kb, "--sram-kb", int)
    dram_gbps = _parse_csv(arguments.dram_gbps, "--dram-gbps", float) or None
    pe = _split_csv(arguments.pe)
    freq = _split_csv(arguments.freq)
    if not (pe and freq and sram_kb):
        raise ValueError("the design space needs at least one value per knob "
                         "(--pe, --freq, --sram-kb)")
    payload = explore_design_space(
        model=arguments.model, target=arguments.target,
        pe=pe, freq=freq, sram_kb=sram_kb, dram_gbps=dram_gbps,
        jobs=arguments.jobs, cache=_make_cache(arguments))
    if arguments.json:
        print(json.dumps(payload, indent=2))
        return 0
    columns = ["target", "latency_ms", "energy_mj", "area_mm2", "peak_gmacs"]
    if dram_gbps is not None:
        columns += ["dram_gbps", "memory_bound_layers"]
    print(markdown_table(payload["pareto_frontier"], columns))
    cache_stats = payload["cache"]
    disk = (f", {cache_stats['disk_hits']} from disk"
            if cache_stats.get("disk_hits") else "")
    print(f"\n{len(payload['pareto_frontier'])} Pareto-optimal of "
          f"{payload['evaluated']} design points "
          f"(objectives: {', '.join(payload['objectives'])}) — cache: "
          f"{cache_stats['hits']} hits, {cache_stats['misses']} misses{disk}")
    return 0


def _parse_percentiles(text: str) -> tuple[float, ...]:
    """``"50,95,99,99.9"`` -> sorted percentile fractions incl. the defaults."""

    fractions = set(DEFAULT_PERCENTILES)
    for value in _parse_csv(text, "--percentiles", float):
        if not 0 < value < 100:
            raise ValueError(f"percentiles must be in (0, 100), got {value}")
        fractions.add(value / 100.0)
    return tuple(sorted(fractions))


def _build_observability(arguments: argparse.Namespace,
                         percentiles) -> Observability | None:
    """The serve run's obs bundle, or None when every sink is off.

    None (not an empty bundle) keeps the simulator's disabled path literally
    hook-free, which is what the <5% overhead benchmark holds the line on.
    """

    trace = TraceRecorder() if arguments.trace_out else None
    metrics = None
    if arguments.metrics_out:
        window = (arguments.window_ms * 1e-3
                  if arguments.window_ms is not None else 1.0)
        metrics = MetricsCollector(window_seconds=window,
                                   percentiles=percentiles)
    progress = None if arguments.quiet else Progress(label="serve")
    if trace is None and metrics is None and progress is None:
        return None
    return Observability(trace=trace, metrics=metrics, progress=progress)


def _write_observability(arguments: argparse.Namespace,
                         obs: Observability | None) -> None:
    """Write the --trace-out / --metrics-out files."""

    if obs is None:
        return
    try:
        if arguments.trace_out:
            write_chrome_trace(obs.trace, arguments.trace_out)
        if arguments.metrics_out:
            write_prometheus(obs.metrics, arguments.metrics_out)
    except OSError as error:
        raise ValueError(f"cannot write observability output: {error}") from error


def _serve_kwargs(arguments: argparse.Namespace, percentiles,
                  obs: Observability | None) -> dict[str, object]:
    """The keyword arguments ``serve`` and ``serve_pipeline`` share."""

    return dict(
        policy=make_policy(arguments.policy, batch_size=arguments.batch,
                           timeout=arguments.timeout_ms * 1e-3),
        router=make_router(arguments.router),
        duration=arguments.duration, seed=arguments.seed,
        slo_seconds=(DEFAULT_SLO if arguments.slo_ms is None
                     else arguments.slo_ms * 1e-3),
        dispatch_overhead_seconds=arguments.overhead_ms * 1e-3,
        percentiles=percentiles,
        window_seconds=(None if arguments.window_ms is None
                        else arguments.window_ms * 1e-3),
        summary=arguments.summary, obs=obs)


def _serve_llm(arguments: argparse.Namespace, traffic, percentiles, obs):
    """The ``serve --llm`` leg: route into the autoregressive simulator."""

    disaggregated = arguments.prefill_fleet or arguments.decode_fleet
    prompt = TokenDistribution.parse(arguments.prompt_tokens or DEFAULT_PROMPT_TOKENS)
    output = TokenDistribution.parse(arguments.output_tokens or DEFAULT_OUTPUT_TOKENS)
    return serve_llm(
        traffic,
        fleet=None if disaggregated else arguments.fleet,
        prefill_fleet=arguments.prefill_fleet or None,
        decode_fleet=arguments.decode_fleet or None,
        scheduler=arguments.scheduler,
        duration=arguments.duration, seed=arguments.seed,
        prompt_tokens=round(prompt.mean), output_tokens=round(output.mean),
        prefill_chunk=arguments.prefill_chunk, max_batch=arguments.batch,
        kv=KVCacheConfig(capacity_tokens=arguments.kv_capacity),
        step_overhead_seconds=arguments.step_overhead_ms * 1e-3,
        handoff_seconds=arguments.handoff_ms * 1e-3,
        ttft_slo_seconds=arguments.ttft_slo_ms * 1e-3,
        tpot_slo_seconds=arguments.tpot_slo_ms * 1e-3,
        slo_seconds=(DEFAULT_LLM_SLO if arguments.slo_ms is None
                     else arguments.slo_ms * 1e-3),
        percentiles=percentiles, summary=arguments.summary, obs=obs)


def _serve_pipeline(arguments: argparse.Namespace, traffic, percentiles, obs):
    """The ``serve --pipeline`` leg: multi-stage DAG over per-stage pools."""

    if not arguments.pools:
        raise ValueError("--pipeline requires --pools "
                         "(e.g. 'encoder=2xvitality;deit-tiny=1xvitality')")
    pools = _parse_stage_map(arguments.pools, "--pools")
    stage_slo = None
    if arguments.stage_slo_ms:
        stage_slo = {
            stage: slo_ms * 1e-3 for stage, slo_ms in _parse_stage_map(
                arguments.stage_slo_ms, "--stage-slo-ms", float).items()}
    return serve_pipeline(
        traffic, arguments.pipeline, pools, stage_slo_seconds=stage_slo,
        handoff_seconds=arguments.stage_handoff_ms * 1e-3,
        **_serve_kwargs(arguments, percentiles, obs))


def _serve_classic(arguments: argparse.Namespace, traffic, percentiles, obs):
    """The classic ``serve`` leg, autoscaled under ``--autoscale``."""

    autoscaler = None
    if arguments.autoscale:
        unit = arguments.scale_unit or \
            Fleet.parse(arguments.fleet).replica_specs[0].label
        autoscaler = Autoscaler(
            arguments.autoscale, unit,
            min_replicas=arguments.scale_min,
            max_replicas=arguments.scale_max,
            interval=arguments.scale_interval_ms * 1e-3,
            provision_seconds=arguments.provision_ms * 1e-3)
    return serve(traffic, arguments.fleet, autoscaler=autoscaler,
                 **_serve_kwargs(arguments, percentiles, obs))


def _peak_concurrent_replicas(report) -> int:
    """Most replicas alive at once — the honest static-fleet baseline (a
    scale-up/drain/scale-up run provisions more replicas in total than it
    ever runs concurrently)."""

    replicas = report.per_replica
    return max(
        sum(1 for other in replicas
            if other.started_at <= replica.started_at
            and (other.retired_at is None
                 or other.retired_at > replica.started_at))
        for replica in replicas)


def _render_serve_llm(arguments: argparse.Namespace, report) -> None:
    fleets = (f"{arguments.prefill_fleet} + {arguments.decode_fleet}"
              if arguments.prefill_fleet or arguments.decode_fleet
              else arguments.fleet)
    summary = {"fleet": fleets, "scheduler": arguments.scheduler,
               **report.summary_row()}
    # The classic mean_batch counts requests per engine dispatch, which is
    # meaningless when a request spans many decode steps; show the decode
    # batch the scheduler actually sustained.
    summary["mean_batch"] = round(report.llm["mean_decode_batch"], 4)
    print(markdown_table([summary]))
    print()
    print(markdown_table([replica.to_dict() for replica in report.per_replica],
                         ["name", "role", "requests", "utilization",
                          "kv_capacity_tokens", "kv_peak_tokens",
                          "decode_steps"]))
    llm = report.llm
    print(f"\n{report.completed}/{report.offered} requests served — "
          f"{llm['generated_tokens']} tokens decoded in "
          f"{llm['decode_steps']} steps (mean batch "
          f"{llm['mean_decode_batch']:.2f}, "
          f"{llm['decode_tokens_per_second']:.1f} tok/s); "
          f"TTFT attainment {llm['ttft_attainment']:.1%}, "
          f"TPOT attainment {llm['tpot_attainment']:.1%}")


def _render_serve_pipeline(arguments: argparse.Namespace, report) -> None:
    block = report.pipeline
    summary = {"pipeline": block["name"], "policy": arguments.policy,
               "router": arguments.router, **report.summary_row()}
    print(markdown_table([summary]))
    print()
    print(markdown_table(
        [{"stage": row["name"], "model": row["model"], "pool": row["pool"],
          "requests": row["requests"],
          "mean_ms": round(row["latency"]["mean"] * 1e3, 4),
          "p99_ms": round(row["latency"]["p99"] * 1e3, 4),
          "utilization": round(row["utilization"], 4),
          "slo_attainment": row["slo_attainment"]}
         for row in block["stages"]]))
    print()
    print(markdown_table([replica.to_dict() for replica in report.per_replica],
                         ["name", "stage", "requests", "batches",
                          "utilization", "energy_joules"]))
    print(f"\n{report.completed}/{report.offered} requests traversed "
          f"{len(block['stages'])} stages ({block['handoffs']} handoffs at "
          f"{block['handoff_seconds'] * 1e3:g}ms each) in "
          f"{report.makespan:.3f}s")


def _render_serve_classic(arguments: argparse.Namespace, report) -> None:
    summary = {"fleet": report.config["fleet"], "policy": arguments.policy,
               "router": arguments.router, **report.summary_row()}
    print(markdown_table([summary]))
    print()
    print(markdown_table([replica.to_dict() for replica in report.per_replica],
                         ["name", "requests", "batches", "utilization",
                          "energy_joules"]))
    if report.windows is not None:
        print()
        print(markdown_table([window.to_dict() for window in report.windows],
                             ["start", "end", "arrivals", "completed",
                              "throughput_rps", "p99", "mean_active_replicas"]))
    if report.scale_events:
        print()
        print(markdown_table([event.to_dict() for event in report.scale_events],
                             ["time", "action", "replica", "detail"]))
        peak = _peak_concurrent_replicas(report)
        print(f"\nreplica-seconds provisioned: {report.replica_seconds:.3f} "
              f"(a static fleet of the peak {peak} would be "
              f"{peak * report.makespan:.3f})")
    cache = report.cache
    print(f"\n{report.completed}/{report.offered} requests served in "
          f"{report.makespan:.3f}s — engine cache: {cache.hits} hits, "
          f"{cache.misses} misses, {cache.evictions} evictions "
          f"(bound {cache.max_entries})")


def _command_serve(arguments: argparse.Namespace) -> int:
    models = split_configured_names(arguments.models)
    weights = _mix_weights(arguments)
    trace = None
    if arguments.traffic == "replay":
        if not arguments.trace:
            raise ValueError("--traffic replay requires --trace FILE")
        try:
            with open(arguments.trace) as handle:
                trace = json.load(handle)
        except (OSError, json.JSONDecodeError) as error:
            raise ValueError(f"cannot read trace {arguments.trace!r}: "
                             f"{error}") from error
    tokens = None
    if arguments.llm and (arguments.prompt_tokens or arguments.output_tokens):
        tokens = TokenProfile.of(
            prompt=arguments.prompt_tokens or DEFAULT_PROMPT_TOKENS,
            output=arguments.output_tokens or DEFAULT_OUTPUT_TOKENS)
    percentiles = _parse_percentiles(arguments.percentiles)
    traffic = make_traffic(arguments.traffic, arguments.rate, models,
                           weights, period=arguments.period, trace=trace,
                           tokens=tokens)
    obs = _build_observability(arguments, percentiles)
    if arguments.pipeline and arguments.llm:
        raise ValueError("--pipeline and --llm are mutually exclusive")
    if arguments.pipeline:
        run, render = _serve_pipeline, _render_serve_pipeline
    elif arguments.llm:
        run, render = _serve_llm, _render_serve_llm
    else:
        run, render = _serve_classic, _render_serve_classic
    report = run(arguments, traffic, percentiles, obs)
    _write_observability(arguments, obs)
    if arguments.json:
        print(report.to_json())
    else:
        render(arguments, report)
    return 0


def _plan_progress(arguments: argparse.Namespace):
    """Milestone callback for the planners, or None under --quiet."""

    if arguments.quiet:
        return None
    return Progress(label="plan").step


def _command_plan_llm(arguments: argparse.Namespace, model: str,
                      target: str) -> int:
    """The ``plan --llm`` leg: size disaggregated prefill/decode pools."""

    payload = plan_llm_capacity(
        arguments.rate, model,
        ttft_slo_seconds=arguments.ttft_slo_ms * 1e-3,
        tpot_slo_seconds=arguments.tpot_slo_ms * 1e-3,
        duration=arguments.duration,
        slo_percentile=arguments.percentile / 100.0, target=target,
        prompt_tokens=arguments.prompt_tokens,
        output_tokens=arguments.output_tokens,
        prefill_chunk=arguments.prefill_chunk, max_batch=arguments.batch,
        kv=KVCacheConfig(capacity_tokens=arguments.kv_capacity),
        step_overhead_seconds=arguments.step_overhead_ms * 1e-3,
        handoff_seconds=arguments.handoff_ms * 1e-3,
        max_replicas=arguments.max_replicas, top_k=arguments.top_k,
        seed=arguments.seed, cache=_make_cache(arguments),
        jobs=arguments.jobs, progress=_plan_progress(arguments))
    if arguments.json:
        print(json.dumps(payload, indent=2))
        return 0
    label = f"p{arguments.percentile:g}"
    print(markdown_table(
        [{key: candidate[key] for key in
          ("prefill_fleet", "decode_fleet", f"predicted_ttft_{label}_ms",
           "predicted_tpot_ms", "area_mm2", "predicted_feasible")}
         for candidate in payload["candidates"]]))
    if payload["validated"]:
        print()
        print(markdown_table(
            [{key: candidate[key] for key in
              ("prefill_fleet", "decode_fleet", f"ttft_{label}_ms",
               f"tpot_{label}_ms", "decode_tokens_per_second",
               "slo_attained")}
             for candidate in payload["validated"]]))
    chosen = payload["chosen"]
    if chosen is None:
        print(f"\nno split met TTFT {label} <= {arguments.ttft_slo_ms:g}ms "
              f"and TPOT {label} <= {arguments.tpot_slo_ms:g}ms at "
              f"{arguments.rate:g} req/s — raise --max-replicas")
    else:
        print(f"\nchosen: {chosen['prefill_fleet']} prefill + "
              f"{chosen['decode_fleet']} decode — TTFT {label} "
              f"{chosen[f'ttft_{label}_ms']:.2f}ms, TPOT {label} "
              f"{chosen[f'tpot_{label}_ms']:.2f}ms")
        reference = payload["colocated_reference"]
        if reference is not None:
            verdict = "meets" if reference["slo_attained"] else "misses"
            print(f"colocated reference: {reference['fleet']} {verdict} the "
                  f"SLO pair (TTFT {reference[f'ttft_{label}_ms']:.2f}ms, "
                  f"TPOT {reference[f'tpot_{label}_ms']:.2f}ms)")
    print(f"\n{len(payload['validated'])} of {payload['evaluated']} splits "
          f"validated in simulation")
    return 0


def _command_plan_pipeline(arguments: argparse.Namespace) -> int:
    """The ``plan --pipeline`` leg: joint per-stage pool sizing."""

    targets: "str | dict[str, str]"
    if "=" in arguments.targets:
        targets = _parse_stage_map(arguments.targets, "--targets")
    else:
        targets = split_configured_names(arguments.targets)[0]
    payload = plan_pipeline_capacity(
        arguments.rate, arguments.pipeline,
        slo_seconds=arguments.slo_ms * 1e-3,
        slo_percentile=arguments.percentile / 100.0,
        duration=arguments.duration, targets=targets,
        max_replicas_per_stage=arguments.max_replicas,
        top_k=arguments.top_k, policy=arguments.policy,
        batch_size=arguments.batch, timeout=arguments.timeout_ms * 1e-3,
        handoff_seconds=arguments.stage_handoff_ms * 1e-3,
        dispatch_overhead_seconds=arguments.overhead_ms * 1e-3,
        seed=arguments.seed, cache=_make_cache(arguments),
        jobs=arguments.jobs, progress=_plan_progress(arguments))
    if arguments.json:
        print(json.dumps(payload, indent=2))
        return 0
    label = f"p{arguments.percentile:g}"
    print(markdown_table(
        [{key: candidate[key] for key in
          ("pools_text", "replicas", f"predicted_{label}_ms", "area_mm2",
           "bottleneck", "predicted_feasible")}
         for candidate in payload["candidates"]]))
    if payload["validated"]:
        print()
        print(markdown_table(
            [{key: candidate[key] for key in
              ("pools_text", f"{label}_ms", "slo_violation_rate",
               "throughput_rps", "slo_attained", "pareto")}
             for candidate in payload["validated"]]))
    chosen = payload["chosen"]
    if chosen is None:
        print(f"\nno pool sizing met the {label} <= {arguments.slo_ms:g}ms "
              f"end-to-end SLO at {arguments.rate:g} req/s — raise "
              f"--max-replicas")
    else:
        print(f"\nchosen: {chosen['pools_text']} — {label} "
              f"{chosen[f'{label}_ms']:.2f}ms <= {arguments.slo_ms:g}ms at "
              f"{arguments.rate:g} req/s")
        boundary = payload["boundary"]
        if boundary is not None:
            verdict = "meets" if boundary["slo_attained"] else "misses"
            print(f"boundary ({boundary['stage_shrunk']} one smaller): "
                  f"{boundary['pools_text']} {verdict} the SLO "
                  f"({label} {boundary[f'{label}_ms']:.2f}ms)")
    print(f"\n{payload['simulated']} of {payload['evaluated']} pool sizings "
          f"validated in simulation (objectives: "
          f"{', '.join(payload['objectives'])})")
    return 0


def _command_plan(arguments: argparse.Namespace) -> int:
    models = split_configured_names(arguments.models)
    targets = split_configured_names(arguments.targets)
    if not targets and "=" not in arguments.targets:
        raise ValueError("no candidate targets given")
    # Pipeline stages name their own workloads.
    if not models and not arguments.pipeline:
        raise ValueError("no workloads given")
    if not 0 < arguments.percentile < 100:
        raise ValueError(f"--percentile must be in (0, 100), "
                         f"got {arguments.percentile}")
    if arguments.pipeline:
        if arguments.llm:
            raise ValueError("--pipeline and --llm are mutually exclusive")
        return _command_plan_pipeline(arguments)
    if arguments.llm:
        if arguments.weights:
            raise ValueError("--weights does not apply under --llm, which "
                             "plans for the first --models entry alone")
        return _command_plan_llm(arguments, models[0], targets[0])
    payload = plan_capacity(
        arguments.rate, models, weights=_mix_weights(arguments),
        slo_seconds=arguments.slo_ms * 1e-3,
        slo_percentile=arguments.percentile / 100.0,
        duration=arguments.duration, targets=targets,
        max_replicas=arguments.max_replicas, top_k=arguments.top_k,
        policy=arguments.policy, batch_size=arguments.batch,
        timeout=arguments.timeout_ms * 1e-3,
        dispatch_overhead_seconds=arguments.overhead_ms * 1e-3,
        seed=arguments.seed, cache=_make_cache(arguments),
        jobs=arguments.jobs, progress=_plan_progress(arguments))
    if arguments.json:
        print(json.dumps(payload, indent=2))
        return 0
    label = f"p{arguments.percentile:g}"
    candidate_columns = ["fleet", "predicted_utilization",
                         f"predicted_{label}_ms", "area_mm2",
                         "energy_per_request_mj", "predicted_feasible"]
    print(markdown_table([{key: candidate[key] for key in candidate_columns}
                          for candidate in payload["candidates"]]))
    if payload["validated"]:
        print()
        print(markdown_table(
            [{key: candidate[key] for key in
              ("fleet", f"{label}_ms", "slo_violation_rate", "throughput_rps",
               "energy_per_request_mj", "slo_attained", "pareto")}
             for candidate in payload["validated"]]))
    chosen = payload["chosen"]
    if chosen is None:
        print(f"\nno candidate met the {label} <= {arguments.slo_ms:g}ms SLO "
              f"at {arguments.rate:g} req/s — raise --max-replicas or widen "
              f"--targets")
    else:
        print(f"\nchosen: {chosen['fleet']} — {label} "
              f"{chosen[f'{label}_ms']:.2f}ms <= {arguments.slo_ms:g}ms at "
              f"{arguments.rate:g} req/s")
        boundary = payload["boundary"]
        if boundary is not None:
            verdict = "meets" if boundary["slo_attained"] else "misses"
            print(f"boundary: {boundary['fleet']} {verdict} the SLO "
                  f"({label} {boundary[f'{label}_ms']:.2f}ms)")
    print(f"\n{len(payload['validated'])} of {payload['evaluated']} candidates "
          f"validated in simulation (objectives: "
          f"{', '.join(payload['objectives'])})")
    return 0


def _command_trace(arguments: argparse.Namespace) -> int:
    """``repro trace summarize``: critical-path breakdown of a trace file."""

    try:
        payload = summarize_trace(load_trace(arguments.trace_file))
    except (OSError, ValueError) as error:
        raise ValueError(f"cannot summarize {arguments.trace_file!r}: "
                         f"{error}") from error
    if arguments.json:
        print(json.dumps(payload, indent=2))
    else:
        print(format_summary(payload))
    return 0


def _command_accelerate(arguments: argparse.Namespace) -> int:
    """The Figs. 11-12 rows of one model, against any set of baselines."""

    # Imported on use, so that `import repro.cli` does not load hardware_exps.
    from repro.experiments.hardware_exps import _fig11_12_rows

    baselines = split_configured_names(arguments.baseline)
    if not baselines:
        raise ValueError("no baselines given")
    get_workload(arguments.model)     # an unknown model is named first
    models = (arguments.model,)
    latency = _fig11_12_rows(models, True, baselines)[arguments.model]
    energy = _fig11_12_rows(models, False, baselines)[arguments.model]
    if arguments.json:
        print(json.dumps({"model": arguments.model, "latency_speedup": latency,
                          "energy_efficiency": energy}, indent=2))
    else:
        print(render_experiment("accelerate", {"latency speedup": latency,
                                               "energy efficiency": energy}))
    return 0


def main(argv: list[str] | None = None) -> int:
    arguments = _build_parser().parse_args(argv)
    configure_logging(arguments.log_level)
    try:
        return arguments.handler(arguments)
    except (KeyError, ValueError, TypeError, IndexError) as error:
        # The one place an input error (an unknown name, a bad value or an
        # unreadable file) becomes a message and exit code 2.
        print(f"error: {error.args[0] if error.args else error}",
              file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
