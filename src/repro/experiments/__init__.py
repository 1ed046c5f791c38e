"""Experiment drivers: one callable per table/figure of the paper's evaluation.

Every experiment is registered in :mod:`repro.experiments.registry` under an
identifier (``fig10``, ``tab1``, ...) that ``repro run`` takes.  The test
suite checks each driver's output, except the training-backed ones, which
``benchmarks/bench_accuracy.py`` checks.  Drivers can also be run directly:

    from repro.experiments import run_experiment
    result = run_experiment("tab1")
"""

from repro.experiments.registry import (
    ExperimentSpec,
    list_experiments,
    get_experiment,
    run_experiment,
)
from repro.experiments import (
    complexity,
    profiling_exps,
    hardware_exps,
    accuracy_exps,
    serving_exps,
    dse_exps,
    seqscale_exps,
    plan_exps,
)

__all__ = [
    "ExperimentSpec",
    "list_experiments",
    "get_experiment",
    "run_experiment",
    "complexity",
    "profiling_exps",
    "hardware_exps",
    "accuracy_exps",
    "serving_exps",
    "dse_exps",
    "seqscale_exps",
    "plan_exps",
]
