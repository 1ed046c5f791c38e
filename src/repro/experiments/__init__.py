"""Experiment drivers: one callable per table/figure of the paper's evaluation.

Every experiment is registered in :mod:`repro.experiments.registry` under an
identifier (``fig10``, ``tab1``, ...) that ``repro run`` takes.  The test
suite checks each driver's output, except the training-backed ones, which
``benchmarks/bench_accuracy.py`` checks.  Drivers can also be run directly:

    from repro.experiments import run_experiment
    result = run_experiment("tab1")

Importing this package loads only the registry; each driver module
(``hardware_exps``, ``accuracy_exps``, ...) is imported when its experiment
first runs, or by name.
"""

from repro.experiments.registry import (
    ExperimentSpec,
    list_experiments,
    get_experiment,
    run_experiment,
)

__all__ = [
    "ExperimentSpec",
    "list_experiments",
    "get_experiment",
    "run_experiment",
]
