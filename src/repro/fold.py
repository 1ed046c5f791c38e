"""One float-summation order for every report, payload and result.

From Python 3.12 the builtin ``sum()`` compensates float rounding, so the
same floats sum to different bits there than on 3.10 and 3.11.  Reports,
payloads and engine results are pinned bit for bit, so every float total
in the simulator stack is a :func:`left_sum`: the plain left-to-right fold
that ``sum()`` performed before 3.12, on every interpreter.  Integer totals
are exact either way and keep ``sum()``.
"""

from __future__ import annotations

from typing import Iterable


def left_sum(values: Iterable, start=0):
    """``start + v0 + v1 + ...``, added left to right with one rounding per
    addition: ``functools.reduce(operator.add, values, start)``, which is
    ``sum(values, start)`` as Python 3.11 and earlier compute it."""

    total = start
    for value in values:
        total = total + value       # faster than reduce() on short runs
    return total
