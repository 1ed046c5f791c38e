"""Compute-array models: the systolic array and the lane-array processors.

Systolic array (Section IV-B / IV-D): dense matrix multiplications are tiled
over the array's rows/columns.  For an ``R x C`` array computing
``O = A (M x K) @ B (K x N)`` with an input-stationary mapping, the stationary
operand ``B`` is loaded tile by tile (``ceil(K/R) * ceil(N/C)`` tiles) and the
``M`` rows of ``A`` stream through each tile, with partial sums accumulated
down the columns (down-forward accumulation).  The cycle model counts the
streaming cycles plus the pipeline fill/drain per tile, and the energy model
charges the array's per-cycle power for every occupied cycle.

The alternative G-stationary dataflow keeps ``G`` resident in the PEs between
the two chained products of Algorithm 1; it saves the SRAM traffic of writing
and re-reading ``G`` but requires reconfigurable PEs (both accumulation
patterns), which the energy model charges as a per-MAC overhead factor.

Lane arrays (Section IV-B): three small arrays handle the non-GEMM work of
Algorithm 1 —

* **Accumulator array** — column(token)-wise summations: ``1_n^T K``,
  ``k_hat_sum`` and ``v_sum`` (Steps 1 and 3).
* **Adder array** — element-wise additions/subtractions: the mean-centering
  subtraction, the Taylor denominator and numerator additions (Steps 1, 4, 5).
* **Divider array** — reconfigurable between single-divisor mode (dividing the
  key column sum by ``n`` in Step 1) and multiple-divisors mode (the row-wise
  division producing the final score in Step 6).

The three differ only in geometry and in the operations sent to them, so
one :class:`LaneArray` models each: an operation batch of ``count``
element-wise operations occupies ``ceil(count / lanes)`` cycles and is
charged the chunk's per-cycle power for those cycles.  Lane counts come from
the component geometry, so a design point with a narrower PE array
automatically narrows its processor arrays.

Both array models return ``(cycles, energy_joules)``; the accelerator that
issues the work also counts the words it moves.
"""

from __future__ import annotations

import math

from repro.hardware.core.component import ComponentConfig


def matmul_cycles(m: int, k: int, n: int, rows: int, columns: int,
                  utilization: float = 1.0, batch: int = 1) -> int:
    """Cycle count for ``batch`` back-to-back ``(m x k) @ (k x n)`` products.

    The stationary operand is tiled into ``ceil(k/rows) * ceil(n/columns)``
    tiles; each tile streams ``m`` activations (derated by ``utilization`` for
    tile-edge and skew effects).  With double-buffered weight loading the
    array's fill/drain latency (``rows + columns`` cycles) is paid once per
    batched sequence of products rather than once per tile — this is how the
    accelerator streams all heads of one attention step back to back.
    """

    if min(m, k, n, rows, columns, batch) <= 0:
        raise ValueError("matrix and array dimensions must be positive")
    if not 0.0 < utilization <= 1.0:
        raise ValueError("utilization must be in (0, 1]")
    row_tiles = math.ceil(k / rows)
    column_tiles = math.ceil(n / columns)
    streaming = batch * row_tiles * column_tiles * math.ceil(m / utilization)
    return streaming + rows + columns


class SystolicArray:
    """A systolic array chunk (SA-General or SA-Diag) with an energy model."""

    def __init__(self, component: ComponentConfig, frequency_hz: float,
                 utilization: float = 0.7):
        self.component = component
        self.frequency_hz = frequency_hz
        self.utilization = utilization
        self.energy_per_cycle = component.energy_per_cycle(frequency_hz)

    @property
    def rows(self) -> int:
        return self.component.rows

    @property
    def columns(self) -> int:
        return self.component.columns

    def matmul(self, m: int, k: int, n: int, pe_energy_scale: float = 1.0,
               batch: int = 1) -> tuple[int, float]:
        """``(cycles, energy_joules)`` of ``batch`` ``(m x k) @ (k x n)`` products.

        ``pe_energy_scale`` models per-MAC energy overheads such as the
        reconfigurable-PE cost of the G-stationary dataflow; ``batch`` streams
        several products (e.g. all heads of one step) back to back so the
        pipeline fill is amortised.
        """

        cycles = matmul_cycles(m, k, n, self.rows, self.columns, self.utilization, batch=batch)
        return cycles, cycles * self.energy_per_cycle * pe_energy_scale


class LaneArray:
    """A lane-parallel pre/post-processor chunk: the accumulator, adder or
    divider array."""

    def __init__(self, component: ComponentConfig, frequency_hz: float):
        self.component = component
        self.frequency_hz = frequency_hz
        self.lanes = component.lanes
        self.energy_per_cycle = component.energy_per_cycle(frequency_hz)

    def run(self, operations: int) -> tuple[int, float]:
        """``(cycles, energy_joules)`` of ``operations`` element-wise operations."""

        if operations < 0:
            raise ValueError("operation count must be non-negative")
        cycles = math.ceil(operations / self.lanes)
        return cycles, cycles * self.energy_per_cycle
