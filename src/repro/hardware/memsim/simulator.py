"""The double-buffered tile pipeline: compute vs load-stall vs drain-stall.

One GEMM ``O (M x N) = A (M x K) @ B (K x N)`` is executed as a sequence of
tile passes ordered ``batch -> m-chunk -> n-tile -> k-tile`` (output
stationary: the partial sums for one ``(m-chunk, n-tile)`` output tile
accumulate in the obuf across the inner k loop and drain once, after the
last k-tile).  Each pass streams ``chunk_m`` activation rows through one
``tile_k x tile_n`` stationary tile, exactly like the analytic
:func:`~repro.hardware.core.arrays.matmul_cycles` model — at infinite
bandwidth and single-chunk ``M`` the tiled cycle count collapses to the
analytic one.

Double buffering overlaps the memory system with compute: while pass ``i``
computes, the operands of pass ``i+1`` load into the spare buffer halves and
the output drained by pass ``i-1`` writes back.  Loads and drains use
independent ports, so each is compared against the compute window on its
own:

* ``load_stall``   — the first pass's full load (nothing to overlap with)
  plus every later pass's load cycles in excess of the previous pass's
  compute cycles;
* ``drain_stall``  — the last pass's full drain plus every earlier drain's
  cycles in excess of the next pass's compute cycles.

Stalled cycles are idle (clock-gated): the energy model charges the array
for compute cycles only, and the memory-access energies stay with the
accelerator's existing traffic accounting.

The sums are evaluated in closed form, not pass by pass.  Each axis splits
into at most two ``(size, count)`` runs — the full chunks, then the
remainder — so a pass has at most eight shapes and every total is a sum of
per-shape values times their counts.  A pass's compute window depends only
on its m-chunk, so adjacent passes pair different compute windows only
across an m-chunk boundary; those boundaries are counted per pair of
m-chunk sizes.  The cost of one GEMM is therefore independent of its tile
count, and the result is exactly what the pass-by-pass pipeline gives.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.hardware.memsim.config import TilePlan


@dataclass
class GemmMemTrace:
    """Cycle and traffic accounting for one tiled GEMM."""

    tiles: int                 # tile passes executed
    compute_cycles: int        # active cycles (streaming + array fill)
    load_stall_cycles: int
    drain_stall_cycles: int
    dram_words: int            # words moved across the DRAM interface
    sram_words: int            # words moved between buffers and the array
    macs: int

    @property
    def cycles(self) -> int:
        return self.compute_cycles + self.load_stall_cycles + self.drain_stall_cycles

    def add(self, other: "GemmMemTrace") -> "GemmMemTrace":
        return GemmMemTrace(
            tiles=self.tiles + other.tiles,
            compute_cycles=self.compute_cycles + other.compute_cycles,
            load_stall_cycles=self.load_stall_cycles + other.load_stall_cycles,
            drain_stall_cycles=self.drain_stall_cycles + other.drain_stall_cycles,
            dram_words=self.dram_words + other.dram_words,
            sram_words=self.sram_words + other.sram_words,
            macs=self.macs + other.macs,
        )


def _transfer_cycles(words: int, words_per_cycle: float) -> int:
    if words <= 0 or math.isinf(words_per_cycle):
        return 0
    return math.ceil(words / words_per_cycle)


def _runs(total: int, size: int) -> list[tuple[int, int]]:
    """``total`` cut into ``size`` chunks, as ``(chunk, count)`` runs in order."""

    full, rest = divmod(total, size)
    return [(chunk, count) for chunk, count in ((size, full), (rest, 1))
            if chunk and count]


def simulate_tiled_gemm(m: int, k: int, n: int, *,
                        rows: int, columns: int, utilization: float,
                        batch: int, plan: TilePlan,
                        dram_words_per_cycle: float,
                        sram_words_per_cycle: float,
                        drain_words_per_cycle: float,
                        stationary_dram: bool,
                        streamed_dram: bool) -> GemmMemTrace:
    """Run ``batch`` tiled ``(m x k) @ (k x n)`` products through the pipeline.

    ``stationary_dram`` / ``streamed_dram`` say which interface feeds each
    operand (chosen by the caller from operand-residency checks); drained
    outputs always write back to SRAM.  Raises :class:`ValueError` naming the
    argument when a dimension, ``batch`` or a plan tile is below 1,
    ``utilization`` is outside ``(0, 1]``, or a rate is not positive (``inf``
    is allowed).
    """

    for name, value in (("m", m), ("k", k), ("n", n), ("batch", batch),
                        ("plan.tile_m", plan.tile_m), ("plan.tile_k", plan.tile_k),
                        ("plan.tile_n", plan.tile_n)):
        if not value >= 1:
            raise ValueError(f"{name} must be >= 1, got {value!r}")
    if not 0 < utilization <= 1:
        raise ValueError(f"utilization must be in (0, 1], got {utilization!r}")
    for name, rate in (("dram_words_per_cycle", dram_words_per_cycle),
                       ("sram_words_per_cycle", sram_words_per_cycle),
                       ("drain_words_per_cycle", drain_words_per_cycle)):
        if not rate > 0:
            raise ValueError(f"{name} must be > 0 (inf allowed), got {rate!r}")

    stationary_rate = dram_words_per_cycle if stationary_dram else sram_words_per_cycle
    streamed_rate = dram_words_per_cycle if streamed_dram else sram_words_per_cycle

    def compute(chunk_m: int) -> int:
        return math.ceil(chunk_m / utilization)

    def load(chunk_m: int, tile_n: int, tile_k: int) -> int:
        return (_transfer_cycles(tile_k * tile_n, stationary_rate)
                + _transfer_cycles(chunk_m * tile_k, streamed_rate))

    def drain(chunk_m: int, tile_n: int) -> int:
        return _transfer_cycles(chunk_m * tile_n, drain_words_per_cycle)

    m_runs = _runs(m, plan.tile_m)
    n_runs = _runs(n, plan.tile_n)
    k_runs = _runs(k, plan.tile_k)
    m_chunks = sum(count for _, count in m_runs)
    n_tiles = sum(count for _, count in n_runs)
    k_tiles = sum(count for _, count in k_runs)
    # Every m-chunk opens by loading the first (n, k) tile and closes by
    # draining its last n-tile; only the last k-tile of an n-tile drains.
    first_n, first_k = n_runs[0][0], k_runs[0][0]
    last_n = n_runs[-1][0]

    # Array fill once per batched GEMM, as in the analytic model.
    compute_cycles = rows + columns
    load_stall = load(m_runs[0][0], first_n, first_k)
    drain_stall = drain(m_runs[-1][0], last_n)
    for chunk_m, count in m_runs:
        # Inside an m-chunk every load and drain overlaps the chunk's own
        # compute window, except the opening load and the closing drain.
        window = compute(chunk_m)
        loads = sum(count_n * count_k * max(0, load(chunk_m, tile_n, tile_k) - window)
                    for tile_n, count_n in n_runs for tile_k, count_k in k_runs)
        drains = sum(count_n * max(0, drain(chunk_m, tile_n) - window)
                     for tile_n, count_n in n_runs)
        repeats = count * batch
        compute_cycles += repeats * n_tiles * k_tiles * window
        load_stall += repeats * (loads - max(0, load(chunk_m, first_n, first_k) - window))
        drain_stall += repeats * (drains - max(0, drain(chunk_m, last_n) - window))

    # Adjacent m-chunks as (before, after, times): a run into itself and into
    # the next run within every batch, the last run into the first between
    # batches.  The opening load overlaps the chunk before; the closing drain
    # overlaps the chunk after.
    boundaries = [(chunk_m, chunk_m, (count - 1) * batch) for chunk_m, count in m_runs]
    boundaries += [(before, after, batch)
                   for (before, _), (after, _) in zip(m_runs, m_runs[1:])]
    boundaries.append((m_runs[-1][0], m_runs[0][0], batch - 1))
    for before, after, times in boundaries:
        load_stall += times * max(0, load(after, first_n, first_k) - compute(before))
        drain_stall += times * max(0, drain(before, last_n) - compute(after))

    stationary_words = batch * m_chunks * k * n
    streamed_words = batch * n_tiles * m * k
    dram_words = ((stationary_words if stationary_dram else 0)
                  + (streamed_words if streamed_dram else 0))
    sram_words = ((0 if stationary_dram else stationary_words)
                  + (0 if streamed_dram else streamed_words)
                  + batch * m * n)
    return GemmMemTrace(
        tiles=batch * m_chunks * n_tiles * k_tiles,
        compute_cycles=compute_cycles,
        load_stall_cycles=load_stall,
        drain_stall_cycles=drain_stall,
        dram_words=dram_words,
        sram_words=sram_words,
        macs=m * k * n * batch,
    )
