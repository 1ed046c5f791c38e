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

The sums are evaluated in closed form, not pass by pass.  Each axis is
``tiles - 1`` chunks of its first size followed by one chunk of its last size
(the remainder, or a full chunk when nothing remains), so a pass has at most
eight shapes and every total is a sum of per-shape values times their
counts.  Each stationary ``(n, k)`` tile load is computed once per GEMM, and
each m-chunk size's streamed loads, drains and compute window once.  A
pass's compute window depends only on its m-chunk, so adjacent passes pair
different compute windows only across an m-chunk boundary; those boundaries
are counted per pair of m-chunk sizes.  The cost of one GEMM is therefore
independent of its tile count, and the result is exactly what the
pass-by-pass pipeline gives.
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

    tile_m, tile_k, tile_n = plan
    if not (m >= 1 and k >= 1 and n >= 1 and batch >= 1 and tile_m >= 1
            and tile_k >= 1 and tile_n >= 1 and 0 < utilization <= 1
            and dram_words_per_cycle > 0 and sram_words_per_cycle > 0
            and drain_words_per_cycle > 0):
        for name, value in (("m", m), ("k", k), ("n", n), ("batch", batch),
                            ("plan.tile_m", tile_m), ("plan.tile_k", tile_k),
                            ("plan.tile_n", tile_n)):
            if not value >= 1:
                raise ValueError(f"{name} must be >= 1, got {value!r}")
        if not 0 < utilization <= 1:
            raise ValueError(f"utilization must be in (0, 1], got {utilization!r}")
        for name, rate in (("dram_words_per_cycle", dram_words_per_cycle),
                           ("sram_words_per_cycle", sram_words_per_cycle),
                           ("drain_words_per_cycle", drain_words_per_cycle)):
            if not rate > 0:
                raise ValueError(f"{name} must be > 0 (inf allowed), got {rate!r}")

    # A transfer of w words at r words per cycle takes ceil(w / r) cycles: 0
    # at r = inf, and every chunk holds at least one word.
    ceil = math.ceil
    stationary_rate = dram_words_per_cycle if stationary_dram else sram_words_per_cycle
    streamed_rate = dram_words_per_cycle if streamed_dram else sram_words_per_cycle
    m_tiles, k_tiles, n_tiles = -(-m // tile_m), -(-k // tile_k), -(-n // tile_n)
    first_m = tile_m if m_tiles > 1 else m
    first_k = tile_k if k_tiles > 1 else k
    first_n = tile_n if n_tiles > 1 else n
    last_m = m - (m_tiles - 1) * tile_m
    last_k = k - (k_tiles - 1) * tile_k
    last_n = n - (n_tiles - 1) * tile_n
    # The stationary load of each (n-tile, k-tile) size pair, first or last.
    stationary_ff = ceil(first_k * first_n / stationary_rate)
    stationary_fl = ceil(last_k * first_n / stationary_rate)
    stationary_lf = ceil(first_k * last_n / stationary_rate)
    stationary_ll = ceil(last_k * last_n / stationary_rate)

    # Per m-chunk size: its compute window, its opening load (first n-tile
    # and k-tile), its closing drain (last n-tile; only an n-tile's last
    # k-tile drains), and the stalls of its other loads and drains: the
    # cycles each runs past the chunk's window (a comparison, not ``max``).
    shapes = []
    for chunk_m in (first_m, last_m) if first_m != last_m else (first_m,):
        window = ceil(chunk_m / utilization)
        streamed_f = ceil(chunk_m * first_k / streamed_rate)
        streamed_l = ceil(chunk_m * last_k / streamed_rate)
        opening = stationary_ff + streamed_f
        load_fl = stationary_fl + streamed_l
        load_lf = stationary_lf + streamed_f
        load_ll = stationary_ll + streamed_l
        opening_stall = opening - window if opening > window else 0
        loads = ((n_tiles - 1) * ((k_tiles - 1) * opening_stall
                                  + (load_fl - window if load_fl > window else 0))
                 + (k_tiles - 1) * (load_lf - window if load_lf > window else 0)
                 + (load_ll - window if load_ll > window else 0)
                 - opening_stall)
        drain = ceil(chunk_m * first_n / drain_words_per_cycle)
        drains = (n_tiles - 1) * (drain - window) if drain > window else 0
        closing = ceil(chunk_m * last_n / drain_words_per_cycle)
        shapes.append((window, opening, closing, loads, drains))
    window_f, opening_f, closing_f, loads_f, drains_f = shapes[0]
    window_l, opening_l, closing_l, loads_l, drains_l = shapes[-1]

    # Array fill once per batched GEMM, as in the analytic model.
    passes = n_tiles * k_tiles
    compute_cycles = rows + columns + batch * passes * (
        (m_tiles - 1) * window_f + window_l)
    load_stall = opening_f + batch * ((m_tiles - 1) * loads_f + loads_l)
    drain_stall = closing_l + batch * ((m_tiles - 1) * drains_f + drains_l)
    # Adjacent m-chunks: an opening load overlaps the chunk before, a closing
    # drain the chunk after.  The last chunk of a batch meets the first of
    # the next; within a batch, the first-size chunks meet m_tiles - 2 times
    # and then the last chunk once.
    if opening_f > window_l:
        load_stall += (batch - 1) * (opening_f - window_l)
    if closing_l > window_f:
        drain_stall += (batch - 1) * (closing_l - window_f)
    if m_tiles > 1:
        if opening_f > window_f:
            load_stall += batch * (m_tiles - 2) * (opening_f - window_f)
        if opening_l > window_f:
            load_stall += batch * (opening_l - window_f)
        if closing_f > window_f:
            drain_stall += batch * (m_tiles - 2) * (closing_f - window_f)
        if closing_f > window_l:
            drain_stall += batch * (closing_f - window_l)

    stationary_words = batch * m_tiles * k * n
    streamed_words = batch * n_tiles * m * k
    dram_words = ((stationary_words if stationary_dram else 0)
                  + (streamed_words if streamed_dram else 0))
    sram_words = ((0 if stationary_dram else stationary_words)
                  + (0 if streamed_dram else streamed_words)
                  + batch * m * n)
    return GemmMemTrace(
        tiles=batch * m_tiles * passes,
        compute_cycles=compute_cycles,
        load_stall_cycles=load_stall,
        drain_stall_cycles=drain_stall,
        dram_words=dram_words,
        sram_words=sram_words,
        macs=m * k * n * batch,
    )
