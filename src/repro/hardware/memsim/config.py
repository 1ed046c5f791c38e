"""Memsim activation, buffer-capacity derivation and per-GEMM tile planning.

The on-chip buffer budget is the family's existing ``sram_kb`` knob: the
Table III reference holds 200 KB organised as four equal operand buffers
(Q/K/V/O, 50 KB each).  Memsim maps three of them onto the roles a tiled
GEMM needs — an input buffer for the streamed operand (ibuf), a weight
buffer for the stationary operand (wbuf) and an output buffer for the
accumulated results (obuf); the fourth holds inter-step intermediates
(``G``, partial scores) exactly as the analytic model assumes.  Double
buffering — loading tile ``i+1`` while tile ``i`` computes — halves the
capacity available to any single tile.

Explicit ``tile_*`` knobs are validated here, at target-construction time,
so an impossible tiling fails with an actionable :class:`KnobError` before
any simulation runs; absent knobs default per GEMM to the largest tile that
fits the array geometry and the half-buffers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

from repro.knobs import KnobConfig, KnobError

#: The knob names whose presence on a design point activates the memsim path.
MEMSIM_KNOB_NAMES = ("dram_gbps", "tile_m", "tile_n", "tile_k")

#: Every operand/result word is 16-bit.
WORD_BYTES = 2

#: The ``sram_kb`` budget is split over this many equal operand buffers
#: (Q/K/V/O in Table III); ibuf/wbuf/obuf each get one.
BUFFER_PARTITIONS = 4


def buffer_words(sram_kb: float) -> int:
    """Capacity in 16-bit words of one operand buffer (ibuf = wbuf = obuf)."""

    return int(sram_kb * 1024) // BUFFER_PARTITIONS // WORD_BYTES


class TilePlan(NamedTuple):
    """The effective tile sizes for one GEMM on one array (a named tuple:
    :meth:`MemSimConfig.plan` builds one per GEMM)."""

    tile_m: int
    tile_k: int
    tile_n: int


@dataclass(frozen=True)
class MemSimConfig:
    """The memsim knob settings plus the derived buffer capacities.

    ``dram_gbps`` may be ``inf`` (pure tiling study, loads never stall);
    ``tile_*`` of ``None`` means "derive the largest fitting tile per GEMM".
    ``ibuf_half`` / ``wbuf_half`` / ``obuf_half`` are derived at
    construction: the double-buffered half of each buffer (at least one
    word), the most words any single tile may occupy.
    """

    dram_gbps: float
    tile_m: int | None
    tile_k: int | None
    tile_n: int | None
    ibuf_words: int
    wbuf_words: int
    obuf_words: int
    ibuf_half: int = field(init=False, repr=False, compare=False)
    wbuf_half: int = field(init=False, repr=False, compare=False)
    obuf_half: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "ibuf_half", max(1, self.ibuf_words // 2))
        object.__setattr__(self, "wbuf_half", max(1, self.wbuf_words // 2))
        object.__setattr__(self, "obuf_half", max(1, self.obuf_words // 2))

    @classmethod
    def from_design(cls, design: KnobConfig | None,
                    sram_kb: float, rows: int, columns: int,
                    ) -> "MemSimConfig | None":
        """The design point's memsim configuration, ``None`` when inactive.

        ``rows``/``columns`` are the main array's geometry (validation
        target for explicit stationary tiles); auxiliary arrays clamp tiles
        to their own geometry at plan time instead.
        """

        if design is None or not any(name in design for name in MEMSIM_KNOB_NAMES):
            return None
        words = buffer_words(sram_kb)
        config = cls(
            dram_gbps=design.get("dram_gbps", math.inf),
            tile_m=design.get("tile_m"),
            tile_k=design.get("tile_k"),
            tile_n=design.get("tile_n"),
            ibuf_words=words,
            wbuf_words=words,
            obuf_words=words,
        )
        config._validate(rows, columns, sram_kb)
        return config

    def _validate(self, rows: int, columns: int, sram_kb: float) -> None:
        if self.tile_k is not None and self.tile_k > rows:
            raise KnobError(
                f"tile_k={self.tile_k} exceeds the {rows} stationary rows of "
                f"the {rows}x{columns} PE array; choose tile_k<={rows} or a "
                f"taller pe geometry")
        if self.tile_n is not None and self.tile_n > columns:
            raise KnobError(
                f"tile_n={self.tile_n} exceeds the {columns} columns of the "
                f"{rows}x{columns} PE array; choose tile_n<={columns} or a "
                f"wider pe geometry")
        tile_k = self.tile_k if self.tile_k is not None else rows
        tile_n = self.tile_n if self.tile_n is not None else columns
        if self.tile_k is not None and self.tile_n is not None \
                and tile_k * tile_n > self.wbuf_half:
            raise KnobError(
                f"stationary tile tile_k={tile_k} x tile_n={tile_n} "
                f"({tile_k * tile_n} words) exceeds the double-buffered "
                f"weight-buffer half ({self.wbuf_half} words at "
                f"sram_kb={sram_kb:g}); shrink the tile or raise sram_kb")
        if self.tile_m is not None:
            if self.tile_k is not None and self.tile_m * tile_k > self.ibuf_half:
                raise KnobError(
                    f"input tile tile_m={self.tile_m} x tile_k={tile_k} "
                    f"({self.tile_m * tile_k} words) exceeds the "
                    f"double-buffered input-buffer half "
                    f"({self.ibuf_half} words at sram_kb={sram_kb:g}); "
                    f"shrink the tile or raise sram_kb")
            if self.tile_n is not None and self.tile_m * tile_n > self.obuf_half:
                raise KnobError(
                    f"output tile tile_m={self.tile_m} x tile_n={tile_n} "
                    f"({self.tile_m * tile_n} words) exceeds the "
                    f"double-buffered output-buffer half "
                    f"({self.obuf_half} words at sram_kb={sram_kb:g}); "
                    f"shrink the tile or raise sram_kb")

    def plan(self, m: int, k: int, n: int, rows: int, columns: int) -> TilePlan:
        """Effective tile sizes for an ``(m x k) @ (k x n)`` GEMM.

        Explicit knobs are clamped to the problem and array dimensions;
        derived defaults start at the array-shaped stationary tile and
        shrink until every tile fits its double-buffered half-capacity.
        Each clamp is a comparison (a builtin ``min``/``max`` call costs
        several times more, and this runs once per GEMM).
        """

        tile_k = k if k < rows else rows
        if self.tile_k is not None and self.tile_k < tile_k:
            tile_k = self.tile_k
        tile_n = n if n < columns else columns
        if self.tile_n is not None and self.tile_n < tile_n:
            tile_n = self.tile_n
        if tile_k * tile_n > self.wbuf_half:
            tile_n = self.wbuf_half // tile_k
            if tile_n < 1:
                tile_n = 1
        tile_m = self.ibuf_half // tile_k
        output_rows = self.obuf_half // tile_n
        if output_rows < tile_m:
            tile_m = output_rows
        if tile_m < 1:
            tile_m = 1
        if m < tile_m:
            tile_m = m
        if self.tile_m is not None and self.tile_m < tile_m:
            tile_m = self.tile_m
        return tuple.__new__(TilePlan, (tile_m, tile_k, tile_n))

    def dram_words_per_cycle(self, frequency_hz: float) -> float:
        """DRAM interface rate in 16-bit words per clock cycle (may be inf)."""

        return self.dram_gbps * 1e9 / WORD_BYTES / frequency_hz
