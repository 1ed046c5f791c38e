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
from dataclasses import dataclass

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


@dataclass(frozen=True)
class TilePlan:
    """The effective tile sizes for one GEMM on one array."""

    tile_m: int
    tile_k: int
    tile_n: int


@dataclass(frozen=True)
class MemSimConfig:
    """The memsim knob settings plus the derived buffer capacities.

    ``dram_gbps`` may be ``inf`` (pure tiling study, loads never stall);
    ``tile_*`` of ``None`` means "derive the largest fitting tile per GEMM".
    """

    dram_gbps: float
    tile_m: int | None
    tile_k: int | None
    tile_n: int | None
    ibuf_words: int
    wbuf_words: int
    obuf_words: int

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
        half = self._half
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
                and tile_k * tile_n > half(self.wbuf_words):
            raise KnobError(
                f"stationary tile tile_k={tile_k} x tile_n={tile_n} "
                f"({tile_k * tile_n} words) exceeds the double-buffered "
                f"weight-buffer half ({half(self.wbuf_words)} words at "
                f"sram_kb={sram_kb:g}); shrink the tile or raise sram_kb")
        if self.tile_m is not None:
            if self.tile_k is not None and self.tile_m * tile_k > half(self.ibuf_words):
                raise KnobError(
                    f"input tile tile_m={self.tile_m} x tile_k={tile_k} "
                    f"({self.tile_m * tile_k} words) exceeds the "
                    f"double-buffered input-buffer half "
                    f"({half(self.ibuf_words)} words at sram_kb={sram_kb:g}); "
                    f"shrink the tile or raise sram_kb")
            if self.tile_n is not None and self.tile_m * tile_n > half(self.obuf_words):
                raise KnobError(
                    f"output tile tile_m={self.tile_m} x tile_n={tile_n} "
                    f"({self.tile_m * tile_n} words) exceeds the "
                    f"double-buffered output-buffer half "
                    f"({half(self.obuf_words)} words at sram_kb={sram_kb:g}); "
                    f"shrink the tile or raise sram_kb")

    @staticmethod
    def _half(words: int) -> int:
        return max(1, words // 2)

    def plan(self, m: int, k: int, n: int, rows: int, columns: int) -> TilePlan:
        """Effective tile sizes for an ``(m x k) @ (k x n)`` GEMM.

        Explicit knobs are clamped to the problem and array dimensions;
        derived defaults start at the array-shaped stationary tile and
        shrink until every tile fits its double-buffered half-capacity.
        """

        half = self._half
        tile_k = min(k, rows, self.tile_k if self.tile_k is not None else k)
        tile_n = min(n, columns, self.tile_n if self.tile_n is not None else n)
        if tile_k * tile_n > half(self.wbuf_words):
            tile_n = max(1, half(self.wbuf_words) // tile_k)
        tile_m_cap = min(half(self.ibuf_words) // tile_k,
                         half(self.obuf_words) // tile_n)
        tile_m = min(m, self.tile_m if self.tile_m is not None else m,
                     max(1, tile_m_cap))
        return TilePlan(tile_m=tile_m, tile_k=tile_k, tile_n=tile_n)

    def dram_words_per_cycle(self, frequency_hz: float) -> float:
        """DRAM interface rate in 16-bit words per clock cycle (may be inf)."""

        return self.dram_gbps * 1e9 / WORD_BYTES / frequency_hz

    def fits_sram(self, words: int) -> bool:
        """Whether a whole operand is resident in one on-chip buffer.

        Residency is judged against the full buffer capacity (double
        buffering constrains *tiles*, not what can live on chip); operands
        larger than a buffer stream from DRAM tile by tile.
        """

        return words <= self.ibuf_words
