"""Tile-level memory simulator throughput over a sequence-length sweep.

Not a paper artifact — the performance guard for the memsim subsystem
(``repro.hardware.memsim``).  The tile pipeline is evaluated in closed form
per GEMM, so the cost of a simulation follows the number of GEMMs, not the
number of tile passes they account for.  This benchmark sweeps the sequence
length (197 -> 1024 tokens) at 25 GB/s, checks every run still produces
memory-bound layers with nonzero stalls, and records the wall time.
``tiles_per_second`` is a derived rate: the tile passes accounted for per
second of simulation, which grows with the tile count per GEMM.
"""

from __future__ import annotations

import time

from repro.engine import ResultCache, RunSpec, simulate

TARGET = "vitality[dram_gbps=25]"
TOKEN_SWEEP = (197, 512, 1024)


def memsim_layer_sweep() -> dict[str, object]:
    start = time.perf_counter()
    tiles = 0
    memory_bound_layers = 0
    stall_cycles = 0
    cache = ResultCache()
    for tokens in TOKEN_SWEEP:
        result = simulate(RunSpec(f"deit-tiny[tokens={tokens}]", target=TARGET),
                          cache=cache)
        assert result.roofline, "memsim design point must emit rooflines"
        tiles += sum(record.tiles * record.repeats for record in result.roofline)
        memory_bound_layers += sum(record.repeats for record in result.roofline
                                   if record.bound == "memory")
        stall_cycles += sum(record.stall_cycles * record.repeats
                            for record in result.roofline)
    seconds = time.perf_counter() - start
    return {
        "tokens": list(TOKEN_SWEEP),
        "tiles": tiles,
        "memory_bound_layers": memory_bound_layers,
        "stall_cycles": stall_cycles,
        "seconds": seconds,
        "tiles_per_second": tiles / seconds,
    }


def test_memsim_tiles_per_second(benchmark, report, bench_json):
    rows = benchmark.pedantic(memsim_layer_sweep, rounds=1, iterations=1)
    report("Memsim — tile throughput over a DeiT-Tiny sequence-length sweep",
           rows)
    bench_json("memsim", rows["seconds"],
               tiles=rows["tiles"],
               tiles_per_second=rows["tiles_per_second"],
               memory_bound_layers=rows["memory_bound_layers"])
    assert rows["tiles"] > 0
    assert rows["memory_bound_layers"] > 0
    assert rows["stall_cycles"] > 0
