"""Design-space exploration: sweep microarchitecture knobs, report the Pareto set.

The paper evaluates ViTALiTy at one fixed design point (Table III: 64x64
SA-Mult at 500 MHz with 200 KB of buffers).  With the parametric core
(:mod:`repro.hardware.core`) any design point is simulatable on demand, so
this driver does what HPC performance-modelling studies do across processor
generations: expand a PE-array x frequency x buffer space into configured
targets, simulate every point (optionally in parallel), and reduce the cloud
to its Pareto frontier over end-to-end latency, energy and silicon area.

The flat per-point schema (``latency_ms`` / ``energy_mj`` / ``area_mm2`` plus
the knob string) is what ``repro dse --json`` emits and what the CI smoke
job asserts on.
"""

from __future__ import annotations

import itertools
from typing import Sequence

from repro.engine import ResultCache, Sweep, resolve
from repro.plan.optimizer import pareto_frontier

__all__ = ["explore_design_space", "roofline_experiment", "pareto_frontier"]

#: Default exploration space: a 3 x 3 x 3 cube around the Table III point.
DEFAULT_PE = ("32x32", "64x64", "128x128")
DEFAULT_FREQ = ("250mhz", "500mhz", "1ghz")
DEFAULT_SRAM_KB = (100, 200, 400)

#: Default bandwidth axis for the roofline study: starved / LPDDR-class / ample.
DEFAULT_DRAM_GBPS = (8.0, 25.0, 100.0)


def explore_design_space(model: str = "deit-tiny",
                         target: str = "vitality",
                         pe: Sequence[str] = DEFAULT_PE,
                         freq: Sequence[str] = DEFAULT_FREQ,
                         sram_kb: Sequence[int] = DEFAULT_SRAM_KB,
                         dram_gbps: Sequence[float] | None = None,
                         jobs: int | None = None,
                         cache: ResultCache | None = None) -> dict[str, object]:
    """Sweep the PE/frequency/buffer cube and return points + Pareto frontier.

    ``target`` names the family to explore (any configurable target —
    ``vitality`` by default, ``sanger`` works too).  ``dram_gbps`` optionally
    adds a DRAM-bandwidth axis: each value activates the tile-level memory
    simulator, so points pay for off-chip traffic in cycles and carry
    per-layer roofline classifications (omitting it keeps the historical
    ideal-bandwidth sweep).  ``jobs`` fans the simulations out over worker
    processes; ``cache`` lets repeated explorations (and
    ``repro --cache-dir``) skip simulated points.
    """

    knob_strings = [
        f"pe={pe_value},freq={freq_value},sram_kb={sram_value}"
        for pe_value, freq_value, sram_value
        in itertools.product(pe, freq, sram_kb)
    ]
    if dram_gbps is not None:
        knob_strings = [
            f"{base},dram_gbps={bandwidth:g}"
            for base, bandwidth in itertools.product(knob_strings, dram_gbps)
        ]
    outcome = (Sweep()
               .models(model)
               .targets(target)
               .over_configs(knob_strings)
               .run(cache=cache, jobs=jobs))

    points = []
    for spec, result in zip(outcome.specs, outcome.results):
        resolved = resolve(spec)[0]         # memoised: the sweep resolved it
        point = {
            "target": resolved.name,
            "config": result.config,
            "latency_ms": result.end_to_end_latency * 1e3,
            "energy_mj": result.end_to_end_energy * 1e3,
            "area_mm2": getattr(resolved, "area_mm2", None),
            "peak_gmacs": resolved.peak_macs_per_second / 1e9,
        }
        if result.roofline:
            point["dram_gbps"] = result.roofline[0].peak_gbps
            point["memory_bound_layers"] = sum(
                record.repeats for record in result.roofline
                if record.bound == "memory")
        points.append(point)

    # Platforms have no silicon-area model; drop the axis rather than fake it.
    axes = ["latency_ms", "energy_mj"]
    if all(point["area_mm2"] is not None for point in points):
        axes.append("area_mm2")
    frontier = pareto_frontier(points, axes)
    frontier_keys = {point["target"] for point in frontier}
    for point in points:
        point["pareto"] = point["target"] in frontier_keys

    space: dict[str, object] = {
        "pe": list(pe), "freq": list(freq), "sram_kb": list(sram_kb)}
    if dram_gbps is not None:
        space["dram_gbps"] = list(dram_gbps)
    return {
        "model": model,
        "target": target,
        "space": space,
        "objectives": axes,
        "evaluated": len(points),
        "points": points,
        "pareto_frontier": frontier,
        "cache": {"hits": outcome.hits, "misses": outcome.misses,
                  "disk_hits": outcome.disk_hits},
    }


def roofline_experiment(model: str = "deit-tiny",
                        target: str = "vitality",
                        pe: Sequence[str] = DEFAULT_PE,
                        dram_gbps: Sequence[float] = DEFAULT_DRAM_GBPS,
                        jobs: int | None = None,
                        cache: ResultCache | None = None) -> dict[str, object]:
    """Bandwidth-aware roofline study: the PE x DRAM-bandwidth trade-off.

    Under the ideal-bandwidth analytic model a bigger PE array is strictly
    faster, so the classic DSE frontier always keeps the 128x128 corner.
    With the tile-level memory simulator active, a big array behind a starved
    DRAM interface spends its cycles stalled on operand loads — and the
    frontier *demotes* it below a balanced smaller array paired with more
    bandwidth.  This driver runs that sweep (frequency and buffers pinned to
    the Table III point so bandwidth is the only memory axis) and reports the
    demotions explicitly: every non-frontier point that is dominated by a
    frontier point with a strictly smaller array.
    """

    outcome = explore_design_space(
        model=model, target=target, pe=pe, freq=("500mhz",),
        sram_kb=(200,), dram_gbps=dram_gbps, jobs=jobs, cache=cache)

    frontier = outcome["pareto_frontier"]
    demotions = []
    for point in outcome["points"]:
        if point["pareto"]:
            continue
        dominators = [
            candidate for candidate in frontier
            if candidate["area_mm2"] < point["area_mm2"]
            and candidate["latency_ms"] <= point["latency_ms"]
            and candidate["energy_mj"] <= point["energy_mj"]
        ]
        if dominators:
            best = min(dominators, key=lambda candidate: candidate["latency_ms"])
            demotions.append({
                "demoted": point["target"],
                "demoted_by": best["target"],
                "latency_ratio": point["latency_ms"] / best["latency_ms"],
                "memory_bound_layers": point.get("memory_bound_layers", 0),
            })

    outcome["demotions"] = demotions
    return outcome
