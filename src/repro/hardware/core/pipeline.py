"""Intra-layer pipeline model (Section IV-C, Fig. 7).

The six steps of Algorithm 1 run on four chunks (accumulator array, divider
array, adder array, systolic array).  Executed sequentially, the light
pre/post-processing steps add up to a large share of the layer latency (this
is what Table II shows happening on a GPU).  The ViTALiTy accelerator instead
overlaps them: while the adder array finishes mean-centering the keys, the
already-produced columns feed the systolic array and the accumulator array;
once the first outputs of ``Q G`` / ``Q k_hat_sum^T`` appear, the adder and
divider arrays start producing the numerator, denominator and final score.

The model captures this with a chunk-occupancy schedule: the pipelined layer
latency is the maximum chunk busy time plus a fill overhead equal to the
longest single non-dominant stage (the pipeline cannot hide the first
occurrence of each dependency), while the sequential latency is the plain sum
of all step latencies.
"""

from __future__ import annotations

from typing import Sequence

#: One step as the hardware models account it: ``(name, chunk, cycles,
#: energy_joules)``, with integer cycles.
Step = tuple[str, str, int, float]


def sequential_latency(steps: Sequence[Step]) -> int:
    """Total cycles when every step runs back to back (no overlap)."""

    return sum(cycles for _, _, cycles, _ in steps)


def pipeline_latency(steps: Sequence[Step]) -> int:
    """Cycles with intra-layer pipelining across chunks.

    Steps mapped to different chunks overlap; the dominant chunk bounds the
    throughput and the longest non-dominant step is paid once as fill/drain
    overhead.
    """

    busy_per_chunk: dict[str, int] = {}
    for _, chunk, cycles, _ in steps:
        busy_per_chunk[chunk] = busy_per_chunk.get(chunk, 0) + cycles
    if not busy_per_chunk:
        return 0
    dominant_chunk = max(busy_per_chunk, key=busy_per_chunk.get)
    fill_overhead = max((cycles for _, chunk, cycles, _ in steps
                         if chunk != dominant_chunk), default=0)
    return busy_per_chunk[dominant_chunk] + fill_overhead
