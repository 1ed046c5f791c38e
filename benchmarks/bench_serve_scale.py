"""Serving at scale: wall throughput and peak memory of streaming summaries.

Not a paper artifact — the scaling harness for the ROADMAP's million-request
serving item.  One ``serve(..., summary="streaming")`` run per decade of
offered load (10^4 and 10^5 requests always; 10^6 when ``REPRO_BENCH_FULL``
is set) on a fixed 4-replica fleet, recording simulated requests per wall
second and tracemalloc peak memory.  The peak must stay independent of the
request count — that is the point of the streaming report path: lazy
arrivals, an indexed router, and P² sketches instead of every latency.
With ``--json DIR`` the run leaves a ``BENCH_serve_scale.json`` record for
the performance trajectory.
"""

import os
import time
import tracemalloc

from repro.serve import PoissonTraffic, WorkloadMix, serve

RATE = 2000.0                  # ~60% utilization on the 4-replica fleet
FLEET = "4xvitality"
SIZES = (10_000, 100_000)


def _run(n_requests: int, summary: str = "streaming"):
    traffic = PoissonTraffic(rate=RATE, mix=WorkloadMix.of(["deit-tiny"]))
    start = time.perf_counter()
    report = serve(traffic, FLEET, policy="size", router="least-loaded",
                   duration=n_requests / RATE, seed=0, summary=summary)
    return report, time.perf_counter() - start


def _peak_mib(n_requests: int) -> float:
    """Peak traced allocation of one streaming run, in MiB.

    Traced separately from the timed run: tracemalloc costs roughly a 2x
    slowdown, which would corrupt the throughput figure.
    """

    tracemalloc.start()
    _run(n_requests)
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    return peak / 2**20


def test_serve_scale(report, bench_json):
    sizes = SIZES + ((1_000_000,) if os.environ.get("REPRO_BENCH_FULL")
                     else ())
    _run(1_000)              # warm the engine cache and import machinery
    rows = {}
    for size in sizes:
        run_report, wall = _run(size)
        assert run_report.completed == run_report.offered
        rows[size] = {
            "offered": run_report.offered,
            "wall_seconds": round(wall, 3),
            "requests_per_second": round(run_report.offered / wall, 1),
            "peak_mib": round(_peak_mib(size), 3),
        }
    report("Serving at scale — streaming summaries on 4xvitality", rows)
    largest = rows[sizes[-1]]
    bench_json("serve_scale", largest["wall_seconds"],
               requests=largest["offered"],
               requests_per_second=largest["requests_per_second"],
               peak_mib=largest["peak_mib"],
               **{f"rps_{size}": row["requests_per_second"]
                  for size, row in rows.items()},
               **{f"peak_mib_{size}": row["peak_mib"]
                  for size, row in rows.items()})
    # The req/s floor is deliberately loose (CI runners are slow and
    # single-core); the trajectory JSON carries the real figure.
    assert largest["requests_per_second"] > 2000
    # Peak memory must not scale with the request count: a per-request
    # record leak would add tens of MiB per decade.
    assert rows[sizes[-1]]["peak_mib"] < 3.0 * rows[sizes[0]]["peak_mib"] + 4.0
