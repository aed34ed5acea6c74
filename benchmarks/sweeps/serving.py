"""Serving throughput sweep: shared-pool concurrency vs the paper mode.

The scenario measures what the snapshot-isolation work buys at serving
time.  One seeded system, one seeded mixed workload (skyline + top-k),
under a modeled per-read disk latency (``SimulatedDisk.read_latency``,
slept outside every lock so concurrent queries overlap their I/O):

* **cold** — the paper-comparable baseline: one thread, a fresh buffer
  pool per query, every page access paying the modeled latency;
* **shared** — the steady-state serving mode: a :class:`QueryExecutor`
  with N worker threads over one shared warm :class:`BufferPool` (one
  untimed warm-up pass populates it);
* **shared-cold** — the same executor with the pool emptied before each
  pass: every pass re-reads its working set, so this series shows how
  much of the miss latency concurrent workers overlap.

Reported per point: throughput (``qps``), speedup over cold, queue-wait
mean, and the deterministic gate fields — ``io.total`` and ``results``
(identical answers are also *asserted*, not just reported: every mode must
reproduce the cold baseline's tids exactly).  The throughput fields are
wall-clock, emitted as timings and therefore never gated (see
:mod:`benchmarks.sweeps.harness`); the ``shared-cold`` series omits
``io.total`` because two workers missing the same page concurrently both
(correctly) count a read, making its total interleaving-dependent.
"""

from __future__ import annotations

from typing import Any, Sequence

from benchmarks.sweeps.harness import (
    POOL_CAPACITY,
    READ_LATENCY,
    empty_series,
    envelope,
    serve_pass,
    served_point,
    serving_setup,
)
from repro.storage.buffer import BufferPool

SERVING_SCHEMA = "repro.serve-bench/v1"

#: Defaults: enough work to amortise thread startup, small enough for CI.
DEFAULT_THREADS = (1, 2, 4)
DEFAULT_TUPLES = 5_000
DEFAULT_QUERIES = 24


def run_serving_benchmark(
    seed: int = 7,
    n_tuples: int = DEFAULT_TUPLES,
    threads: Sequence[int] = DEFAULT_THREADS,
    n_queries: int = DEFAULT_QUERIES,
    read_latency: float = READ_LATENCY,
) -> dict[str, Any]:
    """The full sweep; returns a ``benchmarks.sweeps``-shaped report dict."""
    system, workload, cold = serving_setup(  # cold: the paper mode
        n_tuples, seed, n_queries, read_latency
    )
    pool = BufferPool(system.disk, capacity=POOL_CAPACITY)

    def point(label: str, n_threads: int, with_io: bool = True):
        served = serve_pass(
            system, workload, cold, f"{label}-{n_threads}", n_threads, pool
        )
        return served_point(n_threads, served, with_io).timing(
            speedup_vs_cold=cold.elapsed / served.elapsed,
            queue_wait_ms=served.stats["queue_wait_mean"] * 1e3,
        )

    figure = empty_series("cold", "shared", "shared-cold")
    figure["cold"]["points"].append(
        served_point(1, cold).timing(speedup_vs_cold=1.0, queue_wait_ms=0.0)
    )
    point("warm-up", max(threads))  # untimed: populate the shared pool
    for n_threads in threads:
        figure["shared"]["points"].append(point("shared", n_threads))
    for n_threads in threads:
        pool.clear()  # every pass re-reads the working set from "disk"
        figure["shared-cold"]["points"].append(
            point("shared-cold", n_threads, with_io=False)
        )

    return envelope(
        SERVING_SCHEMA,
        seed,
        {
            "n_tuples": n_tuples,
            "n_queries": n_queries,
            "read_latency": read_latency,
        },
        {
            "serving": {
                "title": "Serving throughput vs worker threads "
                f"(T={n_tuples}, {n_queries} queries, "
                f"{read_latency * 1e6:.0f}µs/read)",
                "series": figure,
            }
        },
    )
