"""Fault-free overhead of the serving resilience plumbing.

The resilience layer (deadline-budgeted retries, the per-(cell, SID)
breaker board, shed checks — see
:mod:`repro.serve.resilience`) sits on the hot path of *every* query, so
its cost when nothing is failing is the price of being prepared.  This
micro-sweep measures that price directly, paired on one machine in one
process:

* **bare** — the executor stripped back to plain concurrent serving:
  ``Resilience(breaker_threshold=0, shed=False)``;
* **resilient** — the default-on configuration every deployment gets.

Both serve the same seeded fault-free workload over a warm shared pool;
the ``resilient`` series reports ``overhead_pct`` (its wall time vs bare,
same thread count).  Wall-clock fields — ``overhead_pct`` included — move
with machine load and are excluded from the ``--compare`` gate
(:data:`repro.bench.compare.WALL_FIELDS`); the gateable contract is that
``io.total`` and ``results`` are *identical* across the two series: on the
fault-free path the plumbing may cost nanoseconds, never pages.  Answers
are asserted byte-identical to the serial engine as always.
"""

from __future__ import annotations

import random
import time
from typing import Any, Sequence

from repro.bench.serving import DEFAULT_READ_LATENCY, _build_workload
from repro.data.fixtures import build_sweep_system
from repro.serve.executor import QueryExecutor
from repro.serve.resilience import Resilience
from repro.storage.buffer import BufferPool

RESILIENCE_SCHEMA = "repro.resilience-bench/v1"

DEFAULT_THREADS = (1, 2, 4)
DEFAULT_TUPLES = 5_000
DEFAULT_QUERIES = 24
#: Timed passes per configuration; the median is reported.
DEFAULT_REPEATS = 5

#: The stripped-back executor configuration the overhead is measured
#: against — breakers off, shedding off.
BARE = Resilience(breaker_threshold=0, shed=False)


def run_resilience_benchmark(
    seed: int = 7,
    n_tuples: int = DEFAULT_TUPLES,
    threads: Sequence[int] = DEFAULT_THREADS,
    n_queries: int = DEFAULT_QUERIES,
    read_latency: float = DEFAULT_READ_LATENCY,
    repeats: int = DEFAULT_REPEATS,
    pool_capacity: int = 65_536,
) -> dict[str, Any]:
    """The paired sweep; returns a ``repro.bench``-shaped report dict."""
    system = build_sweep_system(n_tuples)
    system.disk.read_latency = read_latency
    rng = random.Random(seed)
    workload = _build_workload(system, rng, n_queries)
    expected_tids = [
        getattr(system.engine, kind)(**kwargs).tids
        for kind, kwargs in workload
    ]

    def run_pass(resilience: Resilience, pool, n_threads: int):
        with QueryExecutor(
            system,
            threads=n_threads,
            queue_depth=2 * len(workload),
            pool=pool,
            resilience=resilience,
        ) as executor:
            started = time.perf_counter()
            tickets = [
                getattr(executor, kind)(**kwargs)
                for kind, kwargs in workload
            ]
            results = [ticket.result(timeout=600.0) for ticket in tickets]
            elapsed = time.perf_counter() - started
        for expected, result in zip(expected_tids, results):
            if result.tids != expected:
                raise AssertionError(
                    "resilience-bench answer diverges from the serial engine"
                )
        return elapsed, results, executor.stats.snapshot()

    def measure(n_threads: int):
        """Best-of-``repeats`` for both configs, with the timed passes
        interleaved (bare, resilient, bare, ...) so slow machine drift
        hits both series alike and the paired overhead stays meaningful."""
        pools = {
            "bare": BufferPool(system.disk, capacity=pool_capacity),
            "resilient": BufferPool(system.disk, capacity=pool_capacity),
        }
        configs = {"bare": BARE, "resilient": Resilience()}
        for label in configs:
            run_pass(configs[label], pools[label], n_threads)  # warm-up
        outcomes: dict[str, list] = {"bare": [], "resilient": []}
        order = ["bare", "resilient"]
        for round_index in range(repeats):
            # Alternate who goes first: the second pass of a round runs
            # into caches (and garbage) the first one warmed (produced),
            # and that bias must not land on one series only.
            if round_index % 2:
                order = order[::-1]
            for label in order:
                outcomes[label].append(
                    run_pass(configs[label], pools[label], n_threads)
                )
        # Report each config's median-wall pass: less load-sensitive than
        # the mean, less lucky than the minimum.
        def median_pass(label: str):
            ranked = sorted(outcomes[label], key=lambda item: item[0])
            return ranked[len(ranked) // 2]

        return median_pass("bare"), median_pass("resilient")

    series: dict[str, Any] = {"bare": {"points": []}, "resilient": {"points": []}}
    for n_threads in threads:
        bare, resilient = measure(n_threads)
        bare_elapsed, bare_results, _ = bare
        res_elapsed, res_results, res_stats = resilient
        base_point = {
            "x": n_threads,
            "wall_ms": bare_elapsed * 1e3,
            "qps": len(workload) / bare_elapsed,
            "io": {
                "total": sum(r.stats.total_io() for r in bare_results)
            },
            "results": sum(len(r.tids) for r in bare_results),
        }
        resilient_point = {
            "x": n_threads,
            "wall_ms": res_elapsed * 1e3,
            "qps": len(workload) / res_elapsed,
            "overhead_pct": (res_elapsed - bare_elapsed) / bare_elapsed * 100,
            "io": {
                "total": sum(r.stats.total_io() for r in res_results)
            },
            "results": sum(len(r.tids) for r in res_results),
            # Fault-free: the machinery must stay entirely idle.
            "degraded_queries": res_stats["degraded_queries"],
            "breaker_skips": res_stats["breaker_skips"],
            "shed": res_stats["shed"],
        }
        if resilient_point["io"] != base_point["io"]:
            raise AssertionError(
                "resilience plumbing changed fault-free I/O "
                f"({resilient_point['io']} vs {base_point['io']})"
            )
        series["bare"]["points"].append(base_point)
        series["resilient"]["points"].append(resilient_point)

    return {
        "schema": RESILIENCE_SCHEMA,
        "seed": seed,
        "n_tuples": n_tuples,
        "n_queries": n_queries,
        "read_latency": read_latency,
        "repeats": repeats,
        "figures": {
            "resilience": {
                "title": "Fault-free overhead of serving resilience "
                f"(T={n_tuples}, {n_queries} queries, median of {repeats})",
                "series": series,
            }
        },
    }
