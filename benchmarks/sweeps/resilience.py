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
with machine load and are emitted as timings, which the ``--compare`` gate
never sees (:mod:`benchmarks.sweeps.harness`); the gateable contract is that
``io.total`` and ``results`` are *identical* across the two series: on the
fault-free path the plumbing may cost nanoseconds, never pages.  Answers
are asserted byte-identical to the serial engine as always.
"""

from __future__ import annotations

from typing import Any, Sequence

from benchmarks.sweeps.harness import (
    READ_LATENCY,
    envelope,
    paired_sweep,
    serving_setup,
)
from repro.serve.resilience import Resilience

RESILIENCE_SCHEMA = "repro.resilience-bench/v1"

DEFAULT_THREADS = (1, 2, 4)
DEFAULT_TUPLES = 5_000
DEFAULT_QUERIES = 24
#: Timed passes per configuration; the median is reported.
DEFAULT_REPEATS = 5

#: The two executor configurations: the one the overhead is measured
#: against — breakers off, shedding off — and the default-on one every
#: deployment gets.
CONFIGS = {
    "bare": {"resilience": Resilience(breaker_threshold=0, shed=False)},
    "resilient": {"resilience": Resilience()},
}


def run_resilience_benchmark(
    seed: int = 7,
    n_tuples: int = DEFAULT_TUPLES,
    threads: Sequence[int] = DEFAULT_THREADS,
    n_queries: int = DEFAULT_QUERIES,
    read_latency: float = READ_LATENCY,
    repeats: int = DEFAULT_REPEATS,
) -> dict[str, Any]:
    """The paired sweep; returns a ``benchmarks.sweeps``-shaped report dict."""
    figure, served = paired_sweep(
        serving_setup(n_tuples, seed, n_queries, read_latency),
        threads,
        repeats,
        CONFIGS,
        "resilience plumbing",
    )
    for point, resilient in zip(figure["resilient"]["points"], served):
        # Fault-free: the machinery must stay entirely idle.
        point.cost(
            degraded_queries=resilient.stats["degraded_queries"],
            breaker_skips=resilient.stats["breaker_skips"],
            shed=resilient.stats["shed"],
        )

    return envelope(
        RESILIENCE_SCHEMA,
        seed,
        {
            "n_tuples": n_tuples,
            "n_queries": n_queries,
            "read_latency": read_latency,
            "repeats": repeats,
        },
        {
            "resilience": {
                "title": "Fault-free overhead of serving resilience "
                f"(T={n_tuples}, {n_queries} queries, median of {repeats})",
                "series": figure,
            }
        },
    )
