"""Reproducible benchmark runner: ``python -m benchmarks.sweeps``.

Runs the seeded scenarios of Figures 5, 6, 8, 9, 10 and 13
(:mod:`benchmarks.sweeps.scenarios`; ``benchmarks/test_figures.py`` asserts
their shapes) and emits one ``BENCH_pcube.json``::

    {
      "schema": "repro.bench/v1",
      "seed": 7, "sizes": [...], "n_queries": 5,
      "fields": {"wall_ms": "timing", "io": "cost", "results": "answer", ...},
      "figures": {
        "fig08": {
          "title": "...",
          "series": {
            "Signature": {"points": [
              {"x": 10000, "wall_ms": ..., "io": {"SSIG": ..., "total": ...},
               "heap_peak": ..., "prune_counts": {"pref": ..., "bool": ...},
               "results": ...}, ...]},
            ...
          }
        }, ...
      }
    }

The other sweeps (:data:`SWEEPS`) keep the ``figures → series → points``
shape.  Every field of a point is typed where it is emitted — timing, cost
or answer size (:mod:`benchmarks.sweeps.harness`) — and the typing
travels in the report's ``fields`` table.  Two runs with the same seed produce
byte-identical JSON once :func:`strip_timings` has dropped the timings;
everything else is gateable with ``--compare baseline.json --fail-over
pct`` (see :mod:`benchmarks.sweeps.compare`).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Any, Callable, Iterable

from benchmarks.sweeps import durability, serving
from benchmarks.sweeps.compare import Delta, compare_reports, flatten_metrics
from benchmarks.sweeps.harness import envelope, strip_timings
from benchmarks.sweeps.kernels import run_kernels_benchmark
from benchmarks.sweeps.report import format_table, render_report
from benchmarks.sweeps.routing import run_routing_benchmark
from benchmarks.sweeps.scenarios import SCENARIOS, BenchContext
from repro.data.fixtures import N_QUERIES, SWEEP_SIZES

SCHEMA = "repro.bench/v1"

__all__ = [
    "SCENARIOS",
    "SCHEMA",
    "SWEEPS",
    "BenchContext",
    "Delta",
    "Sweep",
    "compare_reports",
    "dumps_report",
    "flatten_metrics",
    "format_table",
    "render_report",
    "run_benchmarks",
    "strip_timings",
]


def run_benchmarks(
    figures: Iterable[str] | None = None,
    seed: int = 7,
    sizes: Iterable[int] | None = None,
    n_queries: int = N_QUERIES,
) -> dict[str, Any]:
    """Run the selected figure scenarios and assemble the report dict."""
    selected = list(figures) if figures is not None else list(SCENARIOS)
    unknown = [name for name in selected if name not in SCENARIOS]
    if unknown:
        known = ", ".join(SCENARIOS)
        raise ValueError(f"unknown figures {unknown}; known: {known}")
    ctx = BenchContext(
        seed=seed,
        sizes=tuple(sizes) if sizes is not None else SWEEP_SIZES,
        n_queries=n_queries,
    )
    return envelope(
        SCHEMA,
        ctx.seed,
        {"sizes": list(ctx.sizes), "n_queries": ctx.n_queries},
        {name: SCENARIOS[name](ctx) for name in selected},
    )


@dataclass(frozen=True)
class Sweep:
    """One row of the sweep table ``python -m benchmarks.sweeps <sweep>`` reads."""

    run: Callable[..., dict[str, Any]]
    #: Where the report goes without ``--out``.
    out: str
    #: Worker-thread counts the runner sweeps, ``None`` if it takes none.
    threads: tuple[int, ...] | None = None


SWEEPS: dict[str, Sweep] = {
    "figures": Sweep(run_benchmarks, "BENCH_pcube.json"),
    "serving": Sweep(
        serving.run_serving_benchmark,
        "BENCH_serving.json",
        serving.DEFAULT_THREADS,
    ),
    "durability": Sweep(
        durability.run_durability_benchmark,
        "BENCH_durability.json",
        durability.DEFAULT_THREADS,
    ),
    "routing": Sweep(run_routing_benchmark, "BENCH_routing.json"),
    "kernels": Sweep(run_kernels_benchmark, "BENCH_kernels.json"),
}


def dumps_report(report: dict[str, Any]) -> str:
    """Canonical JSON text: sorted keys, two-space indent, newline-final."""
    return json.dumps(report, indent=2, sort_keys=True) + "\n"
