"""Durability sweeps: recovery time vs WAL length, and scrub overhead.

Two figures, both answering an operator's question with paired, seeded
measurements:

* **recovery** — how does restart cost grow with the committed history?
  Two series over the number of journalled operations: ``wal_only``
  restores from the base checkpoint and replays the *entire* committed
  WAL, ``checkpointed`` restores from the newest fuzzy checkpoint and
  replays only the post-watermark tail.  The gateable contract is the
  shape: ``ops_replayed`` / ``record_reads`` grow linearly for
  ``wal_only`` but stay bounded (below one checkpoint interval) for
  ``checkpointed``, whose ``segments_skipped`` grows instead.  Every
  restore is verified byte-identical to the live system before its point
  is reported.

* **scrub_overhead** — what does continuous scrubbing cost the serving
  path?  A paired pattern (:func:`~benchmarks.sweeps.harness.paired_sweep`):
  the same seeded workload over warm pools, ``bare`` (no scrubber) vs ``scrubbed`` (background
  scrubber at the default throttle), interleaved repeats, median pass.
  ``overhead_pct`` is wall-clock (a timing: never gated);
  the gated contract is that ``io.total`` and ``results`` are identical —
  the scrubber reads via :meth:`~repro.storage.disk.SimulatedDisk.peek`
  and pinned snapshots, never through the query path's counters.

``python -m benchmarks.sweeps durability`` writes ``BENCH_durability.json``;
CI gates it against ``benchmarks/baselines/bench_durability_baseline.json``.
"""

from __future__ import annotations

import random
import time
from typing import Any, Sequence

from repro.backup import answer_fingerprint
from benchmarks.sweeps.harness import (
    READ_LATENCY,
    Point,
    empty_series,
    envelope,
    paired_sweep,
    serving_setup,
)
from repro.core.checkpoint import CheckpointManager, restore_system
from repro.data.fixtures import build_scenario_system
from repro.data.workload import apply_op, maintenance_ops

DURABILITY_SCHEMA = "repro.durability-bench/v1"

DEFAULT_RECOVERY_OPS = (12, 24, 48)
DEFAULT_CHECKPOINT_EVERY = 8
DEFAULT_RECOVERY_TUPLES = 150
#: Small segments so every recovery point actually exercises rotation.
DEFAULT_SEGMENT_BYTES = 1024

DEFAULT_SCRUB_TUPLES = 2_000
DEFAULT_THREADS = (2, 4)
DEFAULT_QUERIES = 24
DEFAULT_REPEATS = 5

#: The continuous-scrubbing rate an idle-ish deployment would run: small
#: work quanta, long naps.  The sweeps are pure CPU, so the duty cycle *is*
#: the serving overhead.
SCRUBBING = {
    "bare": {},
    "scrubbed": {
        "scrubbing": dict(pages_per_tick=64, cells_per_tick=4, interval=0.01)
    },
}


def _recovery_point(
    n_ops: int,
    checkpoint_every: int | None,
    seed: int,
    n_tuples: int,
    segment_bytes: int,
) -> Point:
    """Build, journal ``n_ops`` operations, restore, verify, report."""
    system = build_scenario_system(
        n_tuples, seed, wal_segment_bytes=segment_bytes
    )
    manager = CheckpointManager(system)
    manager.create()  # the base image both series restore from
    rng = random.Random(seed + n_ops)
    done = 0
    while done < n_ops:
        step = min(checkpoint_every or n_ops, n_ops - done)
        for op in maintenance_ops(system.relation, rng, step):
            apply_op(system, op)
        done += step
        # The final chunk stays uncheckpointed so the checkpointed series
        # always has a realistic tail to replay (bounded by the interval).
        if checkpoint_every and done < n_ops:
            manager.create()

    started = time.perf_counter()
    result = restore_system(system.disk)
    wall = time.perf_counter() - started
    if answer_fingerprint(result.system) != answer_fingerprint(system):
        raise AssertionError(
            f"restored answers diverge from the live system "
            f"(n_ops={n_ops}, checkpoint_every={checkpoint_every})"
        )
    return (
        Point(n_ops)
        .timing(wall_ms=wall * 1e3)
        .cost(
            ops_replayed=result.ops_replayed,
            row_pages_read=result.row_pages_read,
            fallbacks=result.fallbacks,
            record_reads=result.wal_metrics["record_reads"],
            seal_reads=result.wal_metrics["seal_reads"],
            segments_skipped=result.wal_metrics["segments_skipped"],
            segments_scanned=result.wal_metrics["segments_scanned"],
            wal_segments=len(system.wal.segments()),
        )
    )


def run_durability_benchmark(
    seed: int = 7,
    recovery_ops: Sequence[int] = DEFAULT_RECOVERY_OPS,
    checkpoint_every: int = DEFAULT_CHECKPOINT_EVERY,
    recovery_tuples: int = DEFAULT_RECOVERY_TUPLES,
    segment_bytes: int = DEFAULT_SEGMENT_BYTES,
    scrub_tuples: int = DEFAULT_SCRUB_TUPLES,
    threads: Sequence[int] = DEFAULT_THREADS,
    n_queries: int = DEFAULT_QUERIES,
    repeats: int = DEFAULT_REPEATS,
    read_latency: float = READ_LATENCY,
) -> dict[str, Any]:
    """Both sweeps; returns a ``benchmarks.sweeps``-shaped report dict."""
    recovery_series = empty_series("wal_only", "checkpointed")
    for n_ops in recovery_ops:
        for name, every in (
            ("wal_only", None),
            ("checkpointed", checkpoint_every),
        ):
            recovery_series[name]["points"].append(
                _recovery_point(
                    n_ops, every, seed, recovery_tuples, segment_bytes
                )
            )

    scrub_series, scrubbed = paired_sweep(
        serving_setup(scrub_tuples, seed, n_queries, read_latency),
        threads,
        repeats,
        SCRUBBING,
        "scrubbing",
    )

    return envelope(
        DURABILITY_SCHEMA,
        seed,
        {
            "checkpoint_every": checkpoint_every,
            "recovery_tuples": recovery_tuples,
            "segment_bytes": segment_bytes,
            "scrub_tuples": scrub_tuples,
            "n_queries": n_queries,
            "repeats": repeats,
            "read_latency": read_latency,
        },
        {
            "recovery": {
                "title": "Recovery cost vs committed WAL length "
                f"(T={recovery_tuples}, checkpoint every "
                f"{checkpoint_every} ops)",
                "series": recovery_series,
            },
            "scrub_overhead": {
                "title": "Serving overhead of the background scrubber "
                f"(T={scrub_tuples}, {n_queries} queries, "
                f"median of {repeats})",
                "series": scrub_series,
            },
        },
        # Pass counts and scan totals move with machine speed.
        timings={
            "scrub_stats": {
                str(n_threads): served.scrub
                for n_threads, served in zip(threads, scrubbed)
            }
        },
    )
