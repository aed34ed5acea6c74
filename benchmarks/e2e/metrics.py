"""Every metric the benchmark prints, declared once.

``BENCHMARK.json`` at the repo root is :func:`manifest` written out; the
self-tests fail when the two drift apart.  ``moves`` is the prediction the
README's interaction table is built from: which end-to-end metric a layer
metric should move, and on which workload.
"""

from __future__ import annotations

from dataclasses import dataclass

from benchmarks.e2e.workloads import WORKLOADS

RUN_SECONDS = 8
COMMAND = ["python3", "benchmarks/e2e/run.py"]
PATHS = ["benchmarks/e2e"]


@dataclass(frozen=True)
class EndToEnd:
    name: str
    unit: str
    better: str
    #: Share of the parent's median by which the metric may worsen.
    bound: float
    meaning: str


@dataclass(frozen=True)
class PerLayer:
    name: str
    unit: str
    better: str
    moves: str


END_TO_END: tuple[EndToEnd, ...] = (
    EndToEnd(
        "setup_s", "s", "lower", 0.25,
        "relation generation + build_system + executor start + warm-up "
        "(median of three set-ups per run)",
    ),
    EndToEnd(
        "ops_per_s", "1/s", "higher", 0.15,
        "ops completed / summed op wall of the timed pass (one closed-loop "
        "client, so there is no think time to add)",
    ),
    EndToEnd(
        "read_p50_ms", "ms", "lower", 0.25,
        "submit -> Ticket.result() per read, median",
    ),
    EndToEnd(
        "read_p95_ms", "ms", "lower", 0.25,
        "submit -> Ticket.result() per read, 95th percentile",
    ),
    EndToEnd(
        "pages_per_read", "pages", "lower", 0.15,
        "logical page touches per read (pool hits + misses): the paper's "
        "Fig 9 count, independent of pool state",
    ),
    EndToEnd(
        "store_bytes_per_tuple", "B", "lower", 0.05,
        "disk.size_bytes('pcube') / live tuples at the end of the run",
    ),
    EndToEnd(
        "peak_rss_mb", "MB", "lower", 0.10,
        "ru_maxrss of the workload's process",
    ),
)


def _layer(moves: str, *rows: tuple[str, str, str]) -> list[PerLayer]:
    return [PerLayer(name, unit, better, moves) for name, unit, better in rows]


PER_LAYER: tuple[PerLayer, ...] = (
    # Measured in the untraced pass, reported here because they are zero on
    # the read-only workloads (an end-to-end metric may never be zero).
    *_layer(
        "mixed_rw: is itself what a writer sees; nothing on the read-only "
        "workloads",
        ("system.write_p50_ms", "ms", "lower"),
        ("system.write_p90_ms", "ms", "lower"),
        ("system.disk_io_per_write", "pages", "lower"),
    ),
    *_layer(
        "read_p50_ms on routed_zipf; failed ops everywhere",
        ("serve.overhead_ms", "ms", "lower"),
        ("serve.queue_wait_ms", "ms", "lower"),
        ("serve.refused", "count", "lower"),
        ("serve.degraded_queries", "count", "lower"),
    ),
    *_layer(
        "ops_per_s, read_p50_ms, read_p95_ms and pages_per_read on "
        "routed_zipf; system.write_p50_ms on mixed_rw; nothing on sig_fit / "
        "sig_spill (routing off)",
        ("route.self_ms", "ms", "lower"),
        ("route.cache_hit_rate", "ratio", "higher"),
        ("route.cache_entries_invalidated_per_write", "count", "lower"),
        ("route.io_per_miss", "pages", "lower"),
        ("route.fell_back", "count", "lower"),
        ("route.share.signature", "ratio", "higher"),
        ("route.share.boolean-first", "ratio", "lower"),
        ("route.share.domination-first", "ratio", "lower"),
        ("route.share.index-merge", "ratio", "lower"),
        ("route.share.naive", "ratio", "lower"),
    ),
    *_layer(
        "read_p50_ms and ops_per_s on sig_fit; read_p95_ms on routed_zipf; "
        "pages_per_read everywhere",
        ("query.skyline_ms", "ms", "lower"),
        ("query.topk_ms", "ms", "lower"),
        ("query.dynamic_ms", "ms", "lower"),
        ("query.alg1_self_ms", "ms", "lower"),
        ("query.nodes_expanded_per_read", "count", "lower"),
        ("query.peak_heap_p95", "count", "lower"),
        ("query.bool_pruned_per_read", "count", "higher"),
        ("query.dom_pruned_per_read", "count", "higher"),
        ("query.results_per_read", "count", "higher"),
    ),
    *_layer(
        "read_p95_ms on routed_zipf",
        ("baselines.busy_ms_per_miss", "ms", "lower"),
    ),
    *_layer(
        "read_p50_ms on sig_fit; little on sig_spill",
        ("kernels.calls_per_read", "count", "lower"),
        ("kernels.busy_ms_per_read", "ms", "lower"),
        ("kernels.rows_per_call", "count", "higher"),
    ),
    *_layer(
        "storage.disk_reads_per_read and read_p50_ms on sig_spill (the "
        "Fig 15 split)",
        ("core.reader_ms_per_read", "ms", "lower"),
        ("core.sig_loads_per_read", "count", "lower"),
        ("core.sig_load_ms_per_read", "ms", "lower"),
        ("core.sig_decode_ms_per_read", "ms", "lower"),
        ("core.epoch_pin_ms_per_read", "ms", "lower"),
    ),
    *_layer(
        "system.write_p50_ms, ops_per_s, system.disk_io_per_write and "
        "store_bytes_per_tuple on mixed_rw; zero on the read-only workloads",
        ("core.maint_self_ms_per_write", "ms", "lower"),
        ("core.apply_changes_ms_per_write", "ms", "lower"),
        ("core.put_signature_ms_per_write", "ms", "lower"),
        ("core.cells_rewritten_per_write", "count", "lower"),
        ("core.partials_written_per_write", "count", "lower"),
        ("core.wal_ms_per_write", "ms", "lower"),
        ("core.wal_records_per_write", "count", "lower"),
        ("core.epoch_publish_ms_per_write", "ms", "lower"),
    ),
    *_layer(
        "system.write_p50_ms on mixed_rw (compress); read_p50_ms on "
        "sig_spill (decompress)",
        ("bitmap.compress_ms_per_write", "ms", "lower"),
        ("bitmap.compress_calls_per_write", "count", "lower"),
        ("bitmap.decompress_ms_per_read", "ms", "lower"),
    ),
    *_layer(
        "system.write_p50_ms on mixed_rw (update, freeze); pages_per_read "
        "on sig_fit (block reads)",
        ("rtree.update_ms_per_write", "ms", "lower"),
        ("rtree.freeze_ms_per_write", "ms", "lower"),
        ("rtree.block_reads_per_read", "pages", "lower"),
    ),
    *_layer(
        "pages_per_read on routed_zipf",
        ("btree.page_reads_per_read", "pages", "lower"),
    ),
    *_layer(
        "system.write_p50_ms on mixed_rw (relation); read_p50_ms on sig_fit "
        "(pref_block)",
        ("cube.relation_ms_per_write", "ms", "lower"),
        ("cube.pref_block_ms_per_read", "ms", "lower"),
    ),
    *_layer(
        "read_p50_ms and ops_per_s on sig_spill; hit rate is about 1 on "
        "sig_fit, so nothing moves there; system.disk_io_per_write on "
        "mixed_rw",
        ("storage.disk_reads_per_read", "pages", "lower"),
        ("storage.pool_hit_rate", "ratio", "higher"),
        ("storage.pool_gets_per_read", "count", "lower"),
        ("storage.disk_read_ms_per_read", "ms", "lower"),
        ("storage.disk_reads.SSIG", "pages", "lower"),
        ("storage.disk_reads.SBLOCK", "pages", "lower"),
        ("storage.disk_reads.DBLOCK", "pages", "lower"),
        ("storage.disk_reads.DBOOL", "pages", "lower"),
        ("storage.disk_reads.BINDEX", "pages", "lower"),
        ("storage.disk_reads.BTABLE", "pages", "lower"),
        ("storage.disk_writes_per_write", "pages", "lower"),
        ("storage.pages_freed_per_write", "pages", "lower"),
    ),
    *_layer(
        "none; reported so the traced numbers can be trusted",
        ("bench.trace_overhead_pct", "%", "lower"),
        ("bench.unattributed_pct", "%", "lower"),
    ),
)


def manifest() -> dict:
    """The exact content of ``BENCHMARK.json``."""
    return {
        "command": COMMAND,
        "paths": PATHS,
        "run_seconds": RUN_SECONDS,
        "workloads": [
            {"name": spec.name, "why": spec.why} for spec in WORKLOADS.values()
        ],
        "end_to_end": [
            {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
            for m in END_TO_END
        ],
        "per_layer": [
            {"name": m.name, "unit": m.unit, "better": m.better}
            for m in PER_LAYER
        ],
    }
