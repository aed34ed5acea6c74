"""Set-up, the closed-loop pass, the answer checks and the metric maths.

One client thread, ``QueryExecutor(threads=1)``: the next op is sent when
the previous one returns.  Reads go ``QueryExecutor.skyline`` / ``topk`` /
``dynamic_skyline`` then ``Ticket.result()``; writes go
``PCubeSystem.insert`` / ``update`` / ``delete`` from the client thread.
"""

from __future__ import annotations

import bisect
import hashlib
import heapq
import math
import resource
import time
from statistics import median
from dataclasses import dataclass, field

import numpy as np

from repro.baselines.naive import naive_skyline, naive_topk
from repro.data.synthetic import SyntheticConfig, generate_relation
from repro.query.dynamic import naive_dynamic_skyline
from repro.serve import QueryExecutor
from repro.storage.counters import ALLOC, FREE, WRITE
from repro.storage.disk import SimulatedDisk
from repro.system import PCubeSystem, build_system

from benchmarks.e2e.tracing import SpanRecorder, TraceSummary
from benchmarks.e2e.workloads import (
    DATA_SEED,
    TOPK_K,
    Op,
    Scale,
    WorkloadSpec,
    warmup_ops,
)

CARDINALITY = 100
FANOUT = 64
#: Every 10th read is checked against the naive scan; a pass with more than
#: 400 reads widens the stride to stay at MAX_CHECKS checks (50 ms each).
CHECK_STRIDE = 10
MAX_CHECKS = 40
RESULT_TIMEOUT = 120.0
#: Probes before and after each set-up.
SETUP_PROBES = 25
ROUTE_ENGINES = (
    "signature", "boolean-first", "domination-first", "index-merge", "naive",
)
DISK_READ_CATEGORIES = ("SSIG", "SBLOCK", "DBLOCK", "DBOOL", "BINDEX", "BTABLE")


# ---------------------------------------------------------------------- #
# host speed
# ---------------------------------------------------------------------- #

#: What one probe takes on the sizing box (README "Host speed"): between
#: two ops, where the ops have emptied the CPU caches, and back to back
#: around a set-up.  Only ratios matter: a time at nominal speed is the
#: measured time divided by (probe time now / nominal).
PROBE_NOMINAL_BETWEEN_OPS = 0.75e-3
PROBE_NOMINAL_BACK_TO_BACK = 0.6e-3
#: A probe runs between ops once this much time has passed since the last.
PROBE_INTERVAL_SECONDS = 0.010
_PROBE_BLOCK = np.random.default_rng(0).random((48, 3))


def _probe_kernel() -> int:
    """A fixed unit of work shaped like the serving path: a tuple heap
    filled and drained in the interpreter, then one small numpy
    domination test."""
    heap: list = []
    for i in range(1000):
        heapq.heappush(heap, ((i * 7919) % 1009, i, (i, i + 1)))
    total = 0
    while heap:
        total += heapq.heappop(heap)[1]
    block = _PROBE_BLOCK
    dominated = (block[:, None, :] <= block[None, :, :]).all(axis=2).sum(axis=0)
    return total + int(dominated[0])


class HostSpeed:
    """The host's speed over time, sampled with a fixed probe.

    The sandbox's hosts drift by tens of percent within a minute (the same
    interpreter loop took 125 to 174 ms in one sizing session), which is
    more than every bound in ``BENCHMARK.json``.  The probe measures that
    drift beside the ops, outside their timed intervals, so each measured
    time can be restated at the nominal host speed.
    """

    def __init__(self, nominal: float = PROBE_NOMINAL_BETWEEN_OPS) -> None:
        self.nominal = nominal
        self.times: list[float] = []
        self.seconds: list[float] = []

    def probe(self) -> None:
        started = time.perf_counter()
        _probe_kernel()
        ended = time.perf_counter()
        self.times.append(started)
        self.seconds.append(ended - started)

    def probe_if_due(self) -> None:
        if not self.times or (
            time.perf_counter() - self.times[-1] > PROBE_INTERVAL_SECONDS
        ):
            self.probe()

    def factor(self, at: float | None = None) -> float:
        """Probe time over nominal: the median of the five probes around
        ``at``, or of every probe when ``at`` is ``None``."""
        if at is None:
            window = self.seconds
        else:
            index = bisect.bisect_left(self.times, at)
            window = self.seconds[max(0, index - 3) : index + 2]
        return median(window) / self.nominal


def at_nominal_speed(
    seconds: float, factor: float, device_seconds: float = 0.0
) -> float:
    """Restate a measured time at the nominal host speed.

    ``device_seconds`` — counted disk reads times the modelled device
    latency — is not host work and is carried over unscaled.
    """
    device_seconds = min(device_seconds, seconds)
    return (seconds - device_seconds) / factor + device_seconds


# ---------------------------------------------------------------------- #
# set-up
# ---------------------------------------------------------------------- #


@dataclass
class Bench:
    """One freshly built system with its executor, ready for a pass."""

    system: PCubeSystem
    executor: QueryExecutor
    #: As measured, and restated at the nominal host speed.
    setup_seconds: float
    setup_seconds_nominal: float

    def close(self) -> None:
        self.executor.shutdown()


def set_up(spec: WorkloadSpec, scale: Scale, seed: int) -> Bench:
    """Generate, build, start the executor and warm up; all of it is timed."""
    host = HostSpeed(PROBE_NOMINAL_BACK_TO_BACK)
    for _ in range(SETUP_PROBES):
        host.probe()
    started = time.perf_counter()
    disk = SimulatedDisk()
    relation = generate_relation(
        SyntheticConfig(
            n_tuples=scale.n_tuples, cardinality=CARDINALITY, seed=DATA_SEED
        ),
        disk=disk,
    )
    system = build_system(relation, fanout=FANOUT)
    executor = QueryExecutor(
        system,
        threads=1,
        pool_capacity=spec.pool_capacity,
        routing=spec.routing,
    )
    # The latency models the serving device; the build is not slowed by it.
    disk.read_latency = spec.read_latency
    for op in warmup_ops(spec, relation, seed):
        submit_read(executor, op).result(RESULT_TIMEOUT)
    elapsed = time.perf_counter() - started
    for _ in range(SETUP_PROBES):
        host.probe()
    return Bench(
        system, executor, elapsed, at_nominal_speed(elapsed, host.factor())
    )


# ---------------------------------------------------------------------- #
# one op
# ---------------------------------------------------------------------- #


def submit_read(executor: QueryExecutor, op: Op):
    if op.kind == "skyline":
        return executor.skyline(predicate=op.predicate)
    if op.kind == "topk":
        return executor.topk(op.fn, TOPK_K, predicate=op.predicate)
    return executor.dynamic_skyline(op.query_point, predicate=op.predicate)


def apply_write(system: PCubeSystem, op: Op) -> tuple:
    """Run one write; returns what the answer digest covers."""
    if op.kind == "insert":
        tid, dirty = system.insert(op.bool_row, op.pref_row)
        return (tid, *sorted(cell.cell_id for cell in dirty))
    if op.kind == "update":
        dirty = system.update(op.tid, op.pref_row)
    else:
        dirty = system.delete(op.tid)
    return tuple(sorted(cell.cell_id for cell in dirty))


def canonical_answer(kind: str, tids, scores) -> tuple:
    """The repo's differential convention: skylines by tids, top-k by the
    score vector rounded to 9 places (tie membership at k is engine-specific)."""
    if kind == "topk":
        return tuple(sorted(round(score, 9) for score in scores))
    return tuple(sorted(tids))


def expected_answer(relation, op: Op) -> tuple:
    """The naive answer over the live relation."""
    candidates = [
        (tid, relation.pref_point(tid))
        for tid in relation.live_tids()
        if op.predicate.matches(relation, tid)
    ]
    if op.kind == "skyline":
        return canonical_answer("skyline", naive_skyline(candidates), None)
    if op.kind == "topk":
        ranked = naive_topk(candidates, op.fn, TOPK_K)
        return canonical_answer("topk", None, [score for _, score in ranked])
    tids = naive_dynamic_skyline(candidates, op.query_point)
    return canonical_answer("dynamic_skyline", tids, None)


def _digest(answer: tuple) -> bytes:
    return hashlib.sha256(repr(answer).encode()).digest()[:8]


# ---------------------------------------------------------------------- #
# the pass
# ---------------------------------------------------------------------- #


@dataclass
class PassResult:
    """Everything one pass over an op stream observed."""

    n_ops: int
    #: Per op, in stream order; a failed op has latency ``None``.  As
    #: measured, and restated at the nominal host speed.
    raw_latencies: list[float | None] = field(default_factory=list)
    latencies: list[float | None] = field(default_factory=list)
    host: HostSpeed = field(default_factory=HostSpeed)
    is_read: list[bool] = field(default_factory=list)
    digests: list[bytes] = field(default_factory=list)
    #: ``QueryStats`` of each completed read.
    read_stats: list = field(default_factory=list)
    #: Counted disk I/O (reads + ALLOC + WRITE) of each completed write.
    write_io: list[int] = field(default_factory=list)
    failed: int = 0
    checked: int = 0
    problems: list[str] = field(default_factory=list)
    #: after - before, of the stats objects the program already keeps.
    serving: dict = field(default_factory=dict)
    router: dict = field(default_factory=dict)
    cache: dict = field(default_factory=dict)
    maintenance: dict = field(default_factory=dict)
    disk_writes: dict = field(default_factory=dict)

    def digest(self, n_ops: int | None = None) -> str:
        return hashlib.sha256(b"".join(self.digests[:n_ops])).hexdigest()[:16]

    def wall(self, n_ops: int | None = None) -> float:
        return sum(lat for lat in self.latencies[:n_ops] if lat is not None)

    def raw_wall(self) -> float:
        return sum(lat for lat in self.raw_latencies if lat is not None)

    def completed(self, latencies: list, reads: bool) -> list[float]:
        return [
            lat
            for lat, read in zip(latencies, self.is_read)
            if read == reads and lat is not None
        ]

    def read_latencies(self) -> list[float]:
        return self.completed(self.latencies, reads=True)

    def write_latencies(self) -> list[float]:
        return self.completed(self.latencies, reads=False)


def _delta(after: dict, before: dict) -> dict:
    """Numeric fields subtracted; nested count dicts subtracted per key."""
    out = {}
    for key, value in after.items():
        if isinstance(value, dict):
            out[key] = _delta(value, before.get(key, {}))
        elif isinstance(value, (int, float)) and not isinstance(value, bool):
            out[key] = value - before.get(key, 0)
    return out


def _stat_snapshots(bench: Bench) -> dict[str, dict]:
    router = bench.executor.router
    return {
        "serving": bench.executor.stats.snapshot(),
        "router": router.stats.snapshot() if router else {},
        "cache": router.cache.snapshot() if router and router.cache else {},
        "maintenance": bench.system.maintenance_stats.snapshot(),
        "disk_writes": bench.system.disk.write_counters.snapshot(),
    }


def _counted_io(disk) -> int:
    writes = disk.write_counters
    return disk.counters.total() + writes.get(ALLOC) + writes.get(WRITE)


def run_pass(
    bench: Bench,
    ops: list[Op],
    check_stride: int | None,
    recorder: SpanRecorder | None = None,
) -> PassResult:
    """Drive ``ops`` through the serving path, one at a time.

    Only the interval from sending an op to getting its answer is timed;
    the bookkeeping, the host-speed probes and the naive checks between
    ops are not.
    """
    system, executor = bench.system, bench.executor
    disk = system.disk
    result = PassResult(n_ops=len(ops))
    host = result.host
    before = _stat_snapshots(bench)
    n_reads = 0
    starts: list[float] = []
    device_seconds: list[float] = []
    answer = None
    for index, op in enumerate(ops):
        # Freeing the previous answer (a search state of thousands of heap
        # entries) costs about a millisecond: do it before the clock starts.
        del answer
        result.is_read.append(op.is_read)
        host.probe_if_due()
        io_before = 0 if op.is_read else _counted_io(disk)
        if recorder is not None:
            recorder.begin_op(index, op.is_read)
        started = time.perf_counter()
        try:
            if op.is_read:
                answer = submit_read(executor, op).result(RESULT_TIMEOUT)
            else:
                answer = apply_write(system, op)
            elapsed = time.perf_counter() - started
        except Exception as exc:  # noqa: BLE001 - every failure is counted
            answer, elapsed = None, None
            result.failed += 1
            result.problems.append(f"op {index} ({op.kind}): {exc!r}")
        finally:
            if recorder is not None:
                recorder.end_op()
        starts.append(started)
        result.raw_latencies.append(elapsed)
        device_seconds.append(
            answer.stats.total_io() * disk.read_latency
            if answer is not None and op.is_read
            else 0.0
        )
        if answer is None:
            result.digests.append(b"failed")
            continue
        if not op.is_read:
            result.write_io.append(_counted_io(disk) - io_before)
            result.digests.append(_digest(answer))
            continue
        canonical = canonical_answer(op.kind, answer.tids, answer.scores)
        result.digests.append(_digest(canonical))
        result.read_stats.append(answer.stats)
        n_reads += 1
        if check_stride and n_reads % check_stride == 0:
            result.checked += 1
            problem = check_read(bench, index, op, canonical, answer.stats.epoch)
            if problem:
                result.failed += 1
                result.problems.append(problem)
    host.probe()
    result.latencies = [
        None
        if elapsed is None
        else at_nominal_speed(elapsed, host.factor(started + elapsed / 2), device)
        for started, elapsed, device in zip(
            starts, result.raw_latencies, device_seconds
        )
    ]
    after = _stat_snapshots(bench)
    for name, snapshot in after.items():
        setattr(result, name, _delta(snapshot, before[name]))
    return result


def check_read(
    bench: Bench, index: int, op: Op, canonical: tuple, epoch: int | None
) -> str | None:
    """Compare one answer with the naive scan at the same epoch.

    With one client and the writes on the client thread, nothing moves
    between an answer and its check: the live relation *is* the epoch the
    read ran at, which is asserted rather than assumed.
    """
    current = bench.executor.epochs.current_epoch
    if epoch != current:
        return f"op {index}: answered at epoch {epoch}, current is {current}"
    expected = expected_answer(bench.system.relation, op)
    if canonical != expected:
        return (
            f"op {index} ({op.kind}, {op.predicate!r}): answer differs from "
            f"naive ({len(canonical)} vs {len(expected)} entries)"
        )
    return None


def check_stride_for(n_reads: int) -> int:
    return max(CHECK_STRIDE, math.ceil(n_reads / MAX_CHECKS))


def verify_consistency(bench: Bench, result: PassResult) -> None:
    problems = bench.system.verify_consistency().problems
    if problems:
        result.failed += 1
        result.problems.append(f"verify_consistency: {problems[:3]}")


# ---------------------------------------------------------------------- #
# metric maths
# ---------------------------------------------------------------------- #


def percentile(values: list[float], share: float) -> float:
    """Nearest-rank percentile; 0.0 for an empty sample."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(0, math.ceil(share * len(ordered)) - 1)]


def _per(total: float, count: int) -> float:
    return total / count if count else 0.0


def end_to_end_metrics(
    setup_seconds_nominal: list[float], result: PassResult, system: PCubeSystem
) -> dict[str, float]:
    """Times are at the nominal host speed (see :class:`HostSpeed`)."""
    reads = result.read_latencies()
    stats = result.read_stats
    completed = sum(lat is not None for lat in result.latencies)
    return {
        "setup_s": median(setup_seconds_nominal),
        "ops_per_s": completed / result.wall(),
        "read_p50_ms": 1e3 * percentile(reads, 0.50),
        "read_p95_ms": 1e3 * percentile(reads, 0.95),
        "pages_per_read": _per(
            sum(s.pool_hits + s.pool_misses for s in stats), len(stats)
        ),
        "store_bytes_per_tuple": system.disk.size_bytes("pcube")
        / system.relation.live_count(),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def layer_metrics(
    untraced: PassResult,
    traced: PassResult,
    trace: TraceSummary,
) -> dict[str, float]:
    """Every per-layer metric, from the traced pass over the stream prefix.

    Counts come from the stats objects the program returns; times from the
    recorder's spans, restated at the nominal host speed by the traced
    pass's own factor.  The three ``system.*`` write figures and
    ``storage.disk_reads_per_read`` come from the *untraced* full pass.
    """
    stats = traced.read_stats
    n_reads = len(stats)
    n_writes = len(traced.write_io)
    misses = [s for s in stats if s.cache_outcome != "hit"]
    routed_misses = [s for s in misses if s.route is not None]
    served = traced.router.get("served_by", {})
    lookups = sum(
        traced.router.get(key, 0)
        for key in ("cache_hits", "cache_misses", "cache_bypassed")
    )
    writes = untraced.write_latencies()
    serving = traced.serving
    traced_wall = traced.wall()
    to_nominal = traced_wall / traced.raw_wall()
    raw_read_seconds = sum(traced.completed(traced.raw_latencies, reads=True))

    def read_ms(*names: str) -> float:
        return _per(to_nominal * trace.total_ms("read", *names), n_reads)

    def write_ms(*names: str) -> float:
        return _per(to_nominal * trace.total_ms("write", *names), n_writes)

    def self_ms(op_class: str, *names: str) -> float:
        return to_nominal * trace.self_ms(op_class, *names)

    def layer_self_ms(layer: str) -> float:
        return self_ms("read", *trace.layer_names(layer))

    def mean_ms(name: str) -> float:
        return _per(
            to_nominal * trace.total_ms("read", name), trace.calls("read", name)
        )

    wal = ("MaintenanceWAL.begin", "MaintenanceWAL.log_changes",
           "MaintenanceWAL.log_cell_stored", "MaintenanceWAL.commit")
    metrics = {
        "system.write_p50_ms": 1e3 * percentile(writes, 0.50),
        "system.write_p90_ms": 1e3 * percentile(writes, 0.90),
        "system.disk_io_per_write": _per(
            sum(untraced.write_io), len(untraced.write_io)
        ),
        "serve.overhead_ms": _per(
            1e3 * to_nominal * (raw_read_seconds - serving["run_seconds"]),
            n_reads,
        ),
        "serve.queue_wait_ms": _per(
            1e3 * to_nominal * serving["queue_wait_seconds"], n_reads
        ),
        "serve.refused": serving["rejected"] + serving["failed"],
        "serve.degraded_queries": serving["degraded_queries"],
        "route.self_ms": _per(layer_self_ms("route"), n_reads),
        "route.cache_hit_rate": _per(traced.router.get("cache_hits", 0), lookups),
        "route.cache_entries_invalidated_per_write": _per(
            traced.cache.get("invalidated", 0), n_writes
        ),
        "route.io_per_miss": _per(
            sum(s.total_io() for s in routed_misses), len(routed_misses)
        ),
        "route.fell_back": traced.router.get("fell_back", 0),
        **{
            f"route.share.{engine}": _per(
                served.get(engine, 0), sum(served.values())
            )
            for engine in ROUTE_ENGINES
        },
        "query.skyline_ms": mean_ms("QuerySession.skyline"),
        "query.topk_ms": mean_ms("QuerySession.topk"),
        "query.dynamic_ms": mean_ms("QuerySession.dynamic_skyline"),
        "query.alg1_self_ms": _per(
            self_ms("read", "algorithm1.run_algorithm1"), n_reads
        ),
        "query.nodes_expanded_per_read": _per(
            sum(s.nodes_expanded for s in stats), n_reads
        ),
        "query.peak_heap_p95": percentile([s.peak_heap for s in stats], 0.95),
        "query.bool_pruned_per_read": _per(
            sum(s.boolean_pruned for s in stats), n_reads
        ),
        "query.dom_pruned_per_read": _per(
            sum(s.dominance_pruned for s in stats), n_reads
        ),
        "query.results_per_read": _per(sum(s.results for s in stats), n_reads),
        "baselines.busy_ms_per_miss": _per(
            layer_self_ms("baselines"), len(routed_misses)
        ),
        "kernels.calls_per_read": _per(
            trace.layer_calls("read", "kernels"), n_reads
        ),
        "kernels.busy_ms_per_read": _per(layer_self_ms("kernels"), n_reads),
        "kernels.rows_per_call": _per(
            trace.layer_rows("read", "kernels"),
            trace.layer_calls("read", "kernels"),
        ),
        "core.reader_ms_per_read": read_ms("ReaderFactory.reader_for_predicate"),
        "core.sig_loads_per_read": _per(
            trace.calls(
                "read", "SignatureStore.load_partial", "StoreView.load_partial"
            ),
            n_reads,
        ),
        "core.sig_load_ms_per_read": read_ms(
            "SignatureStore.load_partial", "StoreView.load_partial"
        ),
        "core.sig_decode_ms_per_read": read_ms("PartialSignature.decode"),
        "core.epoch_pin_ms_per_read": read_ms(
            "EpochManager.pin", "EpochManager.unpin"
        ),
        "core.maint_self_ms_per_write": _per(
            self_ms(
                "write",
                "maintenance.insert_tuple",
                "maintenance.delete_tuple",
                "maintenance.update_tuple",
            ),
            n_writes,
        ),
        "core.apply_changes_ms_per_write": write_ms("PCube.apply_changes"),
        "core.put_signature_ms_per_write": write_ms(
            "SignatureStore.put_signature"
        ),
        "core.cells_rewritten_per_write": _per(
            trace.calls("write", "SignatureStore.put_signature"), n_writes
        ),
        "core.partials_written_per_write": _per(
            trace.category_calls("write", "SimulatedDisk.allocate", "pcube:sig"),
            n_writes,
        ),
        "core.wal_ms_per_write": write_ms(*wal),
        "core.wal_records_per_write": _per(
            traced.maintenance.get("wal_records", 0), n_writes
        ),
        "core.epoch_publish_ms_per_write": write_ms("EpochManager.publish"),
        "bitmap.compress_ms_per_write": write_ms("compression.compress"),
        "bitmap.compress_calls_per_write": _per(
            trace.calls("write", "compression.compress"), n_writes
        ),
        "bitmap.decompress_ms_per_read": read_ms("compression.decompress"),
        "rtree.update_ms_per_write": write_ms("RTree.insert", "RTree.delete"),
        "rtree.freeze_ms_per_write": write_ms("frozen.freeze"),
        "rtree.block_reads_per_read": _per(
            trace.category_calls(
                "read", "BufferPool.get_traced", "SBLOCK", "DBLOCK"
            ),
            n_reads,
        ),
        "btree.page_reads_per_read": _per(
            trace.category_calls("read", "BufferPool.get_traced", "BINDEX", "BTREE"),
            n_reads,
        ),
        "cube.relation_ms_per_write": write_ms(
            "Relation.append", "Relation.tombstone", "Relation.overwrite_pref"
        ),
        "cube.pref_block_ms_per_read": read_ms("ColumnarProjection.pref_block"),
        "storage.disk_reads_per_read": _per(
            sum(s.total_io() for s in untraced.read_stats),
            len(untraced.read_stats),
        ),
        "storage.pool_hit_rate": _per(
            sum(s.pool_hits for s in stats),
            sum(s.pool_hits + s.pool_misses for s in stats),
        ),
        "storage.pool_gets_per_read": _per(
            trace.calls("read", "BufferPool.get_traced"), n_reads
        ),
        "storage.disk_read_ms_per_read": read_ms("SimulatedDisk.read"),
        **{
            f"storage.disk_reads.{category}": _per(
                sum(s.counters.get(category) for s in stats), n_reads
            )
            for category in DISK_READ_CATEGORIES
        },
        "storage.disk_writes_per_write": _per(
            traced.disk_writes.get(ALLOC, 0) + traced.disk_writes.get(WRITE, 0),
            n_writes,
        ),
        "storage.pages_freed_per_write": _per(
            traced.disk_writes.get(FREE, 0), n_writes
        ),
        "bench.trace_overhead_pct": 100.0
        * (traced_wall / untraced.wall(traced.n_ops) - 1.0),
        "bench.unattributed_pct": 100.0
        * _per(trace.unattributed_seconds(), trace.root_seconds),
    }
    return metrics
