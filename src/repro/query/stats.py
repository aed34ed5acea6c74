"""Per-query statistics: the quantities the paper's figures report."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.storage.counters import DBLOCK, SBLOCK, SSIG, IOCounters, Tally


class MaintenanceStats(Tally):
    """Maintenance-side tallies: WAL traffic and crash-recovery work.

    Counts:
        wal_records: Intent and commit records journalled.
        wal_commits: Operations whose commit record was appended.
        recoveries: ``recover()`` calls that found an interrupted operation.
        reindexes: Those recoveries that ran to the end: the intent
            replayed, the R-tree and every cell rebuilt as the build does.
        rows_repaired: Buffered heap rows recovery had to re-page.
        wal_tail_truncated: Torn/corrupt tail record pages recovery
            truncated (the default torn-write repair).
        wal_segments_sealed: WAL segments rotated into the sealed archive.
        wal_segments_pruned: Sealed segments dropped once a checkpoint
            made their history redundant.
    """

    ZEROS = dict(
        wal_records=0,
        wal_commits=0,
        recoveries=0,
        reindexes=0,
        rows_repaired=0,
        wal_tail_truncated=0,
        wal_segments_sealed=0,
        wal_segments_pruned=0,
    )


@dataclass
class QueryStats:
    """Everything a single query execution is measured by.

    The query's readers, pool and search bump one record as they go; a
    reader built outside a query bumps a fresh one.

    Attributes:
        counters: Tagged disk accesses (Figures 9 and 15).
        peak_heap: Maximum candidate-heap size observed (Figure 10); for
            the Boolean-first baseline this is its retrieved candidate-set
            size, the memory its in-memory preference step holds.
        nodes_expanded: R-tree nodes whose children were generated.
        results: Number of answers produced.
        boolean_pruned / dominance_pruned: Entries cut by each prune arm.
        verified / verify_failed: Minimal-probing boolean verifications
            (Domination baseline).
        sig_loads: Partial signatures loaded (each one ``SSIG`` page
            access, served by the disk or the buffer pool).
        sig_lookahead_loads: Those of ``sig_loads`` an assembled reader's
            look-ahead asked for, not the search's own bit test.
        sig_load_seconds: Time spent loading partial signatures (Fig. 15).
        elapsed_seconds: End-to-end execution time.
        fault_retries: Transient-fault retries the signature loads needed.
        failed_loads: Partial loads abandoned after retries (each one put a
            cell into conservative mode).
        degraded_checks: Bit tests answered conservatively or via the
            base-relation fallback because a partial was unreadable.
        quarantine_skips: Partial loads not tried because the cell is
            quarantined (degraded with zero I/O on its pages).
        degraded: Whether this query ran with any signature degraded — the
            per-query "degraded query" flag robustness benchmarks count.
        tier: Which rung of the degradation chain produced the answer —
            ``"signature"`` (fault-free fast path), ``"conservative"``
            (degraded readers) or ``"boolean-first"`` (signature-free scan
            fallback); ``None`` until the query completes.
        epoch: The snapshot epoch the query ran against (``None`` only for
            a session built by hand without one).
        queue_wait_seconds: Time the query sat in the serving executor's
            admission queue before a worker picked it up.
        pool_hits / pool_misses: This query's buffer-pool delta — meaningful
            in shared-pool serving mode where ``counters`` alone would hide
            how much another query's footprint helped.
        route: The engine that served an executor's skyline / top-k (the
            router stamps every one, cache on or off); ``None`` for session
            reads, dynamic skylines and hulls.
        fallbacks: How many engines failed before ``route`` answered.
        cache_outcome: The router cache's verdict — ``"hit"``, ``"miss"``,
            ``"bypass"`` (a quarantined cell or a disjunction) or ``None``
            (cache off or not consulted).
        cache_computed_epoch: On a hit, the epoch the served answer was
            computed at (older than ``epoch`` when it was carried).
    """

    counters: IOCounters = field(default_factory=IOCounters)
    peak_heap: int = 0
    nodes_expanded: int = 0
    results: int = 0
    boolean_pruned: int = 0
    dominance_pruned: int = 0
    verified: int = 0
    verify_failed: int = 0
    sig_loads: int = 0
    sig_lookahead_loads: int = 0
    sig_load_seconds: float = 0.0
    elapsed_seconds: float = 0.0
    fault_retries: int = 0
    failed_loads: int = 0
    degraded_checks: int = 0
    quarantine_skips: int = 0
    degraded: bool = False
    tier: str | None = None
    epoch: int | None = None
    queue_wait_seconds: float = 0.0
    pool_hits: int = 0
    pool_misses: int = 0
    route: str | None = None
    fallbacks: int = 0
    cache_outcome: str | None = None
    cache_computed_epoch: int | None = None

    def note_heap(self, size: int) -> None:
        if size > self.peak_heap:
            self.peak_heap = size

    def absorb(self, failed: "QueryStats") -> None:
        """Add a failed attempt's pages, partial loads and fault counts to
        this record — the answer that replaced it paid for them too."""
        self.counters.merge(failed.counters)
        self.sig_loads += failed.sig_loads
        self.sig_lookahead_loads += failed.sig_lookahead_loads
        self.sig_load_seconds += failed.sig_load_seconds
        self.fault_retries += failed.fault_retries
        self.failed_loads += failed.failed_loads
        self.degraded_checks += failed.degraded_checks
        self.quarantine_skips += failed.quarantine_skips

    # Convenience accessors for the figure series ----------------------- #

    @property
    def ssig(self) -> int:
        return self.counters.get(SSIG)

    @property
    def sblock(self) -> int:
        return self.counters.get(SBLOCK)

    @property
    def dblock(self) -> int:
        return self.counters.get(DBLOCK)

    def total_io(self) -> int:
        return self.counters.total()

    def modeled_seconds(self, seconds_per_io: float = 0.005) -> float:
        """Execution time under a disk-latency model.

        The simulator's structures are memory resident, so raw
        ``elapsed_seconds`` measures Python work, not the disk time that
        dominated the paper's 2008 testbed.  Charging each counted page
        access a fixed latency (default 5 ms, a 2008-era random read)
        recovers an I/O-bound execution time; benchmarks report both.
        """
        if seconds_per_io < 0:
            raise ValueError("seconds_per_io must be non-negative")
        return self.elapsed_seconds + seconds_per_io * self.total_io()
