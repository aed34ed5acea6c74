"""One-call assembly of a complete P-Cube system.

Bundles the base relation, the shared R-tree partition template, the P-Cube
signature store, the maintenance WAL and the epoch manager, all over one
simulated disk — the configuration every experiment and example runs
against.  Every system has its WAL and its epochs: each maintenance method
publishes a snapshot, and :attr:`PCubeSystem.engine` reads the one
published last.  The figure benches that time bare maintenance call the
:mod:`repro.core.maintenance` functions with ``wal=None`` instead, and read
nothing through ``engine`` after them.

A system builds no index it does not maintain: the per-dimension B+-trees
the Boolean-first and Index-merge baselines read are built by whoever
measures those baselines
(:func:`~repro.baselines.boolean_first.build_boolean_indexes`, over the
relation they query).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from repro.core import integrity, maintenance
from repro.core.epoch import EpochManager, Snapshot
from repro.core.integrity import ConsistencyReport
from repro.core.pcube import PCube
from repro.core.wal import MaintenanceWAL, PendingOp, replay_intent
from repro.cube.relation import Relation, _epoch_zero
from repro.query.session import QuerySession
from repro.query.stats import MaintenanceStats
from repro.rtree.bulk import bulk_load_columns
from repro.rtree.rtree import RTree, fanout_for_page
from repro.storage.disk import SimulatedDisk


@dataclass
class BuildTimings:
    """Wall-clock per built structure (Figure 5's R-tree and P-Cube)."""

    rtree_seconds: float = 0.0
    pcube_seconds: float = 0.0


@dataclass
class PCubeSystem:
    """A fully built system: storage, R-tree, cube, WAL and epochs."""

    relation: Relation
    rtree: RTree
    pcube: PCube
    wal: MaintenanceWAL
    epochs: EpochManager
    timings: BuildTimings = field(default_factory=BuildTimings)
    maintenance_stats: MaintenanceStats = field(
        default_factory=MaintenanceStats
    )

    @property
    def disk(self) -> SimulatedDisk:
        return self.relation.disk

    # ------------------------------------------------------------------ #
    # reading: the published snapshot
    # ------------------------------------------------------------------ #

    @property
    def engine(self) -> QuerySession:
        """A cold-pool session over the snapshot published last.

        Each query gets a private pool, so its disk accesses are a pure
        function of the query (the paper's figures count them).  The
        session is bound to one epoch: take it again after a write.  It
        holds no pin — concurrent readers pin (:meth:`pin_snapshot`) — so
        once later writes reclaim pages or row versions its epoch may
        read, its queries raise
        :class:`~repro.core.epoch.StaleSnapshotError` instead of reading.
        """
        return QuerySession.for_snapshot(self.epochs.current)

    def pin_snapshot(self) -> Snapshot:
        """Pin the current epoch; pair with :meth:`unpin_snapshot`."""
        return self.epochs.pin()

    def unpin_snapshot(self, snapshot: Snapshot) -> None:
        self.epochs.unpin(snapshot)

    def _maintain(self, op, written=None):
        """Run one maintenance driver, publishing an epoch on success.

        ``written(result)`` names the tids the op wrote; the publish logs
        their rows as the epoch's delta (``None``: the op cannot say).
        """
        with self.epochs.write():
            result = op()
            # The driver has WAL-committed by now; the snapshot therefore
            # reflects exactly the committed state.
            relation = self.relation
            self.epochs.publish(
                written
                and [
                    (tid, relation.bool_row(tid), relation.pref_point(tid))
                    if relation.is_live(tid)
                    else (tid, relation.bool_row(tid), None)
                    for tid in written(result)
                ]
            )
            return result

    # ------------------------------------------------------------------ #
    # space accounting (Figure 6's series)
    # ------------------------------------------------------------------ #

    def rtree_size_mb(self) -> float:
        return self.disk.size_mb("rtree")

    def pcube_size_mb(self) -> float:
        return self.disk.size_mb("pcube")

    # ------------------------------------------------------------------ #
    # crash-safe maintenance (WAL-protected drivers)
    # ------------------------------------------------------------------ #

    def _drive(self, fn, *args, written):
        """Run one journalled operation of :mod:`repro.core.maintenance` on
        this system's structures and WAL, through :meth:`_maintain`."""
        return self._maintain(
            lambda: fn(self.relation, self.rtree, self.pcube, *args, wal=self.wal),
            written,
        )

    def insert(self, bool_row: tuple, pref_row: tuple):
        """WAL-protected single-tuple insert; returns (tid, dirty cells)."""
        return self._drive(
            maintenance.insert_tuple, bool_row, pref_row,
            written=lambda result: (result[0],),
        )

    def insert_batch(self, rows):
        """WAL-protected batch insert; returns (tids, dirty cells)."""
        return self._drive(
            maintenance.insert_batch, rows, written=lambda result: result[0]
        )

    def delete(self, tid: int):
        """WAL-protected delete; returns the dirty cells."""
        return self._drive(
            maintenance.delete_tuple, tid, written=lambda _: (tid,)
        )

    def update(self, tid: int, new_pref_row: tuple):
        """WAL-protected preference update; returns the dirty cells."""
        return self._drive(
            maintenance.update_tuple, tid, new_pref_row,
            written=lambda _: (tid,),
        )

    # ------------------------------------------------------------------ #
    # crash recovery
    # ------------------------------------------------------------------ #

    def recover(self) -> str:
        """Redo an interrupted operation; returns ``"clean"`` or
        ``"reindexed"``.

        * The WAL holds no intent without a commit — ``"clean"``: the last
          operation committed (or its intent never became durable, in
          which case it simply never happened; the caller may re-submit it).
        * It holds one — ``"reindexed"``, wherever the crash hit: buffered
          heap rows are re-paged, the intent's relation-level effect is
          re-applied (idempotently, :func:`~repro.core.wal.replay_intent`),
          and the R-tree and every cell signature are rebuilt from the
          relation by the build's own loaders (:meth:`RTree.reset`,
          :meth:`PCube.derive_all`).  The recovered system is the one
          :func:`build_system` (STR-packed, its default) makes over the
          same rows: same paths, same stored bits, same pages per read.
          A crash late in a write costs a rebuild, not a finish in place —
          about one build's time.

        Every outcome, ``"clean"`` included, first frees the signature
        pages that neither the store's directory nor a deferred epoch free
        references (:meth:`~repro.core.store.SignatureStore.free_orphans`):
        a crash mid-rewrite leaves one generation of them.  It runs under
        :meth:`_maintain`, the single-writer protocol, because an in-flight
        rewrite's new pages are unreferenced until its commit point.

        The operation is committed only after the work is done, so a crash
        *during* recovery leaves the records in place and a re-run
        converges (every step above is idempotent).

        Before that, damaged WAL records are classified: a torn/corrupt
        *tail* (the footprint of a write interrupted by the crash) is
        truncated by default — the records above the last valid LSN never
        influenced any committed state, so dropping them is the only sound
        reading.  Interior corruption (valid records above the damage)
        raises :class:`~repro.core.wal.WalCorruptionError` instead:
        committed history is gone, and the honest recovery is a restore
        from checkpoints (:func:`repro.core.checkpoint.restore_system`).
        """
        self.wal.repair_tail()
        pending = self.wal.pending()
        return self._maintain(
            lambda: self._recover(pending),
            # A clean recovery frees unreferenced pages and writes no row.
            (lambda _: ()) if pending is None else None,
        )

    def _held_pages(self) -> set[int]:
        """Pages an epoch's deferred free still holds for pinned readers."""
        return self.epochs.deferred_pages()

    def _recover(self, pending: PendingOp | None) -> str:
        self.pcube.store.free_orphans(self._held_pages())
        if pending is None:
            return "clean"
        self.maintenance_stats.bump(recoveries=1)
        # Rows are buffered in memory before any disk page is touched, so
        # re-page the buffered tail first (appends must stay in tid order);
        # the replay then appends only the rows the crash left out.
        self.maintenance_stats.bump(rows_repaired=self.relation.repair_heap())
        replay_intent(self.relation, pending)
        self.rtree.reset(*_live_points(self.relation))
        self.pcube.derive_all()
        self.maintenance_stats.bump(reindexes=1)
        self.wal.commit(pending.op_id)
        return "reindexed"

    def repair_quarantined(self) -> list:
        """Rebuild every quarantined cell under the single-writer protocol.

        The scrubber (and any other online damage detector) quarantines
        cells it finds corrupt; this routes the rebuild through
        :meth:`_maintain` so an epoch is published: readers flip to the
        repaired signatures atomically, exactly as they would after a
        maintenance operation.
        """
        return self._maintain(lambda: self.pcube.rebuild_quarantined())

    # ------------------------------------------------------------------ #
    # the consistency audit
    # ------------------------------------------------------------------ #

    def verify_consistency(self) -> ConsistencyReport:
        """Check every cross-structure invariant; returns the findings.

        Verified, against the base relation as ground truth (the invariants
        themselves live in :mod:`repro.core.integrity`, shared with the
        online scrubber):

        * the WAL holds no interrupted operation;
        * every buffered relation row reached a heap page;
        * the R-tree indexes exactly the live tids;
        * per cell: the stored signature equals one rebuilt from the live
          members' R-tree paths (which also makes a materialised
          multi-dimensional cell equal the assembly of its atomic cells);
        * the store holds no cell outside the cuboids' group-bys, none of
          its cells is quarantined, and it holds no signature page the
          directory does not reference (deferred epoch frees excepted).
        """
        report = ConsistencyReport()
        problems = report.problems
        if not self.wal.is_empty():
            problems.append("WAL holds an interrupted maintenance operation")
        unpaged = len(self.relation) - self.relation.paged_count()
        if unpaged:
            problems.append(f"{unpaged} relation rows never reached a heap page")
        paths = self.rtree.all_paths()
        live = set(self.relation.live_tids())
        problems.extend(integrity.rtree_partition_problems(paths, live))
        for _cell, cell_problems in integrity.iter_cell_checks(
            self.relation,
            paths,
            self.pcube.cuboids,
            self.pcube.fanout,
            self.pcube.signature_of,
        ):
            report.cells_checked += 1
            problems.extend(cell_problems)
        expected_ids = integrity.expected_cell_ids(
            self.relation, self.pcube.cuboids
        )
        problems.extend(
            integrity.store_directory_problems(
                self.pcube.store.cells(),
                expected_ids,
                self.pcube.store.quarantined_cells(),
                self.pcube.store.orphan_pages(self._held_pages()),
            )
        )
        return report


def _live_points(relation: Relation) -> tuple[np.ndarray, np.ndarray]:
    """The live tids and their preference points: what the R-tree indexes."""
    columns = relation.columnar()
    tids = np.flatnonzero(columns.live)
    return tids, columns.pref[tids]


def build_system(
    relation: Relation,
    fanout: int | None = None,
    rtree_method: str = "bulk",
    codec: str = "adaptive",
    wal_segment_bytes: int | None = None,
) -> PCubeSystem:
    """Build R-tree + P-Cube over an existing relation.

    Each structure touches each tuple once (DESIGN.md "Build"), and the
    pages are a function of the relation and the arguments alone;
    :attr:`PCubeSystem.timings` attributes the wall time per structure.
    The system's :class:`MaintenanceWAL` makes its ``insert`` /
    ``insert_batch`` / ``delete`` / ``update`` methods crash-safe (it costs
    nothing until an operation journals), its :class:`EpochManager`
    publishes the first snapshot, and :attr:`PCubeSystem.engine` reads it
    with a cold pool per query.

    Args:
        relation: The base table (its disk hosts every structure).
        fanout: R-tree node capacity; derived from the page size and the
            preference dimensionality when omitted (paper convention).
        rtree_method: ``"bulk"`` (STR packing, fast) or ``"insert"``
            (tuple-at-a-time Guttman build — the construction cost Figure 5
            actually measures).
        codec: Bitmap codec for stored signatures.
        wal_segment_bytes: Override the WAL's segment-rotation threshold
            (default :data:`repro.core.wal.DEFAULT_SEGMENT_BYTES`); small
            values force frequent sealing, which durability tests and the
            recovery benchmark use to exercise the archive.

    Raises:
        ValueError: if another system's epochs already clock ``relation``
            (each system owns its relation: a second one would stamp and
            prune the first one's versions) — build over a fresh relation.
    """
    if relation.epoch_clock is not _epoch_zero:
        raise ValueError(
            "the relation already belongs to a built system; build each "
            "system over its own relation"
        )
    disk = relation.disk
    dims = relation.schema.n_preference
    if fanout is None:
        fanout = fanout_for_page(disk.page_size, dims)

    timings = BuildTimings()
    started = time.perf_counter()
    if rtree_method == "bulk":
        rtree = bulk_load_columns(
            *_live_points(relation), max_entries=fanout, disk=disk
        )
    elif rtree_method == "insert":
        rtree = RTree(dims=dims, max_entries=fanout, disk=disk)
        for tid, point in relation.pref_points():
            rtree.insert(tid, point)
    else:
        raise ValueError(f"unknown rtree_method {rtree_method!r}")
    timings.rtree_seconds = time.perf_counter() - started

    started = time.perf_counter()
    pcube = PCube.build(relation, rtree, codec=codec)
    timings.pcube_seconds = time.perf_counter() - started

    maintenance_stats = MaintenanceStats()
    wal_kwargs = (
        {} if wal_segment_bytes is None
        else {"segment_bytes": wal_segment_bytes}
    )
    return PCubeSystem(
        relation=relation,
        rtree=rtree,
        pcube=pcube,
        wal=MaintenanceWAL(disk, stats=maintenance_stats, **wal_kwargs),
        epochs=EpochManager(relation, rtree, pcube),
        timings=timings,
        maintenance_stats=maintenance_stats,
    )
