"""Epoch-based snapshot isolation for the P-Cube system.

The concurrency model is single-writer / many-readers:

* Maintenance (already serialised by the WAL's one-in-flight rule) runs
  inside :meth:`EpochManager.write`.  While the block is open, every
  mutation — relation appends/tombstones/overwrites, R-tree page rewrites,
  signature-store rewrites — is stamped with the *building* epoch ``E+1``
  via the clocks and hooks the manager installs on the three structures.
* At WAL commit the driver calls :meth:`EpochManager.publish`: the manager
  freezes the R-tree (copy-on-write, structurally shared with the previous
  snapshot), snapshots the store directory (cheap outer-dict copy) and
  atomically installs a new immutable :class:`Snapshot`.  Readers that
  pinned epoch ``E`` keep seeing exactly epoch ``E``; new readers see
  ``E+1``.
* If the op dies before publishing (a fault, or an injected crash), the
  building epoch is abandoned: its half-applied mutations are stamped
  ``E+1`` and therefore *invisible* to every reader still pinned at ``E`` —
  the in-memory analogue of an uncommitted WAL record.  Recovery re-runs
  under a fresh ``write()`` and publishes when it completes.
* Each publish also records *what it wrote* — one ``(tid, boolean row, new
  preference row | None for a delete)`` per written tuple — in a bounded
  per-epoch delta log, atomically with installing the snapshot; the result
  cache carries answers across the epochs that provably left them alone
  (:meth:`EpochManager.deltas_between`, DESIGN.md §12).  A publisher that
  cannot say what it wrote, the publish after an abandoned write and an
  epoch off the log all read as ``None``: assume everything changed.

Reclamation: pages logically freed during the build of epoch ``W`` may
still be traversed by readers pinned at epochs ``< W``, so their physical
``disk.free`` is deferred with barrier ``W`` and executed only when neither
the current snapshot nor any pinned reader sits below the barrier.  Page
frees run from whichever thread drops the last pin (the disk is
thread-safe); :meth:`Relation.prune_versions` mutates the relation's
version maps, which the maintenance writer updates without a lock, so it
runs only on the writer path — at :meth:`publish`, under ``_writer_lock``
— against the same horizon.  Double-free attempts (possible when recovery
rebuilds structures wholesale) are tolerated.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterator, Sequence

from repro.rtree.frozen import FrozenRTree, freeze
from repro.storage.counters import Tally
from repro.storage.disk import PageFault

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.pcube import PCube, PCubeView
    from repro.core.store import StoreView
    from repro.cube.relation import Relation, RelationView
    from repro.rtree.rtree import RTree


#: Epochs the delta log remembers; an older delta reads as "unknown".
DELTA_LOG_EPOCHS = 64


class StaleSnapshotError(RuntimeError):
    """An unpinned snapshot was read after later writes reclaimed pages
    or version records it may reference."""

    def __init__(self, epoch: int) -> None:
        super().__init__(
            f"epoch {epoch} is no longer readable: writes since reclaimed "
            "pages or row versions it may read; take system.engine again "
            "(or pin the snapshot for as long as it is read)"
        )
        self.epoch = epoch


@dataclass(frozen=True)
class Snapshot:
    """One published epoch: immutable projections of all three structures.

    Everything a query needs hangs off this object; holding a snapshot
    (pinned) is the only requirement for running against it from any
    thread.  An unpinned one stays readable only until a later publish
    reclaims what it references (:meth:`check_readable`).
    """

    epoch: int
    relation: "RelationView"
    rtree: FrozenRTree
    store: "StoreView"
    pcube: "PCubeView"
    manager: "EpochManager" = field(repr=False, compare=False)

    def check_readable(self) -> None:
        """Raise :class:`StaleSnapshotError` if a freed page or a pruned
        version record may be one this snapshot reads."""
        if self.epoch < self.manager.stale_below:
            raise StaleSnapshotError(self.epoch)


class EpochStats(Tally):
    """Aggregate epoch bookkeeping (``--health``'s ``epochs``, audits)."""

    ZEROS = dict(
        published=0,
        abandoned=0,
        deferred_frees=0,
        reclaimed_pages=0,
        pruned_versions=0,
    )


class EpochManager:
    """Publishes snapshots of a (relation, R-tree, P-Cube) triple.

    Installing the manager rewires the structures' epoch clock and free
    hooks; from then on the live objects are what the single writer
    changes, and the published snapshots are what every query reads.
    """

    def __init__(
        self, relation: "Relation", rtree: "RTree", pcube: "PCube"
    ) -> None:
        self.relation = relation
        self.rtree = rtree
        self.pcube = pcube
        self.stats = EpochStats()
        self._lock = threading.Lock()
        self._writer_lock = threading.Lock()
        self._building: int | None = None
        self._pins: dict[int, int] = {}
        # (barrier_epoch, page_id): physically free once no reader — current
        # snapshot included — can sit below the barrier.
        self._deferred: list[tuple[int, int]] = []
        # Horizon the version maps were last pruned to (writer path only).
        self._pruned_horizon = 0
        #: Epochs below this may reference a reclaimed page or a pruned
        #: version record: only a pin keeps an epoch at or above it.
        self.stale_below = 0
        # epoch -> the rows its publish wrote (absent: unknown).  An
        # abandoned write left rows no write set names, so the next publish
        # records "unknown" whatever it is handed.
        self._deltas: dict[int, tuple] = {}
        self._unlogged_writes = False
        relation.epoch_clock = self._clock
        rtree.free_hook = self._defer_free
        pcube.store.free_hook = self._defer_free
        self._current: Snapshot = self._build_snapshot(epoch=1)
        self.stats.bump(published=1)

    # ------------------------------------------------------------------ #
    # clocks & hooks
    # ------------------------------------------------------------------ #

    def _clock(self) -> int:
        """The epoch mutations are stamped with *right now*: the building
        epoch, or — for a write outside :meth:`write` (the bare
        maintenance drivers) — the next one, so that the published
        snapshot, whose frozen tree the write did not reach, does not see
        it in its relation view either."""
        building = self._building
        if building is not None:
            return building
        return self._current.epoch + 1

    def _defer_free(self, page_id: int) -> None:
        """Logically free a page; physical free waits for the barrier."""
        with self._lock:
            barrier = (
                self._building
                if self._building is not None
                else self._current.epoch + 1
            )
            self._deferred.append((barrier, page_id))
            self.stats.bump(deferred_frees=1)

    # ------------------------------------------------------------------ #
    # reading
    # ------------------------------------------------------------------ #

    @property
    def current(self) -> Snapshot:
        """The snapshot published last (unpinned)."""
        return self._current

    @property
    def current_epoch(self) -> int:
        return self._current.epoch

    def pin(self) -> Snapshot:
        """Pin the current snapshot; pair with :meth:`unpin`."""
        with self._lock:
            snapshot = self._current
            self._pins[snapshot.epoch] = self._pins.get(snapshot.epoch, 0) + 1
            return snapshot

    def unpin(self, snapshot: Snapshot) -> None:
        """Release a pin; the last release may reclaim old epochs."""
        with self._lock:
            count = self._pins.get(snapshot.epoch, 0)
            if count <= 0:
                raise ValueError(f"epoch {snapshot.epoch} is not pinned")
            if count == 1:
                del self._pins[snapshot.epoch]
            else:
                self._pins[snapshot.epoch] = count - 1
            self._reclaim_pages_locked()

    # ------------------------------------------------------------------ #
    # writing
    # ------------------------------------------------------------------ #

    @contextmanager
    def write(self) -> Iterator[int]:
        """Run one maintenance operation under the building epoch.

        Yields the epoch the op's mutations are stamped with.  The caller
        publishes explicitly (at WAL commit) via :meth:`publish`; leaving
        the block without publishing abandons the building epoch, keeping
        its mutations invisible to all current and future readers until a
        later op (usually recovery) publishes past it.
        """
        with self._writer_lock:
            with self._lock:
                building = self._current.epoch + 1
                self._building = building
            published_before = self.stats.published
            try:
                yield building
            finally:
                with self._lock:
                    self._building = None
                    if self.stats.published == published_before:
                        self.stats.bump(abandoned=1)
                        self._unlogged_writes = True

    @contextmanager
    def exclusive(self) -> Iterator[Snapshot]:
        """Hold the writer lock without opening a building epoch.

        The checkpointer's entry point: while the block runs no maintenance
        operation can start (writes queue on the same lock
        :meth:`write` takes), yet no building epoch exists, so the live
        structures are exactly the published state — a consistent cut the
        checkpoint can copy without racing the single writer.  Readers are
        untouched throughout; they keep serving the current snapshot.

        Yields the current snapshot for convenience (its epoch is the
        checkpoint's watermark epoch).
        """
        with self._writer_lock:
            yield self._current

    def publish(self, written: Sequence[tuple] | None = None) -> Snapshot:
        """Atomically install the building epoch as the current snapshot.

        Must be called inside :meth:`write`, after the operation's WAL
        commit — the snapshot then reflects exactly the committed state.
        ``written``: the op's complete write set; ``None``: it cannot say.
        """
        with self._lock:
            if self._building is None:
                raise RuntimeError("publish() outside an epoch write block")
            epoch = self._building
        snapshot = self._build_snapshot(epoch)
        with self._lock:
            self._current = snapshot
            if written is not None and not self._unlogged_writes:
                self._deltas[epoch] = tuple(written)
            self._unlogged_writes = False
            self._deltas.pop(epoch - DELTA_LOG_EPOCHS, None)
            # Keep stamping any further mutations of this op past the
            # published epoch, in case the driver does trailing cleanup.
            self._building = epoch + 1
            self.stats.bump(published=1)
            self._reclaim_pages_locked()
            horizon = self._horizon_locked()
        # Version-map pruning mutates dicts the writer's own mutators
        # (append/tombstone/overwrite_pref) update without a lock, so it
        # may only run here — on the writer thread, inside write()'s
        # _writer_lock.  Pins can only attach to the current epoch, so a
        # horizon computed moments ago can lag but never overshoot.
        if horizon > self._pruned_horizon:
            pruned = self.relation.prune_versions(horizon)
            self.stats.bump(pruned_versions=pruned)
            self._pruned_horizon = horizon
            if pruned:
                # A record stamped W <= horizon served readers below W.
                with self._lock:
                    self.stale_below = max(self.stale_below, horizon)
        return snapshot

    def deltas_between(self, after: int, upto: int) -> list[tuple] | None:
        """Every row written by the epochs in ``(after, upto]``, oldest
        first — or ``None`` when any of them is unknown or off the log."""
        with self._lock:
            deltas = [self._deltas.get(e) for e in range(after + 1, upto + 1)]
        if None in deltas:
            return None
        return [row for delta in deltas for row in delta]

    def _build_snapshot(self, epoch: int) -> Snapshot:
        previous = getattr(self, "_current", None)
        frozen = freeze(
            self.rtree, previous.rtree if previous is not None else None
        )
        relation_view = self.relation.view(epoch)
        store_view = self.pcube.store.view(
            self.pcube.store.directory_snapshot()
        )
        pcube_view = self.pcube.view(relation_view, frozen, store_view)
        return Snapshot(
            epoch=epoch,
            relation=relation_view,
            rtree=frozen,
            store=store_view,
            pcube=pcube_view,
            manager=self,
        )

    # ------------------------------------------------------------------ #
    # reclamation
    # ------------------------------------------------------------------ #

    def _horizon_locked(self) -> int:
        """The lowest epoch any present or future reader can observe:
        the minimum over pinned epochs and the current snapshot."""
        horizon = min(self._pins, default=self._current.epoch)
        return min(horizon, self._current.epoch)

    def _reclaim_pages_locked(self) -> None:
        """Free deferred pages behind the horizon (epoch lock held).

        Safe from any thread: ``_deferred`` is only touched under the
        epoch lock and ``disk.free`` is itself thread-safe.  Version-map
        pruning deliberately does *not* happen here — see :meth:`publish`.
        """
        if not self._deferred:
            return
        horizon = self._horizon_locked()
        keep: list[tuple[int, int]] = []
        freed = 0
        for barrier, page_id in self._deferred:
            if barrier > horizon:
                keep.append((barrier, page_id))
                continue
            try:
                self.rtree.disk.free(page_id)
            except PageFault:
                pass  # recovery may have rebuilt (and freed) wholesale
            freed += 1
            # Epochs below the barrier may still reference the page.
            self.stale_below = max(self.stale_below, barrier)
        self._deferred = keep
        self.stats.bump(reclaimed_pages=freed)

    def deferred_pages(self) -> set[int]:
        """The pages logically freed and still held for pinned readers."""
        with self._lock:
            return {page_id for _, page_id in self._deferred}
