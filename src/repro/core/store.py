"""The on-disk signature store.

Paper Section VI-A: "Signatures are compressed, decomposed and indexed
(using B+-tree) by cell IDs and SID's."  A partial signature lives on one
disk page; the store's directory ``cell_id -> {ref_sid -> page_id}`` maps
``(cell_id, ref_sid)`` to that page and stands in for the paper's B+-tree
(no counted figure ever charged a descent of it).  The store keeps that
directory, rewrites a cell's partials under maintenance, and serves epoch
snapshots of the directory (:class:`StoreView`); the readers that load
partials at query time live in :mod:`repro.core.readers`.

Fault tolerance (the Diamond-Dicing contract: OLAP structures are
rebuildable caches over the base relation, so a lost or corrupt signature
must never produce a wrong answer, only a slower one):

* :meth:`SignatureStore.load_partial` retries transient read faults with
  bounded, deterministic backoff;
* :meth:`SignatureStore.replace_partials` is atomic — new pages are
  allocated first and the directory swap is the commit point, so a fault
  mid-rewrite leaves the old partials readable; a storage fault frees the
  rewrite's new pages at once, and the pages a crash leaves unreferenced
  are freed by crash recovery (:meth:`SignatureStore.free_orphans`);
* a partial that stays unreadable after retries puts its reader into
  conservative mode (:mod:`repro.core.readers`) and quarantines the cell
  until :meth:`PCube.rebuild_cell <repro.core.pcube.PCube.rebuild_cell>`
  regenerates it from the base relation.
"""

from __future__ import annotations

from typing import Callable, Collection, Mapping, Sequence

from repro.bitmap.compression import decompress
from repro.core.partial import PartialSignature, compress_masks, edit_blobs, pack
from repro.core.readers import BooleanFallback, CellSignatureReader
from repro.core.signature import Signature
from repro.cube.cuboid import Cell
from repro.query.stats import QueryStats
from repro.storage.buffer import BufferPool
from repro.storage.counters import SSIG
from repro.storage.disk import PageFault, SimulatedDisk
from repro.storage.errors import StorageFault
from repro.storage.faults import FaultStats, RetryPolicy


class MissingPartialError(LookupError):
    """A directory ref points at a partial the store cannot produce.

    Raised on the full-signature reassembly path (in place of a
    load-bearing ``assert``, which vanishes under ``python -O``) and by a
    maintenance rewrite that cannot read the cell's current pages back.
    """

    def __init__(self, cell_id: str, ref_sid: int) -> None:
        super().__init__(
            f"cell {cell_id!r} has no loadable partial for ref SID {ref_sid}"
        )
        self.cell_id = cell_id
        self.ref_sid = ref_sid


class _DirectoryReads:
    """The read side of a ``cell_id -> {ref_sid -> page_id}`` directory —
    the live one (:class:`SignatureStore`) or an epoch's snapshot of it
    (:class:`StoreView`); both provide ``_directory``, ``disk``,
    ``fanout``, ``retry_policy`` and ``fault_stats``."""

    def has_cell(self, cell: Cell) -> bool:
        return cell.cell_id in self._directory

    def n_partials(self, cell: Cell) -> int:
        return len(self._directory.get(cell.cell_id, {}))

    def load_partial(
        self,
        cell: Cell,
        ref_sid: int,
        pool: BufferPool | None = None,
        stats: QueryStats | None = None,
        deadline_at: float | None = None,
    ) -> PartialSignature | None:
        """Load one partial by (cell, ref) — one counted ``SSIG`` page read.

        Returns ``None`` when the cell has no partial with that reference.
        Transient faults are retried under the store's
        :attr:`retry_policy` — the one place a read is retried; with a
        ``deadline_at`` (the serving ticket's wall-clock deadline) retries
        whose backoff would outspend the time left are skipped.  A read
        that keeps failing (or a detected corruption) propagates as a typed
        storage fault for the caller's degraded path.  The page is counted
        in ``stats.counters``, and every retry in ``stats.fault_retries``
        as well as in the store's :attr:`fault_stats`.

        The (cell, ref) lookup is the directory's, uncounted: the paper's
        B+-tree descent is not charged.
        """
        refs = self._directory.get(cell.cell_id)
        if refs is None or ref_sid not in refs:
            return None
        page_id = refs[ref_sid]
        counters = None if stats is None else stats.counters
        attempts = 0

        def read_once() -> PartialSignature:
            nonlocal attempts
            attempts += 1
            if pool is not None:
                return pool.get(page_id, SSIG, counters)
            return self.disk.read(page_id, SSIG, counters)

        try:
            return self.retry_policy.call(read_once, deadline_at=deadline_at)
        except StorageFault:
            self.fault_stats.bump(transient_errors=1)
            raise
        finally:
            # The policy retries only to attempt again: every attempt after
            # the first is one retry.
            if attempts > 1:
                self.fault_stats.bump(retries=attempts - 1)
                if stats is not None:
                    stats.fault_retries += attempts - 1

    def load_full_signature(
        self,
        cell: Cell,
        pool: BufferPool | None = None,
        stats: QueryStats | None = None,
    ) -> Signature:
        """Load and reassemble every partial of a cell (counted).  Every
        node decodes at the store's fanout; a blob that does not raises
        :class:`~repro.bitmap.compression.CodecError`."""
        signature = Signature(self.fanout)
        refs = self._directory.get(cell.cell_id, {})
        for ref_sid in sorted(refs):
            partial = self.load_partial(cell, ref_sid, pool, stats)
            if partial is None:
                raise MissingPartialError(cell.cell_id, ref_sid)
            for sid, blob in partial.blobs.items():
                signature.set_node(sid, decompress(self.fanout, blob))
        return signature

    def reader(
        self,
        cell: Cell,
        pool: BufferPool | None = None,
        stats: QueryStats | None = None,
        fallback: BooleanFallback | None = None,
    ) -> CellSignatureReader:
        """A bare reader of one cell (tests, ablations), bumping ``stats``
        or a fresh record; a query's reader comes from
        :meth:`~repro.core.pcube.ReaderFactory.reader_for_cells` with its
        plumbing."""
        if stats is None:
            stats = QueryStats()
        return CellSignatureReader(self, cell, pool, stats, fallback)


class SignatureStore(_DirectoryReads):
    """Partial signatures on disk, found by (cell id, ref SID).

    Args:
        disk: The device the partials live on.
        fanout: The R-tree fanout the signatures' nodes are sized for.
        tag: Page-tag prefix (partials are tagged ``{tag}:sig``).
        codec: Bitmap codec each node is compressed with.

    Transient read faults are retried by :attr:`retry_policy`, a fresh
    default :class:`RetryPolicy` (deterministic clock, no real sleeps).
    """

    def __init__(
        self,
        disk: SimulatedDisk,
        fanout: int,
        tag: str = "pcube",
        codec: str = "adaptive",
    ) -> None:
        self.disk = disk
        self.fanout = fanout
        self.tag = tag
        self.codec = codec
        self.retry_policy = RetryPolicy()
        self.fault_stats = FaultStats()
        # cell_id -> {ref_sid -> page_id}: the one map from a partial to
        # its page.
        self._directory: dict[str, dict[int, int]] = {}
        # cell_id -> (cell, reason) for cells whose partials proved
        # unreadable; cleared by PCube.rebuild_cell().
        self._quarantined: dict[str, tuple[Cell, str]] = {}
        #: When set, signature-page frees are routed here instead of
        #: ``disk.free`` — the epoch manager defers them until no pinned
        #: snapshot directory can still reference the page.
        self.free_hook: Callable[[int], None] | None = None

    def _free_sig_page(self, page_id: int) -> None:
        if self.free_hook is not None:
            self.free_hook(page_id)
            return
        try:
            self.disk.free(page_id)
        except PageFault:
            pass

    # ------------------------------------------------------------------ #
    # writing
    # ------------------------------------------------------------------ #

    def put_signature(
        self,
        cell: Cell,
        signature: Signature | None = None,
        removed: Sequence[tuple[int, ...]] = (),
        added: Sequence[tuple[int, ...]] = (),
    ) -> int:
        """Pack and store a cell's signature; returns #partials.

        With ``signature``, every node is compressed afresh.  Without it,
        the rewrite is maintenance's read-modify-write of the stored bits:
        the cell's tuples on the ``removed`` R-tree paths left it and those
        on the ``added`` ones joined it.  The blobs on the cell's current
        pages are read back, only the nodes on those paths are decoded,
        edited and compressed again (:func:`~repro.core.partial.edit_blobs`),
        and the blobs are packed (:func:`~repro.core.partial.pack` yields
        the same bytes as a from-scratch
        :func:`~repro.core.partial.decompose`).

        Raises:
            MissingPartialError: if a current partial cannot be read back
                (see :meth:`_stored_blobs`); nothing was written.
        """
        if signature is not None:
            return self.put_masks(cell, signature.masks())
        blobs = self._stored_blobs(cell)
        edit_blobs(blobs, removed, added, self.fanout, self.codec)
        partials = pack(blobs, self.disk.page_size, self.fanout)
        self.replace_partials(cell, partials)
        return len(partials)

    def put_masks(self, cell: Cell, masks: Mapping[int, int]) -> int:
        """Pack and store a cell given as its nodes' masks (SID -> mask);
        returns #partials.  Every node is compressed from its mask
        (:func:`~repro.core.partial.compress_masks`)."""
        return self.put_blobs(cell, compress_masks(masks, self.fanout, self.codec))

    def put_blobs(self, cell: Cell, blobs: Mapping[int, bytes]) -> int:
        """Pack and store a cell given as its compressed nodes (SID ->
        blob); returns #partials.  The build's entry
        (:meth:`~repro.core.pcube.PathColumns.blobs`)."""
        partials = pack(blobs, self.disk.page_size, self.fanout)
        self.replace_partials(cell, partials)
        return len(partials)

    def _stored_blobs(self, cell: Cell) -> dict[int, bytes]:
        """Every node blob on the cell's current pages — the read half of a
        maintenance read-modify-write: one counted, checksum-verified
        ``SSIG`` read per partial.

        Not retried and not quarantined: the stored signature is a
        rebuildable cache, so an unreadable page raises
        :class:`MissingPartialError` and the caller re-derives the cell
        (replacing the damaged page) instead of failing the write.  A
        :class:`~repro.storage.faults.SimulatedCrash` is not a storage
        fault and propagates like at every other crash point.
        """
        blobs: dict[int, bytes] = {}
        for ref_sid, page_id in self._directory.get(cell.cell_id, {}).items():
            try:
                blobs.update(self.disk.read(page_id, SSIG).blobs.copy())
            except (StorageFault, PageFault) as fault:
                raise MissingPartialError(cell.cell_id, ref_sid) from fault
        return blobs

    def replace_partials(
        self, cell: Cell, partials: Sequence[PartialSignature]
    ) -> None:
        """Replace every stored partial of a cell (maintenance rewrite);
        no partial drops the cell, as a build leaves a cell with no live
        member absent.

        Atomic: the new pages are allocated first, then the directory swaps
        to them in one step (the commit point), then the old pages are
        freed.  A storage fault while allocating frees the pages this
        rewrite allocated and leaves the old partials current.  A crash
        leaves the unreferenced generation on disk for :meth:`free_orphans`
        (``PCubeSystem.recover``).
        """
        cell_id = cell.cell_id
        existing = self._directory.get(cell_id, {})
        # Phase 1: allocate every new page; the directory is untouched.
        refs: dict[int, int] = {}
        try:
            for partial in partials:
                refs[partial.ref_sid] = self.disk.allocate(
                    f"{self.tag}:sig", size=partial.size_bytes, payload=partial
                )
        except StorageFault:
            for page_id in refs.values():
                self._free_sig_page(page_id)
            raise
        # Phase 2: commit — one directory swap.
        if refs:
            self._directory[cell_id] = refs
        else:
            self._directory.pop(cell_id, None)
        # Phase 3: free the replaced pages (registered buffer pools are told
        # to evict them, so no reader can see a stale partial).  Under an
        # epoch manager the physical free is deferred instead, because a
        # pinned snapshot directory may still reference them.
        for page_id in existing.values():
            self._free_sig_page(page_id)

    def clear(self) -> None:
        """Drop every cell: its pages are freed (deferred under an epoch
        manager, as a rewrite's are) and every quarantine is lifted."""
        directory, self._directory = self._directory, {}
        self._quarantined.clear()
        for refs in directory.values():
            for page_id in refs.values():
                self._free_sig_page(page_id)

    def orphan_pages(self, held: Collection[int] = ()) -> list[int]:
        """Signature pages the directory does not reference and ``held``
        (the epoch manager's deferred frees) does not name — what a crash
        mid-rewrite leaves behind."""
        tag = f"{self.tag}:sig"
        referenced = {
            page_id
            for refs in self._directory.values()
            for page_id in refs.values()
        }
        return sorted(
            page.page_id
            for page in self.disk.pages(tag)
            if page.tag == tag
            and page.page_id not in referenced
            and page.page_id not in held
        )

    def free_orphans(self, held: Collection[int] = ()) -> int:
        """Free every :meth:`orphan_pages` page; returns how many.

        Crash recovery's sweep: the directory is the one map from a partial
        to its page, so a page it does not reference belongs
        to a rewrite that never committed (or committed without freeing the
        generation it replaced).  Only safe while no rewrite is in flight —
        its new pages are unreferenced until its commit point.
        """
        orphans = self.orphan_pages(held)
        for page_id in orphans:
            try:
                self.disk.free(page_id)
            except PageFault:
                pass
        return len(orphans)

    # ------------------------------------------------------------------ #
    # quarantine & rebuild
    # ------------------------------------------------------------------ #

    def quarantine(self, cell: Cell, reason: object) -> None:
        """Mark a cell's stored signature as unreadable (degraded mode)."""
        if cell.cell_id not in self._quarantined:
            self.fault_stats.bump(quarantines=1)
        self._quarantined[cell.cell_id] = (cell, repr(reason))

    def is_quarantined(self, cell: Cell) -> bool:
        return cell.cell_id in self._quarantined

    def quarantined_cells(self) -> list[Cell]:
        """Cells awaiting a rebuild, in deterministic (cell id) order."""
        return [
            cell for _, (cell, _) in sorted(self._quarantined.items())
        ]

    def clear_quarantine(self, cell: Cell) -> None:
        self._quarantined.pop(cell.cell_id, None)

    # ------------------------------------------------------------------ #
    # reading
    # ------------------------------------------------------------------ #

    def cells(self) -> list[str]:
        return sorted(self._directory)

    #: Bound on this class too: the e2e span recorder wraps the methods it
    #: times through ``cls.__dict__``.
    load_partial = _DirectoryReads.load_partial

    def directory_snapshot(self) -> dict[str, dict[int, int]]:
        """A point-in-time copy of the (cell → refs) directory.

        Cheap: only the outer map is copied.  ``replace_partials`` installs
        a *new* inner refs map at its commit point rather than mutating the
        old one, so the shared inner dicts are immutable from the
        snapshot's perspective.
        """
        return dict(self._directory)

    def view(self, directory: dict[str, dict[int, int]]) -> "StoreView":
        """A read-only store bound to a snapshotted directory."""
        return StoreView(self, directory)

    def directory_entries(self) -> list[tuple[tuple[str, int], int]]:
        """Every ``((cell_id, ref_sid), page_id)`` pair in the directory,
        in key order."""
        return [
            ((cell_id, ref), refs[ref])
            for cell_id in sorted(self._directory)
            for refs in (self._directory[cell_id],)
            for ref in sorted(refs)
        ]


class StoreView(_DirectoryReads):
    """The signature store as one epoch saw it — a read-only projection.

    Serves :meth:`load_partial` / :meth:`load_full_signature` lookups from
    a snapshotted directory, so a pinned reader resolves exactly the
    partial pages that were current when its epoch was published, even
    while maintenance rewrites cells underneath (old pages stay allocated
    until the epoch drains — the manager defers their frees).  It mirrors
    only what a query reads: ``disk``, ``fanout``, ``retry_policy``,
    ``fault_stats``, the directory reads (``has_cell``, ``n_partials``,
    ``load_partial``, ``load_full_signature``, ``reader``) and
    ``quarantine``.  Quarantine and fault accounting pass through to the
    live store: discovering an unreadable page is news for the repair queue
    regardless of which epoch noticed it — as long as the page is still
    the cell's current one.
    """

    def __init__(
        self, base: SignatureStore, directory: dict[str, dict[int, int]]
    ) -> None:
        self._base = base
        self._directory = directory
        self.disk = base.disk
        self.fanout = base.fanout
        self.retry_policy = base.retry_policy
        self.fault_stats = base.fault_stats

    def quarantine(self, cell: Cell, reason: object) -> None:
        """Quarantine the cell in the live store — unless a re-store has
        superseded the pages this view reads (``replace_partials`` installs
        a new refs map at its commit point), which the fault is then no
        news about."""
        current = self._base._directory.get(cell.cell_id)
        if current is self._directory.get(cell.cell_id):
            self._base.quarantine(cell, reason)

    def is_quarantined(self, cell: Cell) -> bool:
        return self._base.is_quarantined(cell)

    #: Bound on this class too: the e2e span recorder wraps the methods it
    #: times through ``cls.__dict__``.
    load_partial = _DirectoryReads.load_partial
