"""The on-disk signature store and its lazily loading readers.

Paper Section VI-A: "Signatures are compressed, decomposed and indexed
(using B+-tree) by cell IDs and SID's."  A partial signature lives on one
disk page; the B+-tree maps ``(cell_id, ref_sid)`` to that page.  At query
time a :class:`CellSignatureReader` starts from the root-referenced partial
and loads further partials only when the search requests a node that is not
resident yet (Section IV-B.2's retrieval protocol) — every load is counted
under ``SSIG`` and timed for the Figure 15 breakdown.  A loaded partial
stays compressed; the reader decompresses a node when a bit of it is first
tested (nodes are compressed individually so that they can be,
Section IV-B.1), and most nodes of a partial never are.

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
* when a partial stays unreadable after retries, the owning
  :class:`CellSignatureReader` enters *conservative mode*: bit tests that
  cannot be resolved answer ``True`` (losing boolean pruning, preserving
  Algorithm 1's correctness), leaf-level checks are resolved exactly
  against the base relation via a fallback, and the cell is quarantined
  until :meth:`PCube.rebuild_cell <repro.core.pcube.PCube.rebuild_cell>`
  regenerates it from the base relation.
"""

from __future__ import annotations

import time
from typing import TYPE_CHECKING, Callable, Collection, Sequence

from repro.bitmap.bitarray import BitArray
from repro.bitmap.compression import decompress
from repro.btree.btree import BPlusTree
from repro.core.partial import (
    PartialSignature,
    compress_nodes,
    pack,
    retrieval_refs,
)
from repro.core.sid import sid_of_path
from repro.obs.trace import DEGRADED, Tracer
from repro.core.signature import Signature
from repro.cube.cuboid import Cell
from repro.storage.buffer import BufferPool
from repro.storage.counters import SSIG, IOCounters
from repro.storage.disk import PageFault, SimulatedDisk
from repro.storage.errors import StorageFault
from repro.storage.faults import FaultStats, RetryPolicy

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.counted import CountedSignature
    from repro.core.breakers import BreakerBoard


class MissingPartialError(LookupError):
    """A directory ref points at a partial the store cannot produce.

    Replaces a load-bearing ``assert`` (which vanishes under ``python -O``)
    on the full-signature reassembly path.
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
        counters: IOCounters | None = None,
        on_retry: Callable[[int, Exception], None] | None = None,
        deadline_at: float | None = None,
    ) -> PartialSignature | None:
        """Load one partial by (cell, ref) — one counted ``SSIG`` page read.

        Returns ``None`` when the cell has no partial with that reference.
        Transient faults are retried under the store's
        :attr:`retry_policy` — the one place a read is retried; with a
        ``deadline_at`` (the serving ticket's wall-clock deadline) retries
        whose backoff would outspend the time left are skipped.  A read
        that keeps failing (or a detected corruption) propagates as a typed
        storage fault for the caller's degraded path.

        The index descent is served from the directory (equivalent to a
        pinned B+-tree root path); tests exercise the counted B+-tree
        separately.
        """
        refs = self._directory.get(cell.cell_id)
        if refs is None or ref_sid not in refs:
            return None
        page_id = refs[ref_sid]

        def read_once() -> PartialSignature:
            if pool is not None:
                return pool.get(page_id, SSIG, counters)
            return self.disk.read(page_id, SSIG, counters)

        def count_retry(attempt: int, exc: Exception) -> None:
            self.fault_stats.bump(retries=1)
            if on_retry is not None:
                on_retry(attempt, exc)

        try:
            return self.retry_policy.call(
                read_once, on_retry=count_retry, deadline_at=deadline_at
            )
        except StorageFault:
            self.fault_stats.bump(transient_errors=1)
            raise

    def load_full_signature(
        self,
        cell: Cell,
        pool: BufferPool | None = None,
        counters: IOCounters | None = None,
    ) -> Signature:
        """Load and reassemble every partial of a cell (counted)."""
        signature = Signature(self.fanout)
        refs = self._directory.get(cell.cell_id, {})
        for ref_sid in sorted(refs):
            partial = self.load_partial(cell, ref_sid, pool, counters)
            if partial is None:
                raise MissingPartialError(cell.cell_id, ref_sid)
            for sid, bits in partial.decode().items():
                signature.set_node(sid, bits)
        return signature

    def reader(
        self,
        cell: Cell,
        pool: BufferPool | None = None,
        counters: IOCounters | None = None,
        fallback: "BooleanFallback | None" = None,
    ) -> "CellSignatureReader":
        """A bare reader of one cell (tests, ablations); a query's reader
        comes from :meth:`PCube.reader_for_cells` with its plumbing."""
        return CellSignatureReader(self, cell, pool, counters, fallback)


class SignatureStore(_DirectoryReads):
    """Partial signatures on disk, indexed by (cell id, ref SID).

    Args:
        disk: The device the partials and the (cell, ref) B+-tree live on.
        fanout: The R-tree fanout the signatures' nodes are sized for.
        tag: Page-tag prefix (``{tag}:sig``, ``{tag}:index``).
        codec: Bitmap codec each node is compressed with.
        retry_policy: Bounded-backoff retry for transient read faults;
            defaults to a fresh :class:`RetryPolicy` (deterministic clock,
            no real sleeps).  Pass ``RetryPolicy(max_attempts=1)`` to
            disable retrying.
    """

    def __init__(
        self,
        disk: SimulatedDisk,
        fanout: int,
        tag: str = "pcube",
        codec: str = "adaptive",
        retry_policy: RetryPolicy | None = None,
    ) -> None:
        self.disk = disk
        self.fanout = fanout
        self.tag = tag
        self.codec = codec
        self.retry_policy = retry_policy if retry_policy is not None else RetryPolicy()
        self.fault_stats = FaultStats()
        self._index = BPlusTree(order=128, disk=disk, tag=f"{tag}:index")
        # cell_id -> {ref_sid -> page_id}; mirrors the B+-tree for O(1)
        # unaccounted access (maintenance) while queries go through the
        # counted B+-tree path.
        self._directory: dict[str, dict[int, int]] = {}
        # cell_id -> (cell, reason) for cells whose partials proved
        # unreadable; cleared by PCube.rebuild_cell().
        self._quarantined: dict[str, tuple[Cell, str]] = {}
        #: When set, signature-page frees are routed here instead of
        #: ``disk.free`` — the epoch manager defers them until no pinned
        #: snapshot directory can still reference the page.
        self.free_hook: Callable[[int], None] | None = None
        #: When set, called with a cell id whenever that cell's quarantine
        #: is lifted (a rebuild made its pages readable again).  The
        #: serving executor points this at its breaker board so live
        #: sessions heal immediately; epoch-bound sessions heal through
        #: epoch comparison regardless.
        self.on_cell_rebuilt: Callable[[str], None] | None = None

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
        signature: Signature | CountedSignature,
        dirty_sids: Collection[int] | None = None,
    ) -> int:
        """Pack and store a full cell signature; returns #partials.

        ``signature`` only has to answer ``node(sid)``, ``node_sids()``,
        ``n_nodes()`` and ``fanout`` — maintenance hands over the counted
        signature itself, so no bitmap of the whole cell is ever built.

        ``dirty_sids`` makes the rewrite a read-modify-write: the caller
        states that, since the cell was last stored, only these nodes' bit
        arrays may have changed, so the blobs on the cell's current pages
        are patched — each dirty node compressed again, or dropped if it
        vanished — and packed (:func:`~repro.core.partial.pack` yields the
        same bytes as a from-scratch :func:`~repro.core.partial.decompose`).
        Without it, when an old partial cannot be read, or when the patched
        pages do not hold exactly the signature's nodes (the statement was
        wrong), every node is compressed afresh.
        """
        blobs = None if dirty_sids is None else self._stored_blobs(cell)
        if blobs:
            for sid in dirty_sids:
                blobs.pop(sid, None)
            blobs.update(compress_nodes(signature, dirty_sids, self.codec))
        if not blobs or len(blobs) != signature.n_nodes():
            blobs = compress_nodes(signature, signature.node_sids(), self.codec)
        partials = pack(blobs, self.disk.page_size, self.fanout)
        self.replace_partials(cell, partials)
        return len(partials)

    def _stored_blobs(self, cell: Cell) -> dict[int, bytes] | None:
        """Every node blob on the cell's current pages — the read half of a
        maintenance read-modify-write: one counted, checksum-verified
        ``SSIG`` read per partial.

        ``None`` when any of them is unreadable: the stored signature is a
        rebuildable cache, so the rewrite then recompresses every node (and
        replaces the damaged page) instead of failing the write.  Not
        retried and not quarantined — the pages are about to be replaced.
        A :class:`~repro.storage.faults.SimulatedCrash` is not a storage
        fault and propagates like at every other crash point.
        """
        blobs: dict[int, bytes] = {}
        try:
            for page_id in self._directory.get(cell.cell_id, {}).values():
                blobs.update(self.disk.read(page_id, SSIG).blobs)
        except (StorageFault, PageFault):
            return None
        return blobs

    def replace_partials(
        self, cell: Cell, partials: Sequence[PartialSignature]
    ) -> None:
        """Replace every stored partial of a cell (maintenance rewrite).

        Atomic: the new pages are allocated first, then the directory swaps
        to them in one step (the commit point), then the index is brought in
        line and the old pages freed.  A storage fault while allocating
        frees the pages this rewrite allocated and leaves the old partials
        current; once the swap has committed, the old pages are freed
        whatever happens next.  A crash leaves the unreferenced generation
        on disk for :meth:`free_orphans` (``PCubeSystem.recover``).
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
        self._directory[cell_id] = refs
        try:
            # Phase 3: keep the B+-tree exactly in line with the directory —
            # vanished refs are deleted (not left stale), moved refs are
            # replaced rather than duplicated.
            for ref in existing:
                self._index.delete((cell_id, ref))
            for ref in sorted(refs):
                self._index.insert((cell_id, ref), refs[ref])
        finally:
            # Phase 4: free the replaced pages (registered buffer pools are
            # told to evict them, so no reader can see a stale partial).
            # Under an epoch manager the physical free is deferred instead,
            # because a pinned snapshot directory may still reference them.
            for page_id in existing.values():
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

        Crash recovery's sweep, the sibling of :meth:`reset_index`: the
        directory is authoritative, so a page it does not reference belongs
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
        was_quarantined = self._quarantined.pop(cell.cell_id, None)
        if was_quarantined is not None and self.on_cell_rebuilt is not None:
            self.on_cell_rebuilt(cell.cell_id)

    # ------------------------------------------------------------------ #
    # reading
    # ------------------------------------------------------------------ #

    def cells(self) -> list[str]:
        return sorted(self._directory)

    #: Bound on this class too: the e2e span recorder wraps the methods it
    #: times through ``cls.__dict__``.
    load_partial = _DirectoryReads.load_partial

    def index_height(self) -> int:
        return self._index.height()

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

    def refs_for(self, cell: Cell) -> dict[int, int]:
        """The directory's ``ref_sid -> page_id`` map for a cell (audits)."""
        return dict(self._directory.get(cell.cell_id, {}))

    def directory_entries(self) -> list[tuple[tuple[str, int], int]]:
        """Every ``((cell_id, ref_sid), page_id)`` pair in the directory,
        in key order — the shape :meth:`index_entries` returns, so audits
        can compare the two views directly."""
        return [
            ((cell_id, ref), refs[ref])
            for cell_id in sorted(self._directory)
            for refs in (self._directory[cell_id],)
            for ref in sorted(refs)
        ]

    def index_entries(self) -> list[tuple[tuple[str, int], int]]:
        """Every ``((cell_id, ref_sid), page_id)`` pair in the B+-tree, in
        key order (consistency audits compare this against the directory)."""
        entries: list[tuple[tuple[str, int], int]] = []
        for key in self._index.distinct_keys():
            for page_id in self._index.search(key):
                entries.append((key, page_id))
        return entries

    def reset_index(self) -> int:
        """Discard and re-derive the (cell, ref) B+-tree from the directory.

        The directory is authoritative (the index mirrors it for counted
        query-time descents), and a crash between B+-tree page writes can
        leave the index structurally broken mid-split — so crash recovery
        does not repair it, it rebuilds it.  Returns the number of entries
        reinserted.  Idempotent.
        """
        for page in list(self.disk.pages(f"{self.tag}:index")):
            try:
                self.disk.free(page.page_id)
            except PageFault:
                pass
        self._index = BPlusTree(
            order=128, disk=self.disk, tag=f"{self.tag}:index"
        )
        entries = self.directory_entries()
        self._index.bulk_insert(entries)
        return len(entries)


class StoreView(_DirectoryReads):
    """The signature store as one epoch saw it — a read-only projection.

    Serves :meth:`load_partial` / :meth:`load_full_signature` lookups from
    a snapshotted directory, so a pinned reader resolves exactly the
    partial pages that were current when its epoch was published, even
    while maintenance rewrites cells underneath (old pages stay allocated
    until the epoch drains — the manager defers their frees).  Quarantine
    and fault accounting intentionally pass through to the live store:
    discovering an unreadable page is news for the repair queue regardless
    of which epoch noticed it.
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
        self._base.quarantine(cell, reason)

    def is_quarantined(self, cell: Cell) -> bool:
        return self._base.is_quarantined(cell)

    #: Bound on this class too: the e2e span recorder wraps the methods it
    #: times through ``cls.__dict__``.
    load_partial = _DirectoryReads.load_partial


#: Exact boolean resolver used in conservative mode: ``(cell, path,
#: counters) -> does the entry at path contain data of the cell?``  Must be
#: conservative (``True``) wherever it cannot answer exactly.
BooleanFallback = Callable[[Cell, tuple[int, ...], "IOCounters | None"], bool]


class CellSignatureReader:
    """A lazily loaded, lazily decoded view of one cell's signature.

    Bit tests trigger partial loads per the paper's retrieval protocol; the
    cumulative wall-clock time spent loading is recorded in
    :attr:`load_seconds` (Figure 15 reports it against total query time).
    Residency is decided on the loaded partials' blobs; a node is
    decompressed by the first bit test that reaches its SID and kept for
    the query.  A blob that does not decode therefore raises its
    ``CodecError`` from that bit test — the page checksum covers the
    blobs, so this is a writer bug and is not degraded around.

    When a partial is unreadable after retries the reader degrades instead
    of failing: the unresolvable refs are remembered, the cell is
    quarantined in the store, and bit tests that depend on the lost nodes
    answer conservatively — ``True`` (no pruning) at internal nodes, and
    exactly via ``fallback`` (a base-relation probe) where one is provided.
    Algorithm 1 then still returns exactly the fault-free answer, just with
    more block reads (the robustness overhead the stats record).
    """

    def __init__(
        self,
        store: "SignatureStore | StoreView",
        cell: Cell,
        pool: BufferPool | None,
        counters: IOCounters | None,
        fallback: BooleanFallback | None = None,
        tracer: Tracer | None = None,
        deadline_at: float | None = None,
        breakers: "BreakerBoard | None" = None,
        epoch: int | None = None,
    ) -> None:
        self.store = store
        self.cell = cell
        self.pool = pool
        self.counters = counters
        self.fallback = fallback
        self.tracer = tracer
        self.deadline_at = deadline_at
        self.breakers = breakers
        self.epoch = epoch
        self.fanout = store.fanout
        #: The loaded partials' nodes, compressed, and those tested so far.
        self._blobs: dict[int, bytes] = {}
        self._nodes: dict[int, BitArray] = {}
        self._loaded_refs: set[int] = set()
        self._known_missing: set[int] = set()
        self._unreadable_refs: set[int] = set()
        self.load_seconds = 0.0
        self.loads = 0
        self.retries = 0
        self.failed_loads = 0
        self.degraded_checks = 0
        self.breaker_skips = 0
        # The first partial (root reference) is loaded up front, as the
        # paper prescribes ("To begin with, we load the first partial
        # signature referenced by the R-tree root").
        self._load_ref(0)

    @property
    def degraded(self) -> bool:
        """Whether any partial proved unreadable (conservative mode)."""
        return bool(self._unreadable_refs)

    # ------------------------------------------------------------------ #
    # loading
    # ------------------------------------------------------------------ #

    def _count_retry(self, attempt: int, exc: Exception) -> None:
        self.retries += 1

    def _load_ref(self, ref_sid: int) -> bool | None:
        """Load the partial referenced by ``ref_sid``.

        Returns ``True`` when loaded, ``False`` when the store provably has
        no such partial, and ``None`` when the partial exists but could not
        be read (transient fault that outlived the retry budget, or
        corruption) — the caller must treat the nodes it may have held as
        unknown.
        """
        if ref_sid in self._loaded_refs:
            return True
        if ref_sid in self._known_missing:
            return False
        if ref_sid in self._unreadable_refs:
            return None
        if self.breakers is not None and not self.breakers.allow(
            self.cell.cell_id, ref_sid, self.epoch
        ):
            # An open breaker: the pages behind this ref keep failing, so
            # skip straight to the degraded path — zero I/O, no re-probe.
            self._unreadable_refs.add(ref_sid)
            self.breaker_skips += 1
            if self.tracer is not None:
                self.tracer.sig_load(
                    self.cell.cell_id, ref_sid, "short-circuit", 0.0
                )
            return None
        started = time.perf_counter()
        try:
            partial = self.store.load_partial(
                self.cell,
                ref_sid,
                self.pool,
                self.counters,
                on_retry=self._count_retry,
                deadline_at=self.deadline_at,
            )
        except StorageFault as fault:
            if self.breakers is not None:
                self.breakers.record_failure(
                    self.cell.cell_id, ref_sid, self.epoch
                )
            self._unreadable_refs.add(ref_sid)
            self.failed_loads += 1
            self.store.fault_stats.bump(degraded_loads=1)
            self.store.quarantine(self.cell, fault)
            elapsed = time.perf_counter() - started
            self.load_seconds += elapsed
            if self.tracer is not None:
                self.tracer.sig_load(
                    self.cell.cell_id, ref_sid, "unreadable", elapsed
                )
            return None
        if partial is None:
            self._known_missing.add(ref_sid)
            elapsed = time.perf_counter() - started
            self.load_seconds += elapsed
            if self.tracer is not None:
                self.tracer.sig_load(
                    self.cell.cell_id, ref_sid, "missing", elapsed
                )
            return False
        if self.breakers is not None:
            self.breakers.record_success(self.cell.cell_id, ref_sid)
        self._loaded_refs.add(ref_sid)
        self._blobs.update(partial.blobs)
        self.loads += 1
        elapsed = time.perf_counter() - started
        self.load_seconds += elapsed
        if self.tracer is not None:
            self.tracer.sig_load(
                self.cell.cell_id, ref_sid, "loaded", elapsed
            )
        return True

    def _ensure_node(self, node_path: Sequence[int], node_sid: int) -> bool | None:
        """Make the node at ``node_path`` resident.

        Returns ``True`` when resident, ``False`` when provably absent
        (every candidate partial was readable and none held it), ``None``
        when unresolvable (some candidate partial was unreadable).

        Follows the retrieval protocol: probe the partials referenced by
        each ancestor from the root downward until the node shows up.
        """
        if node_sid in self._blobs:
            return True
        unresolved = False
        for ref in retrieval_refs(node_path, self.fanout):
            if ref in self._loaded_refs:
                continue
            outcome = self._load_ref(ref)
            if outcome is None:
                unresolved = True
                continue
            if outcome and node_sid in self._blobs:
                return True
        if node_sid in self._blobs:
            return True
        return None if unresolved else False

    def _bits(self, sid: int) -> BitArray:
        """The resident node ``sid``, decompressed on its first use."""
        bits = self._nodes.get(sid)
        if bits is None:
            bits = self._nodes[sid] = decompress(self._blobs[sid])
        return bits

    # ------------------------------------------------------------------ #
    # bit tests (the query-time interface)
    # ------------------------------------------------------------------ #

    def _conservative(self, path: tuple[int, ...]) -> bool:
        """Answer an unresolvable bit test without losing correctness.

        With a fallback, leaf-level paths are answered exactly from the
        base relation (and internal paths conservatively); without one,
        every unresolvable test answers ``True`` — boolean pruning is lost
        for the affected subtree, result correctness is not.
        """
        self.degraded_checks += 1
        if self.tracer is not None:
            self.tracer.event(
                DEGRADED,
                cell_id=self.cell.cell_id,
                path=path,
                exact=self.fallback is not None,
            )
        if self.fallback is not None:
            return self.fallback(self.cell, path, self.counters)
        return True

    def check_entry(self, parent_path: Sequence[int], position: int) -> bool:
        """Whether the entry at 1-based ``position`` of the node at
        ``parent_path`` contains data of this cell.

        This is the single-bit check Algorithm 1's ``boolean_prune`` issues
        for each candidate entry: the parent node was necessarily checked
        before (the search descends), so one bit suffices.
        """
        parent_sid = sid_of_path(parent_path, self.fanout)
        resident = self._ensure_node(parent_path, parent_sid)
        if resident is None:
            return self._conservative(tuple(parent_path) + (position,))
        if not resident:
            return False
        return self._bits(parent_sid).get(position - 1)

    def check_block(
        self, parent_path: Sequence[int], wanted: int
    ) -> int | None:
        """The whole-node form of :meth:`check_entry`: which of the
        ``wanted`` entries (bit ``p − 1`` = 1-based position ``p``) of the
        node at ``parent_path`` contain data of this cell.

        One residency check — hence exactly the partial loads the first
        ``check_entry`` on this node would issue — then one mask AND.
        Returns ``None`` when the node is unresolvable; the caller then
        asks :meth:`check_entry` per wanted entry, which answers each one
        conservatively (and counts it) as before.
        """
        parent_sid = sid_of_path(parent_path, self.fanout)
        resident = self._ensure_node(parent_path, parent_sid)
        if resident is None:
            return None
        if not resident:
            return 0
        return wanted & self._bits(parent_sid).mask

    def check_path(self, path: Sequence[int]) -> bool:
        """Whether the entry addressed by a full path contains cell data."""
        if not path:
            resident = self._ensure_node((), 0)
            if resident is None:
                return self._conservative(())
            return bool(resident) and self._bits(0).any()
        return self.check_entry(tuple(path[:-1]), path[-1])


class MemberReaders:
    """Several per-cell readers answering as one: ``load_seconds`` /
    ``loads`` and the fault counters aggregate over the members, and the
    group is degraded as soon as any member is."""

    def __init__(self, readers: Sequence) -> None:
        if not readers:
            raise ValueError(f"{type(self).__name__} needs at least one reader")
        self.readers = list(readers)

    @property
    def load_seconds(self) -> float:
        return sum(reader.load_seconds for reader in self.readers)

    @property
    def loads(self) -> int:
        return sum(reader.loads for reader in self.readers)

    @property
    def retries(self) -> int:
        return sum(reader.retries for reader in self.readers)

    @property
    def failed_loads(self) -> int:
        return sum(reader.failed_loads for reader in self.readers)

    @property
    def degraded_checks(self) -> int:
        return sum(reader.degraded_checks for reader in self.readers)

    @property
    def breaker_skips(self) -> int:
        return sum(reader.breaker_skips for reader in self.readers)

    @property
    def degraded(self) -> bool:
        return any(reader.degraded for reader in self.readers)


class AssembledReader(MemberReaders):
    """Conjunction of several cell readers: the paper's recursive
    intersection (Section IV-B.2, Fig. 3), answered on demand.

    A bit is set iff it is set in every member **and**, above the leaf
    level, the intersection of the child subtrees is non-empty — bit for
    bit what :func:`repro.core.ops.intersect_all` computes from the full
    signatures, but evaluated per query and only where the search asks:
    :meth:`_nonempty` looks ahead below a candidate child, stops at the
    first witness and is memoised, so each node of each member is decoded
    at most once per query.  Every bit still goes through the members'
    ``check_*`` methods (partial loads, retries, breakers, quarantine).  A
    node some member cannot resolve counts as non-empty during look-ahead
    — no fallback probe, no ``degraded_checks`` — and meets the members'
    conservative path when the search expands it.

    Args:
        readers: One reader per cell of the conjunction.
        leaf_depth: Path length of the R-tree's leaf nodes
            (``rtree.root.level``): bits there denote tuples, are exact as
            they stand and end the look-ahead.
    """

    def __init__(
        self, readers: Sequence[CellSignatureReader], leaf_depth: int
    ) -> None:
        super().__init__(readers)
        self.leaf_depth = leaf_depth
        #: Per query: node path -> AND of the members' masks (``None`` =
        #: unresolvable), and node path -> is its exact intersection non-empty.
        self._masks: dict[tuple[int, ...], int | None] = {}
        self._nonempty_memo: dict[tuple[int, ...], bool] = {}

    def _mask(self, path: tuple[int, ...]) -> int | None:
        """The plain AND of the members' bits at the node at ``path``;
        member *k* sees only what passed members < *k* and is not consulted
        once nothing did.  ``None`` when a consulted member cannot resolve
        the node."""
        try:
            return self._masks[path]
        except KeyError:
            pass
        mask: int | None = -1  # every entry wanted
        for reader in self.readers:
            mask = reader.check_block(path, mask)
            if not mask:  # unresolvable, or provably empty
                break
        self._masks[path] = mask
        return mask

    def _nonempty(self, path: tuple[int, ...]) -> bool:
        """Whether the exact intersection has data under the node at
        ``path`` (Fig. 3's recursion, first witness wins)."""
        known = self._nonempty_memo.get(path)
        if known is None:
            mask = self._mask(path)
            if mask is None or len(path) >= self.leaf_depth:
                known = mask != 0
            else:
                known = False
                while mask and not known:
                    low = mask & -mask
                    mask ^= low
                    known = self._nonempty(path + (low.bit_length(),))
            self._nonempty_memo[path] = known
        return known

    def check_entry(self, parent_path: Sequence[int], position: int) -> bool:
        return all(
            reader.check_entry(parent_path, position) for reader in self.readers
        ) and (
            len(parent_path) >= self.leaf_depth
            or self._nonempty(tuple(parent_path) + (position,))
        )

    def check_block(
        self, parent_path: Sequence[int], wanted: int
    ) -> int | None:
        path = tuple(parent_path)
        mask = self._mask(path)
        if mask is None:
            return None
        passed = wanted & mask
        if len(path) < self.leaf_depth:
            pending = passed
            while pending:
                low = pending & -pending
                pending ^= low
                if not self._nonempty(path + (low.bit_length(),)):
                    passed ^= low
        return passed

    def check_path(self, path: Sequence[int]) -> bool:
        if path:
            return self.check_entry(tuple(path[:-1]), path[-1])
        return all(
            reader.check_path(()) for reader in self.readers
        ) and self._nonempty(())
