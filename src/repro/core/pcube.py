"""The P-Cube: a data cube whose measure is the signature.

Build it once over a relation and its R-tree partition template; it then
serves signature readers for arbitrary boolean predicates (materialised
cells directly, everything else assembled from atomic cells) and absorbs
incremental updates driven by R-tree path changes.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Sequence

import numpy as np

from repro.core.counted import CountedSignature, PathColumns
from repro.obs.trace import COVER, Tracer
from repro.core.signature import Signature
from repro.core.readers import (
    AnyOfReader,
    AssembledReader,
    CellSignatureReader,
    EmptyReader,
)
from repro.core.store import SignatureStore
from repro.cube.cuboid import Cell, Cuboid, atomic_cuboids
from repro.cube.relation import Relation
from repro.rtree.rtree import PathChange, RTree
from repro.query.stats import QueryStats
from repro.storage.buffer import BufferPool
from repro.storage.counters import IOCounters

if TYPE_CHECKING:
    from repro.core.breakers import BreakerBoard
    from repro.query.predicates import BooleanPredicate


class ReaderFactory:
    """The query-side face of a P-Cube: turning predicates into readers.

    Mixin shared by the live :class:`PCube` and the per-epoch
    :class:`PCubeView`.  It only touches the duck-typed attributes both
    provide — ``store`` (live store or :class:`~repro.core.store.StoreView`),
    ``rtree`` (live tree or :class:`~repro.rtree.frozen.FrozenRTree`),
    ``relation`` (live relation or
    :class:`~repro.cube.relation.RelationView`), ``cuboids`` and
    ``fanout`` — so the same cover choice, assembly and degraded-mode
    fallback serve both the single-query and the snapshot-isolated
    concurrent paths.
    """

    def materialised_cell(self, cell: Cell) -> bool:
        """Whether this exact cell's signature is stored."""
        return self.store.has_cell(cell)

    def reader_for_cells(
        self,
        cells: Sequence[Cell],
        pool: BufferPool | None = None,
        stats: QueryStats | None = None,
        tracer: Tracer | None = None,
        deadline_at: float | None = None,
        breakers: "BreakerBoard | None" = None,
        epoch: int | None = None,
    ):
        """A boolean-prune reader for the conjunction of ``cells``.

        Every cell reads lazily from the store; a conjunction of several is
        an :class:`~repro.core.readers.AssembledReader` — the paper's exact
        recursive intersection (Fig. 3) evaluated on demand, to the leaf
        depth of this tree.  Every per-cell reader bumps ``stats`` (a fresh
        record when none is given).  A ``tracer`` is handed down to every
        per-cell reader (partial-load events) and receives one ``cover``
        event naming the cells assembled.
        """
        if not cells:
            raise ValueError("reader_for_cells needs at least one cell")
        if stats is None:
            stats = QueryStats()
        resolved: list[Cell] = []
        for cell in cells:
            if self.materialised_cell(cell):
                resolved.append(cell)
                continue
            # Fall back to the cell's atomic factors (always materialised).
            for atom in cell.atoms():
                if not self.materialised_cell(atom):
                    # The atomic cell has no partials: no tuple carries this
                    # value, so the conjunction is empty.
                    if tracer is not None:
                        tracer.event(
                            COVER, cells=[c.cell_id for c in cells], empty=True
                        )
                    return EmptyReader()
                resolved.append(atom)
        if tracer is not None:
            tracer.event(COVER, cells=[cell.cell_id for cell in resolved])
        readers = [
            CellSignatureReader(
                self.store,
                cell,
                pool,
                stats,
                fallback=self.boolean_fallback,
                tracer=tracer,
                deadline_at=deadline_at,
                breakers=breakers,
                epoch=epoch,
            )
            for cell in resolved
        ]
        if len(readers) == 1:
            return readers[0]
        return AssembledReader(readers, self.rtree.root.level)

    def cover_for_dims(
        self, conjuncts: dict
    ) -> list[Cell] | None:
        """Choose materialised cells whose conjunction equals ``conjuncts``.

        The paper materialises only atomic cuboids but points at partial
        materialisation of low-dimensional cuboids ([19], [12]).  When
        multi-dimensional cuboids are materialised, a query should prefer
        them: one (A,B)-cell signature prunes exactly like the assembled
        intersection of the A-cell and B-cell signatures and loads fewer
        partials.  Greedy set cover by descending cuboid width picks such
        cells.

        Returns ``None`` when some needed cell provably holds no tuples —
        i.e. the whole conjunction is empty.
        """
        remaining = dict(conjuncts)
        chosen: list[Cell] = []
        cuboids = sorted(
            self.cuboids, key=lambda cuboid: -len(cuboid.dims)
        )
        while remaining:
            for cuboid in cuboids:
                if not set(cuboid.dims) <= set(remaining):
                    continue
                cell = Cell(
                    cuboid.dims,
                    tuple(remaining[dim] for dim in cuboid.dims),
                )
                if not self.materialised_cell(cell):
                    # The cuboid is materialised but this cell has no
                    # partials: no tuple carries this value combination.
                    return None
                chosen.append(cell)
                for dim in cuboid.dims:
                    del remaining[dim]
                break
            else:
                raise ValueError(
                    f"no materialised cuboid covers dimensions "
                    f"{sorted(remaining)} (atomic cuboids missing?)"
                )
        return chosen

    def reader_for_predicate(
        self,
        conjuncts: dict,
        pool: BufferPool | None = None,
        stats: QueryStats | None = None,
        tracer: Tracer | None = None,
        deadline_at: float | None = None,
        breakers: "BreakerBoard | None" = None,
        epoch: int | None = None,
    ):
        """A boolean-prune reader for a conjunction, using the best
        materialised cover (see :meth:`cover_for_dims`)."""
        if not conjuncts:
            raise ValueError("reader_for_predicate needs at least one conjunct")
        cover = self.cover_for_dims(conjuncts)
        if cover is None:
            if tracer is not None:
                tracer.event(COVER, conjuncts=sorted(conjuncts), empty=True)
            return EmptyReader()
        return self.reader_for_cells(
            cover,
            pool,
            stats,
            tracer,
            deadline_at=deadline_at,
            breakers=breakers,
            epoch=epoch,
        )

    def reader_for_dnf(
        self,
        disjuncts: Sequence[BooleanPredicate],
        pool: BufferPool | None = None,
        stats: QueryStats | None = None,
        **plumbing,
    ):
        """A boolean-prune reader for ``disjunct_1 OR disjunct_2 OR ...``
        (signature union, paper Fig. 3b).

        ``plumbing`` (tracer, ticket deadline, breaker board, epoch) is
        handed to every per-disjunct :meth:`reader_for_predicate` unchanged,
        and every disjunct's reader bumps the same ``stats``.  Returns
        ``None`` when some disjunct is the empty conjunction ``φ`` (the
        disjunction is then a tautology: no pruning possible).
        """
        if not disjuncts:
            raise ValueError("reader_for_dnf needs at least one disjunct")
        if any(disjunct.is_empty() for disjunct in disjuncts):
            return None
        if stats is None:
            stats = QueryStats()
        readers = []
        for disjunct in disjuncts:
            reader = self.reader_for_predicate(
                disjunct.conjuncts, pool, stats, **plumbing
            )
            if isinstance(reader, EmptyReader):
                continue  # an unsatisfiable disjunct contributes nothing
            readers.append(reader)
        if not readers:
            return EmptyReader()
        if len(readers) == 1:
            return readers[0]
        return AnyOfReader(readers)

    def boolean_fallback(
        self,
        cell: Cell,
        path: tuple[int, ...],
        counters: IOCounters | None = None,
    ) -> bool:
        """Ground-truth boolean check for degraded readers.

        Leaf-level paths are resolved exactly: one counted random tuple
        access (``DBOOL``, like the Domination baseline's minimal probing)
        plus the cell-membership test against the base relation.  Anything
        that is not a live tuple entry — internal nodes, the root, stale
        paths — answers ``True`` (conservative: lost pruning, never a lost
        or spurious result).
        """
        entry = self.rtree.entry_at(path)
        if entry is not None and entry.is_leaf_entry:
            self.relation.fetch(entry.tid, counters=counters)
            return cell.matches(self.relation, entry.tid)
        return True


class PCubeView(ReaderFactory):
    """One epoch's P-Cube: frozen tree, snapshotted store, pinned relation.

    Offers exactly the :class:`ReaderFactory` query surface over immutable
    per-epoch projections — no maintenance methods exist on a view, by
    construction.
    """

    def __init__(
        self,
        relation,
        rtree,
        store,
        cuboids: Sequence[Cuboid],
        fanout: int,
    ) -> None:
        self.relation = relation
        self.rtree = rtree
        self.store = store
        self.cuboids = list(cuboids)
        self.fanout = fanout


class PCube(ReaderFactory):
    """Signature-based materialisation over the boolean dimensions.

    Args:
        relation: The base table.
        rtree: The shared partition template over the preference dimensions.
        cuboids: Which cuboids to materialise; defaults to the atomic
            (one-dimensional) cuboids, as in the paper's experiments.
        codec: Bitmap codec for stored signatures.
        tag: Page-tag prefix for space accounting.
        maintainable: Keep counted signatures in memory so an incremental
            update copies count nodes, builds bit arrays and compresses them
            only along the changed paths of each affected cell; every other
            node of the cell keeps its shared counts and the blob already on
            its pages (the rewrite still packs the cell's blobs, by sorted
            SID, into fresh pages).
    """

    def __init__(
        self,
        relation: Relation,
        rtree: RTree,
        cuboids: Sequence[Cuboid] | None = None,
        codec: str = "adaptive",
        tag: str = "pcube",
        maintainable: bool = True,
    ) -> None:
        self.relation = relation
        self.rtree = rtree
        self.fanout = rtree.max_entries
        self.cuboids = (
            list(cuboids)
            if cuboids is not None
            else atomic_cuboids(relation.schema.boolean_dims)
        )
        self.tag = tag
        self.store = SignatureStore(
            rtree.disk, fanout=self.fanout, tag=tag, codec=codec
        )
        self.maintainable = maintainable
        self._counted: dict[Cell, CountedSignature] = {}
        # Cells whose counted signature is shared with a published epoch
        # snapshot and must be copied before the next in-place mutation.
        self._shared_counted: set[Cell] = set()
        # cell -> node SIDs whose counts moved since the cell's partials
        # were last stored.  Entries leave only when a rewrite of the cell
        # commits, so a rewrite that follows a faulted one compresses the
        # union of both writes' paths.
        self._pending_sids: dict[Cell, set[int]] = {}

    # ------------------------------------------------------------------ #
    # construction
    # ------------------------------------------------------------------ #

    @classmethod
    def build(
        cls,
        relation: Relation,
        rtree: RTree,
        cuboids: Sequence[Cuboid] | None = None,
        codec: str = "adaptive",
        tag: str = "pcube",
        maintainable: bool = True,
    ) -> "PCube":
        """Derive, compress, decompose and store every cell signature.

        Counts first: each cuboid is grouped once (:meth:`Cuboid.label`)
        and its cells go through :meth:`_derive`, in first-appearance
        order, so the pages are a function of the relation and the tree
        alone.  The paper's recursive sort (Fig. 2b, kept in the tests'
        reference module) is the oracle tier-1 holds every stored cell
        against, not a second pass here.
        """
        pcube = cls(relation, rtree, cuboids, codec, tag, maintainable)
        paths = PathColumns(rtree.all_paths(), pcube.fanout)
        for cuboid in pcube.cuboids:
            cells, labels = cuboid.label(relation)
            pcube._derive(cells, labels, paths)
        return pcube

    def _derive(
        self,
        cells: Sequence[Cell],
        labels: np.ndarray,
        paths: PathColumns,
        on_cell_stored: "Callable[[Cell], None] | None" = None,
    ) -> list[CountedSignature]:
        """(Re)derive ``cells`` from their tuples' paths — tuple ``tid``
        counts into ``cells[labels[tid]]``, none at ``-1`` — count them in
        one pass, store each cell straight from its counts, keep the counts
        when ``maintainable``: the one step the build, :meth:`rebuild_all`
        and :meth:`recompute_cell` share."""
        derived = CountedSignature.count_cells(labels, len(cells), paths)
        for cell, counted in zip(cells, derived):
            self._put(cell, counted)
            if self.maintainable:
                self._counted[cell] = counted
            if on_cell_stored is not None:
                on_cell_stored(cell)
        return derived

    # ------------------------------------------------------------------ #
    # query-side interface: inherited from ReaderFactory
    # ------------------------------------------------------------------ #

    def view(self, relation, rtree, store) -> PCubeView:
        """The query surface over per-epoch projections of the three
        structures (the epoch manager supplies them at publish time)."""
        return PCubeView(relation, rtree, store, self.cuboids, self.fanout)

    def share_counted(self) -> dict[Cell, CountedSignature]:
        """Publish-time handshake for counted-signature copy-on-write.

        Returns a point-in-time copy of the counted map for the snapshot
        and marks every entry shared; the next in-place mutation of a
        shared entry (see :meth:`_writable_counted`) works on a private
        :meth:`CountedSignature.copy` — itself copy-on-write per node —
        leaving the snapshot's object untouched.
        """
        self._shared_counted = set(self._counted)
        return dict(self._counted)

    def _writable_counted(self, cell: Cell) -> CountedSignature:
        """The counted signature of ``cell``, safe to mutate in place."""
        counted = self._counted.get(cell)
        if counted is None:
            counted = CountedSignature(self.fanout)
            self._counted[cell] = counted
        elif cell in self._shared_counted:
            counted = counted.copy()
            self._counted[cell] = counted
            self._shared_counted.discard(cell)
        return counted

    def _put(
        self,
        cell: Cell,
        signature: Signature | CountedSignature,
        dirty_sids: set[int] | None = None,
    ) -> None:
        """Store a cell's signature; once the rewrite has committed, the
        pages hold every node of ``signature`` and nothing is pending."""
        self.store.put_signature(cell, signature, dirty_sids)
        self._pending_sids.pop(cell, None)

    def rebuild_cell(self, cell: Cell) -> Signature:
        """Regenerate a (quarantined) cell's signature from base data.

        The recovery contract: stored signatures are rebuildable caches
        over the relation and the R-tree, so corruption costs a rebuild,
        never a wrong answer.  Restores full boolean pruning for the cell.
        """
        signature = self.recompute_cell(cell)
        self.store.clear_quarantine(cell)
        self.store.fault_stats.bump(rebuilds=1)
        return signature

    def rebuild_quarantined(self) -> list[Cell]:
        """Rebuild every quarantined cell; returns the cells rebuilt."""
        rebuilt = self.store.quarantined_cells()
        for cell in rebuilt:
            self.rebuild_cell(cell)
        return rebuilt

    def rebuild_all(self) -> int:
        """Regenerate every materialised cell from the relation + R-tree.

        The crash-recovery big hammer: when an interrupted operation left
        the tree mid-mutation, the tree is reset first and then every cell
        signature (and counted signature) is re-derived from scratch, in
        deterministic cell-id order.  Cells whose tuples are all tombstoned
        keep an empty signature, exactly as incremental deletes leave them.
        Quarantines are lifted as a side effect — the fresh pages replace
        whatever was unreadable.  Returns the number of cells stored.
        """
        paths = PathColumns(self.rtree.all_paths(), self.fanout)
        live = self.relation.columnar().live
        stored = 0
        for cuboid in self.cuboids:
            cells, labels = cuboid.label(self.relation, include_tombstoned=True)
            order = sorted(range(len(cells)), key=lambda i: cells[i].cell_id)
            rank = np.empty(len(cells), dtype=np.int64)
            rank[order] = np.arange(len(cells))
            self._derive(
                [cells[i] for i in order],
                np.where(live, rank[labels], -1),
                paths,
                on_cell_stored=self.store.clear_quarantine,
            )
            stored += len(cells)
        return stored

    def signature_of(self, cell: Cell) -> Signature:
        """The stored (bitmap) signature of a materialised cell, reassembled
        without access accounting (tests and maintenance)."""
        if not self.materialised_cell(cell):
            return Signature(self.fanout)
        return self.store.load_full_signature(cell)

    # ------------------------------------------------------------------ #
    # incremental maintenance (Section IV-B.3)
    # ------------------------------------------------------------------ #

    def apply_changes(
        self,
        changes: Sequence[PathChange],
        on_cell_stored: "Callable[[Cell], None] | None" = None,
    ) -> set[Cell]:
        """Patch signatures for a set of R-tree path changes.

        For every changed tuple and every materialised cuboid, the tuple's
        cell is updated: the old path's counts are removed, the new path's
        added; bits flip exactly when counts cross zero.  Dirty cells are
        then re-stored once, in cell-id order (the WAL relies on that
        determinism to replay an interrupted store phase), with
        ``on_cell_stored`` invoked after each cell commits.  The store is
        handed the counted signature itself: a cell's rewrite asks it for
        the bit arrays of the nodes on the changed paths only, and reads
        the rest back from the cell's current pages (see
        :meth:`SignatureStore.put_signature`).  Returns the dirty cells.

        The counted updates touch no disk page; the first disk access of
        this method is the first cell's rewrite.  Crash recovery leans on
        that: once the WAL holds the merged changes, any later crash left
        the counted signatures fully post-op in memory.
        """
        if not self.maintainable:
            raise RuntimeError(
                "this P-Cube was built with maintainable=False; "
                "use recompute_cell/rebuild instead"
            )
        dirty: set[Cell] = set()
        for change in changes:
            if change.old_path == change.new_path:
                continue
            for cuboid in self.cuboids:
                cell = cuboid.cell_for(self.relation, change.tid)
                counted = self._writable_counted(cell)
                pending = self._pending_sids.setdefault(cell, set())
                if change.old_path is not None:
                    pending.update(counted.dirty_sids(change.old_path))
                    counted.remove_path(change.old_path)
                if change.new_path is not None:
                    pending.update(counted.dirty_sids(change.new_path))
                    counted.add_path(change.new_path)
                dirty.add(cell)
        for cell in sorted(dirty, key=lambda c: c.cell_id):
            self._put(cell, self._counted[cell], self._pending_sids[cell])
            if on_cell_stored is not None:
                on_cell_stored(cell)
        return dirty

    def dirty_cells_for(self, changes: Sequence[PathChange]) -> set[Cell]:
        """The cells a change stream touches — exactly the set
        :meth:`apply_changes` would re-store (WAL replay recomputes it from
        the journalled changes instead of trusting crash-time state)."""
        dirty: set[Cell] = set()
        for change in changes:
            if change.old_path == change.new_path:
                continue
            for cuboid in self.cuboids:
                dirty.add(cuboid.cell_for(self.relation, change.tid))
        return dirty

    def restore_cell(self, cell: Cell) -> None:
        """Re-store one cell's signature from its in-memory counted state.

        The WAL replay path: the counted signatures are fully post-op once
        the changes record is durable, so re-deriving the bitmap from them
        and rewriting the cell is idempotent — every node is compressed
        afresh, whatever the interrupted rewrite left on the pages.  Falls
        back to a full recompute when no counted state is available."""
        counted = self._counted.get(cell)
        if counted is not None:
            self._put(cell, counted.to_signature())
            self.store.clear_quarantine(cell)
        else:
            self.recompute_cell(cell)

    def counted_of(self, cell: Cell) -> CountedSignature | None:
        """The live counted signature of a cell (consistency audits)."""
        return self._counted.get(cell)

    def recompute_cell(self, cell: Cell) -> Signature:
        """Rebuild one cell's signature from the current R-tree paths.

        The paper's fallback for arbitrary reorganisations: traverse the
        tree, collect the cell's tuple paths, regenerate.  O(T) per call —
        correct under any mutation, used when ``maintainable=False``.
        """
        columns = self.relation.columnar()
        members = columns.live & columns.match_mask(dict(zip(cell.dims, cell.values)))
        paths = PathColumns(self.rtree.all_paths(), self.fanout)
        (counted,) = self._derive([cell], np.where(members, 0, -1), paths)
        return counted.to_signature()

    # ------------------------------------------------------------------ #
    # accounting
    # ------------------------------------------------------------------ #

    def size_bytes(self) -> int:
        """Stored size of all partial signatures plus the store index."""
        return self.rtree.disk.size_bytes(self.tag)

    def n_cells(self) -> int:
        return len(self.store.cells())

    def __repr__(self) -> str:
        return (
            f"PCube(cuboids={[c.name for c in self.cuboids]}, "
            f"cells={self.n_cells()}, fanout={self.fanout})"
        )
