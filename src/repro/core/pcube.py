"""The P-Cube: a data cube whose measure is the signature.

Build it once over a relation and its R-tree partition template; it then
serves signature readers for arbitrary boolean predicates (materialised
cells directly, everything else assembled from atomic cells) and absorbs
incremental updates driven by R-tree path changes.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Mapping, Sequence

import numpy as np

from repro.core.signature import Signature
from repro.core.readers import (
    AnyOfReader,
    AssembledReader,
    CellSignatureReader,
    EmptyReader,
)
from repro.core.store import MissingPartialError, SignatureStore
from repro.cube.cuboid import Cell, Cuboid, atomic_cuboids
from repro.cube.relation import Relation
from repro.rtree.rtree import PathChange, RTree
from repro.query.stats import QueryStats
from repro.storage.buffer import BufferPool
from repro.storage.counters import IOCounters
from repro.storage.errors import StorageFault

if TYPE_CHECKING:
    from repro.query.predicates import BooleanPredicate


class PathColumns:
    """Every indexed tuple's R-tree path as arrays — what a build derives
    cell signatures from (:meth:`masks`).

    Row ``r`` of the ``(n, depth)`` matrix ``paths`` is the path of tuple
    ``tids[r]`` (:meth:`~repro.rtree.rtree.RTree.path_columns`).
    ``levels[l]`` is ``(nodes, slots, sids)`` for depth ``l`` (the root's
    is 0): ``nodes[r]`` is the node the tuple's path passes there, as a
    dense code in SID order, ``slots[r]`` the 1-based slot it takes in it,
    and ``sids[code]`` that node's SID.  Codes stay below the tuple count
    however deep the tree, so no array ever holds a SID.
    """

    def __init__(self, tids: np.ndarray, paths: np.ndarray, fanout: int) -> None:
        self.fanout = fanout
        n, depth = paths.shape
        if len(tids) != n:
            raise ValueError(f"{len(tids)} tids for {n} paths")
        self.tids = tids
        if n and depth and not ((paths >= 1) & (paths <= fanout)).all():
            raise ValueError(f"path component outside [1, {fanout}]")
        base = fanout + 1
        nodes = np.zeros(n, dtype=np.int64)
        sids = [0]
        self.levels: list[tuple[np.ndarray, np.ndarray, list[int]]] = []
        for level in range(depth):
            slots = paths[:, level]
            self.levels.append((nodes, slots, sids))
            if level + 1 < depth:
                children, nodes = np.unique(nodes * base + slots, return_inverse=True)
                nodes = nodes.reshape(-1)
                sids = [sids[c // base] * base + c % base for c in children.tolist()]

    def masks(self, labels: np.ndarray, n_cells: int) -> list[dict[int, int]]:
        """The signatures of ``n_cells`` cells at once, as node masks (SID
        -> mask of width ``fanout``, non-zero): tuple ``tid`` sets the bits
        along its path in cell ``labels[tid]`` (``-1``: in none).

        The paper's recursive sort (Fig. 2b) done as arrays: per tree
        level, one ``lexsort`` of the member tuples by (cell, node) and one
        OR of ``1 << slot - 1`` per run — the run's bit array.  A run
        covers one 64-bit word of its node, so any fanout fits a
        ``uint64``; a wider node ORs its words together.

        Raises:
            KeyError: if a member tuple has no path.
        """
        masks: list[dict[int, int]] = [{} for _ in range(n_cells)]
        in_tree = labels[self.tids]
        rows = np.flatnonzero(in_tree >= 0)
        if len(rows) != np.count_nonzero(labels >= 0):
            raise KeyError("a member tuple has no path in the tree")
        cell = in_tree[rows]
        for nodes, slots, sids in self.levels:
            node, bit = nodes[rows], slots[rows] - 1
            word = bit >> 6
            order = np.lexsort((word, node, cell))
            c, n, w = cell[order], node[order], word[order]
            new_run = np.ones(len(c), dtype=bool)
            new_run[1:] = (c[1:] != c[:-1]) | (n[1:] != n[:-1]) | (w[1:] != w[:-1])
            starts = np.flatnonzero(new_run)
            ones = np.left_shift(np.uint64(1), (bit[order] & 63).astype(np.uint64))
            runs = zip(
                c[starts].tolist(),
                map(sids.__getitem__, n[starts].tolist()),
                (w[starts] * 64).tolist(),
                np.bitwise_or.reduceat(ones, starts).tolist(),
            )
            for owner, sid, shift, value in runs:
                table = masks[owner]
                table[sid] = table.get(sid, 0) | value << shift
        return masks


class ReaderFactory:
    """The query-side face of a P-Cube: turning predicates into readers.

    The base of :class:`PCubeView`, one epoch's cube — the only thing a
    query reads (the live :class:`PCube` is what maintenance writes).  It
    touches ``store`` (a :class:`~repro.core.store.StoreView`), ``rtree``
    (a :class:`~repro.rtree.frozen.FrozenRTree`), ``relation`` (a
    :class:`~repro.cube.relation.RelationView`), ``cuboids`` and
    ``fanout``.
    """

    def reader_for_cells(
        self,
        cells: Sequence[Cell],
        pool: BufferPool | None = None,
        stats: QueryStats | None = None,
        deadline_at: float | None = None,
    ):
        """A boolean-prune reader for the conjunction of ``cells``, each a
        materialised cell (a cover, :meth:`cover_for_dims`).

        Every cell reads lazily from the store; a conjunction of several is
        an :class:`~repro.core.readers.AssembledReader` — the paper's exact
        recursive intersection (Fig. 3) evaluated on demand, to the leaf
        depth of this tree.  Every per-cell reader bumps ``stats`` (a fresh
        record when none is given).
        """
        if not cells:
            raise ValueError("reader_for_cells needs at least one cell")
        if stats is None:
            stats = QueryStats()
        readers = [
            CellSignatureReader(
                self.store,
                cell,
                pool,
                stats,
                fallback=self.boolean_fallback,
                deadline_at=deadline_at,
            )
            for cell in cells
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
                if not self.store.has_cell(cell):
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
        deadline_at: float | None = None,
    ):
        """A boolean-prune reader for a conjunction, using the best
        materialised cover (see :meth:`cover_for_dims`)."""
        if not conjuncts:
            raise ValueError("reader_for_predicate needs at least one conjunct")
        cover = self.cover_for_dims(conjuncts)
        if cover is None:
            return EmptyReader()
        return self.reader_for_cells(cover, pool, stats, deadline_at)

    def reader_for_dnf(
        self,
        disjuncts: Sequence[BooleanPredicate],
        pool: BufferPool | None = None,
        stats: QueryStats | None = None,
        deadline_at: float | None = None,
    ):
        """A boolean-prune reader for ``disjunct_1 OR disjunct_2 OR ...``
        (signature union, paper Fig. 3b).

        ``deadline_at`` (the ticket's deadline) is handed to every
        per-disjunct :meth:`reader_for_predicate`, and every disjunct's
        reader bumps the same ``stats``.  Returns
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
                disjunct.conjuncts, pool, stats, deadline_at
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


class PCube:
    """Signature-based materialisation over the boolean dimensions.

    Args:
        relation: The base table.
        rtree: The shared partition template over the preference dimensions.
        cuboids: Which cuboids to materialise; defaults to the atomic
            (one-dimensional) cuboids, as in the paper's experiments.
        codec: Bitmap codec for stored signatures.
        tag: Page-tag prefix for space accounting.

    The stored signatures are the cube's only copy of its measure: an
    incremental update edits a cell's stored bits along the changed paths
    (:meth:`apply_changes`).  Queries read an epoch's :meth:`view` of it.
    """

    def __init__(
        self,
        relation: Relation,
        rtree: RTree,
        cuboids: Sequence[Cuboid] | None = None,
        codec: str = "adaptive",
        tag: str = "pcube",
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
    ) -> "PCube":
        """Derive, compress, decompose and store every cell signature
        (:meth:`derive_all`)."""
        pcube = cls(relation, rtree, cuboids, codec, tag)
        pcube.derive_all()
        return pcube

    def derive_all(self) -> None:
        """Empty the store, then derive and store every cell with a live
        member from the relation and the tree's paths: the build, and crash
        recovery's rebuild after the tree's (``PCubeSystem.recover``).

        Each cuboid is grouped once (:meth:`Cuboid.label`) and its cells
        are derived in one pass (:meth:`PathColumns.masks`) and stored in
        first-appearance order, so the pages are a function of the relation
        and the tree alone.  The masks go straight to the store's blobs; no
        node becomes an object.  A cell whose members are all tombstoned is
        left absent, as the incremental delete of its last member leaves
        it.  The paper's recursive sort (Fig. 2b, kept in the tests'
        reference module) is the oracle tier-1 holds every stored cell
        against, not a second pass here.
        """
        self.store.clear()
        paths = PathColumns(*self.rtree.path_columns(), self.fanout)
        for cuboid in self.cuboids:
            cells, labels = cuboid.label(self.relation)
            for cell, masks in zip(cells, paths.masks(labels, len(cells))):
                self.store.put_masks(cell, masks)

    def _store(self, cell: Cell, masks: Mapping[int, int]) -> None:
        """Store a derived cell's node masks; fresh pages lift any
        quarantine."""
        self.store.put_masks(cell, masks)
        self.store.clear_quarantine(cell)

    # ------------------------------------------------------------------ #
    # query-side interface: inherited from ReaderFactory
    # ------------------------------------------------------------------ #

    def view(self, relation, rtree, store) -> PCubeView:
        """The query surface over per-epoch projections of the three
        structures (the epoch manager supplies them at publish time)."""
        return PCubeView(relation, rtree, store, self.cuboids, self.fanout)

    def rebuild_cell(self, cell: Cell) -> Signature:
        """Regenerate a (quarantined) cell's signature from base data.

        The recovery contract: stored signatures are rebuildable caches
        over the relation and the R-tree, so corruption costs a rebuild,
        never a wrong answer.  Restores full boolean pruning for the cell.
        """
        signature = self.recompute_cell(cell)
        self.store.fault_stats.bump(rebuilds=1)
        return signature

    def rebuild_quarantined(self) -> list[Cell]:
        """Rebuild every quarantined cell; returns the cells rebuilt."""
        rebuilt = self.store.quarantined_cells()
        for cell in rebuilt:
            self.rebuild_cell(cell)
        return rebuilt

    def signature_of(self, cell: Cell) -> Signature:
        """The stored (bitmap) signature of a materialised cell, reassembled
        without access accounting (tests and maintenance)."""
        if not self.store.has_cell(cell):
            return Signature(self.fanout)
        return self.store.load_full_signature(cell)

    # ------------------------------------------------------------------ #
    # incremental maintenance (Section IV-B.3)
    # ------------------------------------------------------------------ #

    def apply_changes(self, changes: Sequence[PathChange]) -> set[Cell]:
        """Patch signatures for a set of R-tree path changes.

        For every changed tuple and every materialised cuboid, the tuple
        leaves its cell along its old path and joins it along its new one.
        Dirty cells are then re-stored once, in cell-id order.  A rewrite
        edits the cell's stored bits: the store reads the cell's pages
        back, decodes and edits only the nodes on the changed paths
        (:func:`~repro.core.signature.move_paths`) and compresses those
        again (see :meth:`SignatureStore.put_signature`).  A quarantined
        cell, or one whose pages cannot be read back, is re-derived from
        the R-tree instead.  Returns the dirty cells.

        Nothing in memory holds an edit the pages lost.  So when a rewrite
        raises a storage fault, that cell and
        every dirty cell after it are quarantined before the fault
        propagates: readers take the exact degraded path until the cell's
        next rewrite or a repair re-derives it.
        """
        moved: dict[Cell, tuple[list, list]] = {}
        for change in changes:
            if change.old_path == change.new_path:
                continue
            for cuboid in self.cuboids:
                cell = cuboid.cell_for(self.relation, change.tid)
                removed, added = moved.setdefault(cell, ([], []))
                if change.old_path is not None:
                    removed.append(change.old_path)
                if change.new_path is not None:
                    added.append(change.new_path)
        order = sorted(moved, key=lambda c: c.cell_id)
        for position, cell in enumerate(order):
            try:
                self._rewrite(cell, *moved[cell])
            except StorageFault as fault:
                for behind in order[position:]:
                    self.store.quarantine(behind, fault)
                raise
        return set(moved)

    def _rewrite(
        self, cell: Cell, removed: Sequence[tuple], added: Sequence[tuple]
    ) -> None:
        """Store one dirty cell: an edit of its stored bits when they can
        be trusted and read, else a re-derivation."""
        if self.store.is_quarantined(cell):
            self.rebuild_cell(cell)
            return
        try:
            self.store.put_signature(cell, removed=removed, added=added)
        except MissingPartialError:
            # The current pages cannot be read back: nothing to edit.
            self.recompute_cell(cell)

    def recompute_cell(self, cell: Cell) -> Signature:
        """Rebuild one cell's signature from the current R-tree paths."""
        (signature,) = self.recompute_cells([cell])
        return signature

    def recompute_cells(self, cells: Sequence[Cell]) -> list[Signature]:
        """Rebuild ``cells``' signatures from the current R-tree paths and
        store them in the given order.

        The paper's fallback for arbitrary reorganisations: traverse the
        tree, collect the cells' tuple paths, regenerate — one path matrix
        for all of them and one :meth:`PathColumns.masks` pass per cuboid.
        O(T) per call, correct under any mutation.
        """
        columns = self.relation.columnar()
        paths = PathColumns(*self.rtree.path_columns(), self.fanout)
        derived: dict[Cell, dict[int, int]] = {}
        for dims in dict.fromkeys(cell.dims for cell in cells):
            group = [cell for cell in cells if cell.dims == dims]
            labels = np.full(len(columns.live), -1, dtype=np.int64)
            for index, cell in enumerate(group):
                members = columns.match_mask(dict(zip(cell.dims, cell.values)))
                labels[columns.live & members] = index
            derived.update(zip(group, paths.masks(labels, len(group))))
        for cell in cells:
            self._store(cell, derived[cell])
        return [Signature.from_masks(self.fanout, derived[cell]) for cell in cells]

    # ------------------------------------------------------------------ #
    # accounting
    # ------------------------------------------------------------------ #

    def n_cells(self) -> int:
        return len(self.store.cells())

    def __repr__(self) -> str:
        return (
            f"PCube(cuboids={[c.dims for c in self.cuboids]}, "
            f"cells={self.n_cells()}, fanout={self.fanout})"
        )
