"""The P-Cube: a data cube whose measure is the signature.

Build it once over a relation and its R-tree partition template; it then
serves signature readers for arbitrary boolean predicates (materialised
cells directly, everything else assembled from atomic cells) and absorbs
incremental updates driven by R-tree path changes.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Mapping, Sequence

import numpy as np

from repro.core.partial import compress_values
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
    """Every indexed tuple's R-tree path as arrays, sorted by path once —
    what a build derives cell signatures from (:meth:`blobs`,
    :meth:`masks`).

    Row ``r`` of the ``(n, depth)`` matrix ``paths`` is the path of tuple
    ``tids[r]`` (:meth:`~repro.rtree.rtree.RTree.path_columns`), in any
    order; the rows are kept in path order (``tids`` with them).  Every
    node on a path has a dense code: codes run level after level and,
    within a level, in SID order (a SID's digits are its path), so
    ascending codes are ascending SIDs, and ``sids[code]`` is the node's
    SID (a Python ``int``: an object array, as a deep tree's SIDs pass 64
    bits).  Row ``r``'s tuple sits in leaf ``leaves[r]`` at bit ``bits[r]``
    (its slot less one); node ``code`` sits in node ``parents[code]`` at
    bit ``node_bits[code]`` (the root's entries are ``-1`` and ``0``).
    """

    def __init__(self, tids: np.ndarray, paths: np.ndarray, fanout: int) -> None:
        self.fanout = fanout
        #: 64-bit words one node's bit array spans.
        self.words = -(-fanout // 64)
        n, depth = paths.shape
        if len(tids) != n:
            raise ValueError(f"{len(tids)} tids for {n} paths")
        if n and not ((paths >= 1) & (paths <= fanout)).all():
            raise ValueError(f"path component outside [1, {fanout}]")
        if n and not depth:
            raise ValueError("a path of no components")
        # Path order: one stable small-int sort per level, deepest first.
        order = np.arange(n)
        for slots in paths.T[::-1]:
            slots = slots[order].astype(np.min_scalar_type(fanout))
            order = order[np.argsort(slots, kind="stable")]
        self.tids = tids[order]
        paths = paths[order]
        base = fanout + 1
        sids = [0][:n]
        roots = len(sids)
        parents = [np.full(roots, -1, dtype=np.int64)]
        node_bits = [np.zeros(roots, dtype=np.int64)]
        nodes = np.zeros(n, dtype=np.int64)
        new_node = np.zeros(n, dtype=bool)
        new_node[:1] = True
        for slots in paths.T[:-1]:
            # A node starts where the path prefix through this level changes.
            new_node[1:] |= slots[1:] != slots[:-1]
            starts = np.flatnonzero(new_node)
            parents.append(nodes[starts])
            node_bits.append(slots[starts] - 1)
            first = len(sids)
            sids += [
                sids[parent] * base + slot
                for parent, slot in zip(parents[-1].tolist(), slots[starts].tolist())
            ]
            nodes = np.cumsum(new_node) + (first - 1)
        self.sids = np.array(sids, dtype=object)
        self.leaves = nodes
        self.bits = paths[:, -1:].reshape(-1) - 1
        self.parents = np.concatenate(parents)
        self.node_bits = np.concatenate(node_bits)
        self.depth = depth

    def _runs(
        self, labels: np.ndarray, n_cells: int
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Every (cell, node) run of ``n_cells`` cells' member paths — the
        paper's recursive sort (Fig. 2b) done as arrays: ``(bounds, codes,
        values)``, cell ``c``'s runs at ``bounds[c]:bounds[c + 1]`` in
        ascending SID order, ``codes`` their nodes and ``values`` their bit
        arrays (one ``uint64`` each, or a row of :attr:`words` words).

        One stable sort of the member rows by cell label (a small int,
        which numpy radix-sorts) keeps each cell's rows in path order.
        Per level, from the leaves up, a run starts where the cell or the
        node changes and one ``bitwise_or.reduceat`` of ``1 << bit`` gives
        every run's bit array; the level above reads this level's runs as
        its rows (each run a node, at its bit in its parent).  A node wider
        than 64 bits ORs per word and folds its words into one row.

        Raises:
            KeyError: if a member tuple has no path.
        """
        in_tree = labels[self.tids]
        rows = np.flatnonzero(in_tree >= 0)
        if len(rows) != np.count_nonzero(labels >= 0):
            raise KeyError("a member tuple has no path in the tree")
        if not len(rows):
            return np.zeros(n_cells + 1, dtype=np.int64), rows, np.zeros(0, np.uint64)
        owner = in_tree[rows].astype(np.min_scalar_type(n_cells - 1))
        by_cell = np.argsort(owner, kind="stable")
        rows, owner = rows[by_cell], owner[by_cell]
        codes, bits = self.leaves[rows], self.bits[rows]
        new_cell = np.ones(len(rows), dtype=bool)
        new_cell[1:] = owner[1:] != owner[:-1]
        owners, nodes, values = [], [], []
        for level in range(self.depth):
            if level:
                codes, bits = self.parents[codes], self.node_bits[codes]
            new_run = new_cell.copy()
            new_run[1:] |= codes[1:] != codes[:-1]
            starts = np.flatnonzero(new_run)
            ones = np.left_shift(np.uint64(1), (bits & 63).astype(np.uint64))
            if self.words == 1:
                value = np.bitwise_or.reduceat(ones, starts)
            else:
                word = bits >> 6
                new_run[1:] |= word[1:] != word[:-1]
                pieces = np.flatnonzero(new_run)
                value = np.zeros((len(starts), self.words), dtype=np.uint64)
                run_of = np.searchsorted(starts, pieces, side="right") - 1
                value[run_of, word[pieces]] = np.bitwise_or.reduceat(ones, pieces)
            owner, codes, new_cell = owner[starts], codes[starts], new_cell[starts]
            owners.append(owner)
            nodes.append(codes)
            values.append(value)
        # Root level first: ascending codes within each cell.
        owner = np.concatenate(owners[::-1])
        by_owner = np.argsort(owner, kind="stable")
        bounds = np.zeros(n_cells + 1, dtype=np.int64)
        np.cumsum(np.bincount(owner, minlength=n_cells), out=bounds[1:])
        codes = np.concatenate(nodes[::-1])[by_owner]
        return bounds, codes, np.concatenate(values[::-1])[by_owner]

    def _derive(
        self, labels: np.ndarray, n_cells: int, encode: Callable[[list[int]], list]
    ) -> list[dict[int, Any]]:
        """Each cell's ``{SID: encode(mask)}``: :meth:`_runs`, then
        ``encode`` once over the distinct run values (as ``int`` masks) and
        one dict per cell, built in C over its slice of the runs."""
        bounds, codes, values = self._runs(labels, n_cells)
        if values.ndim == 1:
            distinct, inverse = np.unique(values, return_inverse=True)
            masks = distinct.tolist()
        else:
            distinct, inverse = np.unique(values, axis=0, return_inverse=True)
            masks = [
                int.from_bytes(words.tobytes(), "little")
                for words in distinct.astype("<u8")
            ]
        encoded = encode(masks)
        sids = self.sids[codes].tolist()
        node_values = np.array(encoded, dtype=object)[inverse.reshape(-1)].tolist()
        edges = bounds.tolist()
        return [
            dict(zip(sids[start:end], node_values[start:end]))
            for start, end in zip(edges, edges[1:])
        ]

    def blobs(
        self, labels: np.ndarray, n_cells: int, codec: str = "adaptive"
    ) -> list[dict[int, bytes]]:
        """The signatures of ``n_cells`` cells at once, as compressed nodes
        (SID -> blob, in SID order): tuple ``tid`` sets the bits along its
        path in cell ``labels[tid]`` (``-1``: in none).  One memoised
        ``compress`` per distinct node value
        (:func:`~repro.core.partial.compress_values`) — the build's
        derivation.

        Raises:
            KeyError: if a member tuple has no path.
        """
        return self._derive(
            labels,
            n_cells,
            lambda masks: compress_values(masks, self.fanout, codec),
        )

    def masks(self, labels: np.ndarray, n_cells: int) -> list[dict[int, int]]:
        """:meth:`blobs`' runs as node masks (SID -> mask of width
        ``fanout``, non-zero), for the callers that return signatures.

        Raises:
            KeyError: if a member tuple has no path.
        """
        return self._derive(labels, n_cells, lambda masks: masks)


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

        The tree's paths are sorted once (:class:`PathColumns`); each
        cuboid is grouped once (:meth:`Cuboid.label`), its cells are
        derived from one sort by cell and compressed once per distinct node
        value (:meth:`PathColumns.blobs`), and stored in first-appearance
        order, so the pages are a function of the relation and the tree
        alone.  No node becomes an object and no mask dict is made.  A cell
        whose members are all tombstoned is left absent, as the incremental
        delete of its last member leaves it.  The paper's recursive sort
        (Fig. 2b, kept in the tests' reference module) is the oracle tier-1
        holds every stored cell against, not a second pass here.
        """
        self.store.clear()
        paths = PathColumns(*self.rtree.path_columns(), self.fanout)
        for cuboid in self.cuboids:
            cells, labels = cuboid.label(self.relation)
            derived = paths.blobs(labels, len(cells), self.store.codec)
            for cell, blobs in zip(cells, derived):
                self.store.put_blobs(cell, blobs)

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
        tree, collect the cells' tuple paths, regenerate — one path sort
        for all of them and one :meth:`PathColumns.masks` pass (the build's
        runs, as ints) per cuboid.  O(T) per call, correct under any
        mutation.
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
