"""A dynamic R-tree with path-change tracking.

Implements Guttman's insertion algorithm [15] with his quadratic node split,
and deletion with tree condensation, whose re-insertion of orphaned entries
is the tree's one re-insertion.  Beyond the textbook structure, this tree
does two things the P-Cube life cycle needs:

* every node lives on a page of a :class:`~repro.storage.disk.SimulatedDisk`
  so query algorithms can count block reads;
* every mutation returns the exact set of :class:`PathChange` records —
  ``(tid, old_path, new_path)`` — that incremental signature maintenance
  must apply (paper Section IV-B.3: only paths under split / re-inserted
  entries change; all other signatures keep their bits).
"""

from __future__ import annotations

import math
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

import numpy as np

from repro.rtree.geometry import Point, Rect
from repro.rtree.node import Entry, RTreeNode, subtree_nodes, subtree_tids, tuple_path
from repro.storage.disk import SimulatedDisk

#: Bytes per node entry: an MBR of single-precision floats (2 * dims * 4)
#: plus a 4-byte child pointer / tid — the layout under which the paper's
#: quoted fanouts (M = 204 for 2-D, ~94 for 5-D at 4 KB pages) come out.
_POINTER_BYTES = 4
#: Fixed per-node header (level, entry count).
_NODE_HEADER_BYTES = 8


def entry_bytes(dims: int) -> int:
    """On-disk size of one node entry."""
    return 2 * dims * 4 + _POINTER_BYTES


def fanout_for_page(page_size: int, dims: int) -> int:
    """Maximum entries per node for a given page size, as in the paper.

    With 4 KB pages this yields 204 for two dimensions and ~92 for five,
    matching the figures quoted in Section IV-B.1.
    """
    fanout = (page_size - _NODE_HEADER_BYTES) // entry_bytes(dims)
    return max(4, fanout)


class PathChange(NamedTuple):
    """One tuple's path before and after a structural change.

    ``old_path is None`` for a fresh insertion; ``new_path is None`` for a
    deletion.
    """

    tid: int
    old_path: tuple[int, ...] | None
    new_path: tuple[int, ...] | None


class RTree:
    """A paged, slot-stable R-tree over ``dims``-dimensional points.

    Args:
        dims: Dimensionality of the indexed points.
        max_entries: Node capacity ``M``.
        min_entries: Underflow threshold ``m`` (default ``max(2, 2M/5)``).
        disk: Page store; a private one is created when omitted.
        tag: Page tag prefix for space accounting.
    """

    def __init__(
        self,
        dims: int,
        max_entries: int = 50,
        min_entries: int | None = None,
        disk: SimulatedDisk | None = None,
        tag: str = "rtree",
    ) -> None:
        if dims < 1:
            raise ValueError("dims must be at least 1")
        if max_entries < 2:
            raise ValueError("max_entries must be at least 2")
        self.dims = dims
        self.max_entries = max_entries
        self.min_entries = (
            max(1, (2 * max_entries) // 5) if min_entries is None else min_entries
        )
        if not 1 <= self.min_entries <= max_entries // 2:
            raise ValueError(
                f"min_entries must lie in [1, {max_entries // 2}], "
                f"got {self.min_entries}"
            )
        self.disk = disk if disk is not None else SimulatedDisk()
        self.tag = tag
        self._next_node_id = 0
        self._points: dict[int, Point] = {}
        self._tid_leaf: dict[int, RTreeNode] = {}
        self._paths: dict[int, tuple[int, ...]] = {}
        #: When set, node-page frees are routed here instead of
        #: ``disk.free`` — the epoch manager defers them until no pinned
        #: snapshot can still be traversing the node.
        self.free_hook: Callable[[int], None] | None = None
        #: Ids of the nodes whose pages were written or freed since the
        #: last freeze, and of every ancestor they had at that moment (see
        #: :meth:`_touch`).  :func:`repro.rtree.frozen.freeze` consumes and
        #: clears this: it rebuilds exactly these nodes and shares every
        #: other subtree of the previous snapshot without visiting it.
        self._touched_nodes: set[int] = set()
        #: Bumped whenever node ids are re-minted wholesale (``reset``,
        #: bulk adoption) — frozen snapshots from another generation must
        #: not be shared, since ids no longer correspond.
        self.generation = 0
        self.root = self._new_node(level=0)
        # Per-insert scratch state.
        self._dirty_tids: set[int] = set()

    # ------------------------------------------------------------------ #
    # node bookkeeping
    # ------------------------------------------------------------------ #

    def _new_node(self, level: int) -> RTreeNode:
        node = RTreeNode(self._next_node_id, level, self.max_entries)
        self._next_node_id += 1
        node.page_id = self.disk.allocate(self.tag, size=_NODE_HEADER_BYTES)
        self.disk.write(node.page_id, node, size=_NODE_HEADER_BYTES)
        self._touch(node)
        return node

    def _touch(self, node: RTreeNode | None) -> None:
        """Record that ``node`` changed, up to the root.

        A frozen node holds its frozen children, so a change below forces a
        new frozen copy of every ancestor even when their own pages were
        not rewritten (an MBR-preserving leaf update stops
        :meth:`_adjust_upward` early).  The walk stops at the first node
        already recorded: its ancestors were recorded with it, and a node
        that changes parent is always followed by a write of the new
        parent, which records the new chain.
        """
        touched = self._touched_nodes
        while node is not None and node.node_id not in touched:
            touched.add(node.node_id)
            node = node.parent

    def _sync_page(self, node: RTreeNode) -> None:
        size = _NODE_HEADER_BYTES + node.live_count() * entry_bytes(self.dims)
        assert node.page_id is not None
        self.disk.write(node.page_id, node, size=size)
        self._touch(node)

    def _free_node(self, node: RTreeNode) -> None:
        assert node.page_id is not None
        self._free_page(node.page_id)
        node.page_id = None
        # Its children (re-inserted orphans, or the new root) leave a node
        # the next freeze will not find in the tree: recording it here is
        # what lets freeze find their frozen counterparts under it.
        self._touch(node)

    def _free_page(self, page_id: int) -> None:
        if self.free_hook is not None:
            self.free_hook(page_id)
        else:
            self.disk.free(page_id)

    # ------------------------------------------------------------------ #
    # public views
    # ------------------------------------------------------------------ #

    def __len__(self) -> int:
        return len(self._points)

    def all_paths(self) -> dict[int, tuple[int, ...]]:
        """A snapshot of every tuple's path (used by signature generation)."""
        return dict(self._paths)

    def nodes(self) -> Iterator[RTreeNode]:
        """All nodes, pre-order from the root."""
        return subtree_nodes(self.root)

    def node_count(self) -> int:
        return sum(1 for _ in self.nodes())

    # ------------------------------------------------------------------ #
    # insertion
    # ------------------------------------------------------------------ #

    def insert(self, tid: int, point: Sequence[float]) -> list[PathChange]:
        """Insert a tuple; return every path change the insert caused.

        The first element always describes the new tuple; further elements
        appear only when node splits moved existing tuples (the situation
        Section IV-B.3 of the paper handles by collecting old and new
        paths).
        """
        if tid in self._points:
            raise KeyError(f"tid {tid} is already indexed")
        if len(point) != self.dims:
            raise ValueError(f"point has {len(point)} dims, tree has {self.dims}")
        point = tuple(float(v) for v in point)
        self._points[tid] = point
        self._dirty_tids = set()

        entry = Entry(Rect.from_point(point), tid=tid)
        self._insert_entry(entry, target_level=0)

        return self._collect_changes(inserted=(tid,), removed=())

    def _insert_entry(self, entry: Entry, target_level: int) -> None:
        node = self._choose_node(entry.mbr, target_level)
        if node.is_full():
            self._split(node, entry)
        else:
            node.add_entry(entry)
            if entry.tid is not None:
                self._tid_leaf[entry.tid] = node
            self._sync_page(node)
            self._adjust_upward(node, added=entry.mbr)

    def _choose_node(self, mbr: Rect, target_level: int) -> RTreeNode:
        """Guttman's ChooseLeaf: descend to ``target_level`` through the
        child whose box grows least to cover ``mbr``, the smaller box on a
        tie.  The growth is ``entry.mbr.enlargement(mbr)`` written out —
        the same ``min`` / ``max`` argument order and left-to-right
        products, so the same floats — without a rect per child."""
        box = tuple(zip(mbr.lows, mbr.highs))
        node = self.root
        while node.level > target_level:
            best: RTreeNode | None = None
            best_growth = best_area = 0.0
            for entry in node.entries:
                if entry is None:
                    continue
                area = grown = 1.0
                for lo, hi, (b_lo, b_hi) in zip(entry.mbr.lows, entry.mbr.highs, box):
                    area *= hi - lo
                    grown *= (b_hi if b_hi > hi else hi) - (b_lo if b_lo < lo else lo)
                growth = grown - area
                if best is None or growth < best_growth or (
                    growth == best_growth and area < best_area
                ):
                    best, best_growth, best_area = entry.child, growth, area
            assert best is not None, "internal node with no live entries"
            node = best
        return node

    def _split(self, node: RTreeNode, entry: Entry) -> None:
        """Split ``node`` to absorb ``entry``; cascade upward as needed."""
        self._mark_dirty_subtree(node)
        all_entries = [e for _, e in node.live_entries()] + [entry]
        group_a, group_b = self._partition_quadratic(all_entries)
        sibling = self._new_node(node.level)
        node.entries = []
        for moved in group_a:
            node.add_entry(moved)
            if moved.tid is not None:
                self._tid_leaf[moved.tid] = node
        for moved in group_b:
            sibling.add_entry(moved)
            if moved.tid is not None:
                self._tid_leaf[moved.tid] = sibling
        self._sync_page(node)
        self._sync_page(sibling)

        parent = node.parent
        if parent is None:
            new_root = self._new_node(node.level + 1)
            new_root.add_entry(Entry(node.mbr(), child=node))
            new_root.add_entry(Entry(sibling.mbr(), child=sibling))
            self.root = new_root
            self._sync_page(new_root)
            return
        # Refresh the split node's MBR in its parent, then place the sibling.
        slot = parent.slot_of_child(node)
        parent.entries[slot] = Entry(node.mbr(), child=node)
        sibling_entry = Entry(sibling.mbr(), child=sibling)
        if parent.is_full():
            self._split(parent, sibling_entry)
        else:
            parent.add_entry(sibling_entry)
            self._sync_page(parent)
            self._adjust_upward(parent)

    def _adjust_upward(self, node: RTreeNode, added: Rect | None = None) -> None:
        """Recompute ancestor MBRs after a change inside ``node``.

        When the change only added the box ``added`` under ``node``, each
        ancestor's new box is its entry's box grown by ``added``, and no
        sibling is visited.  Both are exact min / max, so they agree bit
        for bit except in a zero's sign, which the union takes from the
        first child in slot order: a grown box with a zero coordinate is
        re-unioned instead.
        """
        child = node
        while child.parent is not None:
            parent = child.parent
            slot = parent.slot_of_child(child)
            existing = parent.entries[slot]
            assert existing is not None
            if added is None:
                updated = child.mbr()
            else:
                mbr = existing.mbr
                lows = tuple(a if a < b else b for a, b in zip(added.lows, mbr.lows))
                highs = tuple(a if a > b else b for a, b in zip(added.highs, mbr.highs))
                if all(lows) and all(highs):
                    updated = Rect.trusted(lows, highs)
                else:
                    updated = child.mbr()
            if updated == existing.mbr:
                break
            parent.entries[slot] = Entry(updated, child=child)
            self._sync_page(parent)
            child = parent

    # ------------------------------------------------------------------ #
    # split partitioning
    # ------------------------------------------------------------------ #

    def _partition_quadratic(
        self, entries: list[Entry]
    ) -> tuple[list[Entry], list[Entry]]:
        """Guttman's quadratic split: worst pair as seeds, greedy assignment."""
        worst = -math.inf
        seeds = (0, 1)
        for i in range(len(entries)):
            for j in range(i + 1, len(entries)):
                waste = (
                    entries[i].mbr.union(entries[j].mbr).area()
                    - entries[i].mbr.area()
                    - entries[j].mbr.area()
                )
                if waste > worst:
                    worst = waste
                    seeds = (i, j)
        group_a = [entries[seeds[0]]]
        group_b = [entries[seeds[1]]]
        mbr_a = group_a[0].mbr
        mbr_b = group_b[0].mbr
        remaining = [e for k, e in enumerate(entries) if k not in seeds]
        while remaining:
            # Honour the minimum fill requirement first.
            if len(group_a) + len(remaining) == self.min_entries:
                group_a.extend(remaining)
                break
            if len(group_b) + len(remaining) == self.min_entries:
                group_b.extend(remaining)
                break
            # Pick the entry with the strongest preference.
            best_index = 0
            best_diff = -1.0
            for k, candidate in enumerate(remaining):
                d_a = mbr_a.enlargement(candidate.mbr)
                d_b = mbr_b.enlargement(candidate.mbr)
                diff = abs(d_a - d_b)
                if diff > best_diff:
                    best_diff = diff
                    best_index = k
            candidate = remaining.pop(best_index)
            d_a = mbr_a.enlargement(candidate.mbr)
            d_b = mbr_b.enlargement(candidate.mbr)
            if d_a < d_b or (d_a == d_b and len(group_a) <= len(group_b)):
                group_a.append(candidate)
                mbr_a = mbr_a.union(candidate.mbr)
            else:
                group_b.append(candidate)
                mbr_b = mbr_b.union(candidate.mbr)
        return group_a, group_b

    # ------------------------------------------------------------------ #
    # deletion / update
    # ------------------------------------------------------------------ #

    def delete(self, tid: int) -> list[PathChange]:
        """Remove a tuple; return all path changes (condensation included)."""
        if tid not in self._points:
            raise KeyError(f"tid {tid} is not indexed")
        self._dirty_tids = set()

        leaf = self._tid_leaf.pop(tid)
        del self._points[tid]
        slot = leaf.slot_of_tid(tid)
        leaf.remove_slot(slot)
        self._sync_page(leaf)
        self._dirty_tids.add(tid)

        orphans: list[Entry] = []
        node = leaf
        while node.parent is not None:
            parent = node.parent
            if node.live_count() < self.min_entries:
                self._mark_dirty_subtree(node)
                parent.remove_slot(parent.slot_of_child(node))
                orphans.extend(e for _, e in node.live_entries())
                self._free_node(node)
                self._sync_page(parent)
            else:
                # Nothing above can underflow, and this fixes every box above.
                self._adjust_upward(node)
                break
            node = parent
        # Re-insert orphaned entries at their original levels (Guttman's
        # CondenseTree), leaf tuples first so subtree re-insertions see a
        # well-formed tree.
        orphans.sort(key=lambda e: 0 if e.tid is not None else 1)
        for orphan in orphans:
            if self.root.live_count() == 0 and orphan.child is not None:
                # Degenerate case: the tree emptied out; adopt the subtree.
                self._free_node(self.root)
                self.root = orphan.child
                self.root.parent = None
                continue
            level = 0 if orphan.tid is not None else orphan.child.level + 1
            self._insert_entry(orphan, target_level=min(level, self.root.level))
        # Shrink the root if it has a single child.
        while not self.root.is_leaf and self.root.live_count() == 1:
            (_, only) = next(self.root.live_entries())
            assert only.child is not None
            self._mark_dirty_subtree(self.root)
            self._free_node(self.root)
            self.root = only.child
            self.root.parent = None

        return self._collect_changes(inserted=(), removed=(tid,))

    def update(self, tid: int, new_point: Sequence[float]) -> list[PathChange]:
        """Move a tuple: delete + insert, with merged change records."""
        changes = self.delete(tid)
        changes_in = self.insert(tid, new_point)
        merged: dict[int, PathChange] = {}
        for change in changes + changes_in:
            if change.tid in merged:
                previous = merged[change.tid]
                merged[change.tid] = PathChange(
                    change.tid, previous.old_path, change.new_path
                )
            else:
                merged[change.tid] = change
        return [c for c in merged.values() if c.old_path != c.new_path]

    # ------------------------------------------------------------------ #
    # change tracking
    # ------------------------------------------------------------------ #

    def _mark_dirty_subtree(self, node: RTreeNode) -> None:
        self._dirty_tids.update(subtree_tids(node))

    def _collect_changes(
        self,
        inserted: Iterable[int],
        removed: Iterable[int],
    ) -> list[PathChange]:
        # ``self._paths`` still holds pre-mutation paths for every dirty
        # tuple; reading them lazily here keeps inserts O(dirty), not O(T).
        changes: list[PathChange] = []
        inserted = set(inserted)
        removed = set(removed)
        for tid in inserted:
            self._dirty_tids.add(tid)
        for tid in sorted(self._dirty_tids):
            if tid in removed:
                changes.append(PathChange(tid, self._paths.pop(tid), None))
                continue
            new_path = tuple_path(self._tid_leaf[tid], tid)
            old = self._paths.get(tid)
            self._paths[tid] = new_path
            if old != new_path:
                changes.append(PathChange(tid, old, new_path))
        # A split can shuffle slots inside one node while leaving some
        # tuples' full paths intact; those produce no change records, but
        # their stored paths were refreshed above either way.
        return changes

    # ------------------------------------------------------------------ #
    # crash recovery
    # ------------------------------------------------------------------ #

    def reset(self, tids: np.ndarray, coords: np.ndarray) -> None:
        """Discard the whole tree and STR-load ``coords[i]`` as the point
        of ``tids[i]``.

        Crash recovery's reconstruction path: an interrupted mutation can
        leave nodes mid-split, so the tree is not repaired in place — every
        page under the tree's tag is freed (orphans included) and the tree
        is loaded by the build's own loader
        (:func:`repro.rtree.bulk.load_columns`).  Its shape, hence every
        tuple path, is that of a fresh build over the same points, and a
        recovery that is itself interrupted converges when re-run.
        """
        from repro.rtree.bulk import load_columns  # bulk imports this module

        for page in list(self.disk.pages(self.tag)):
            self._free_page(page.page_id)
        self._points = {}
        self._tid_leaf = {}
        self._paths = {}
        self._dirty_tids = set()
        self._next_node_id = 0
        self.generation += 1
        self._touched_nodes = set()
        self.root = self._new_node(level=0)
        load_columns(self, tids, coords)

    # ------------------------------------------------------------------ #
    # internal wiring for the bulk loader
    # ------------------------------------------------------------------ #

    def _adopt_bulk(
        self,
        root: RTreeNode,
        points: dict[int, Point],
        tid_leaf: dict[int, RTreeNode],
    ) -> None:
        """Install a pre-built tree (used by :func:`repro.rtree.bulk.bulk_load`)."""
        self._free_node(self.root)
        self.generation += 1
        self.root = root
        self._points = points
        self._tid_leaf = tid_leaf
        # One top-down walk finds every path; kept in the loader's tid order.
        found: dict[int, tuple[int, ...]] = {}
        stack: list[tuple[RTreeNode, tuple[int, ...]]] = [(root, ())]
        while stack:
            node, prefix = stack.pop()
            for slot, entry in node.live_entries():
                path = prefix + (slot + 1,)
                if entry.child is None:
                    found[entry.tid] = path
                else:
                    stack.append((entry.child, path))
        self._paths = {tid: found[tid] for tid in tid_leaf}
