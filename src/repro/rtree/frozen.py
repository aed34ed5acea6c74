"""Immutable R-tree snapshots with structural sharing across epochs.

A reader must be able to traverse the partition tree while the single
maintenance writer splits and condenses nodes in place.  Rather than
locking the live tree, each published epoch carries a *frozen* copy, and
every query reads one: plain-data nodes (:class:`FrozenRNode` /
:class:`FrozenEntry`) with the read surface Algorithm 1 and the boolean
fallback use — ``root``, ``disk``, ``live_entries()``, ``live_count()``,
``mbr()``, ``block()``, ``entry_at()`` — and nothing mutable.  A frozen
leaf holds copies of the live leaf's ``tids`` and ``coords`` columns — two
arrays per leaf, no object per tuple — because the writer edits the live
columns in place.

Freezing is copy-on-write at node granularity and costs the changed paths,
not the tree: the live tree records every node whose page was written or
freed since the last freeze together with its ancestors
(:attr:`RTree._touched_nodes` — a descendant can change without its
ancestors being rewritten, since MBR-preserving leaf updates stop the upward
adjustment early, so the ancestors are recorded explicitly), and
:func:`freeze` builds new frozen nodes for exactly those.  Every other
subtree is returned as the previous snapshot's object — cached
:class:`~repro.rtree.node.NodeBlock` included — without being visited.
After ``reset`` or bulk adoption node ids are re-minted, so the tree's
``generation`` is bumped and sharing across the boundary is refused.

Frozen nodes keep the live tree's page ids.  Pages are never reused by the
simulated disk and the epoch manager defers frees until no older reader
remains, so the access-counting reads issued during traversal stay valid
for the snapshot's whole lifetime.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

import numpy as np

from repro.rtree.geometry import Rect
from repro.rtree.node import FREE, NodeBlock, NodeSlots, leaf_paths, point_entry

if TYPE_CHECKING:  # pragma: no cover
    from repro.rtree.node import Entry
    from repro.rtree.rtree import RTree


class FrozenEntry:
    """An immutable inner slot payload: a child subtree and its box."""

    __slots__ = ("mbr", "child")

    tid = None
    is_leaf_entry = False

    def __init__(self, mbr: Rect, child: "FrozenRNode") -> None:
        self.mbr = mbr
        self.child = child


class FrozenRNode(NodeSlots):
    """An immutable R-tree node sharing its page id with the live node.

    An inner node's ``entries`` is indexed by slot, ``None`` at a free
    slot, like the live node's.  A leaf holds copies of the live leaf's
    ``tids`` and ``coords`` columns, taken when it was frozen: the writer
    edits the live columns in place, and never these.  The MBR is
    computed on the first :meth:`mbr` call (only the root's is ever read,
    by the search's first heap entry) and kept.
    """

    __slots__ = (
        "node_id", "page_id", "level", "entries", "tids", "coords", "_mbr",
        "_block",
    )

    def __init__(
        self,
        node_id: int,
        page_id: int,
        level: int,
        entries: "list[FrozenEntry | None] | None" = None,
        tids: np.ndarray | None = None,
        coords: np.ndarray | None = None,
    ) -> None:
        self.node_id = node_id
        self.page_id = page_id
        self.level = level
        self.entries = entries
        self.tids = tids
        self.coords = coords
        self._mbr: Rect | None = None
        self._block: NodeBlock | None = None

    def block(self) -> NodeBlock:
        """The columnar view of the children, built on first use and kept.

        Safe to keep because a frozen node never changes: maintenance
        rewrites a node by freezing a *new* ``FrozenRNode`` and shares only
        untouched ones, so a cached view can never describe stale entries.
        Concurrent readers may both build it; the views are equal and the
        last store wins.
        """
        block = self._block
        if block is None:
            block = self._block = NodeBlock(self)
        return block

    def mbr(self) -> Rect:
        """The MBR of the live entries (computed once; concurrent first
        calls compute equal rects and the last store wins)."""
        mbr = self._mbr
        if mbr is None:
            mbr = self._mbr = self.slots_mbr()
        return mbr


class FrozenRTree:
    """The read surface of an R-tree at one epoch.

    What query execution reads of an R-tree: ``root``, ``dims``, ``disk``,
    ``len()``, ``all_paths()`` (as :meth:`~repro.rtree.rtree.RTree.all_paths`)
    and ``entry_at(path)``; mutators simply do not exist.
    """

    def __init__(
        self,
        root: FrozenRNode,
        dims: int,
        disk,
        generation: int,
        size: int,
    ) -> None:
        self.root = root
        self.dims = dims
        self.disk = disk
        self.generation = generation
        self._size = size

    def __len__(self) -> int:
        return self._size

    def all_paths(self) -> dict[int, tuple[int, ...]]:
        """Every tuple's root-based path of 1-based slots at this epoch
        (the same convention as :meth:`RTree.all_paths` — what signature
        audits compare stored bits against)."""
        paths: dict[int, tuple[int, ...]] = {}
        for leaf, prefix in leaf_paths(self.root):
            slots = leaf.live_slots()
            for tid, slot in zip(leaf.tids[slots].tolist(), slots.tolist()):
                paths[tid] = prefix + (slot + 1,)
        return paths

    def entry_at(self, path: Sequence[int]) -> "FrozenEntry | Entry | None":
        """Resolve a root-based path of 1-based slots to its entry (a leaf
        slot's is made for the call).

        ``None`` for the empty path (the root is not an entry) and for a
        path that runs off the tree or lands on a free slot — degraded
        readers treat that as "cannot resolve", never as "empty"."""
        node: FrozenRNode | None = self.root
        entry = None
        for position in path:
            if node is None:
                return None
            slot = position - 1
            if node.is_leaf:
                if not 0 <= slot < len(node.tids) or node.tids[slot] == FREE:
                    return None
                entry = point_entry(
                    int(node.tids[slot]), tuple(node.coords[slot].tolist())
                )
                node = None
                continue
            entries = node.entries
            entry = entries[slot] if 0 <= slot < len(entries) else None
            if entry is None:
                return None
            node = entry.child
        return entry


def freeze(tree: "RTree", previous: FrozenRTree | None = None) -> FrozenRTree:
    """Produce an immutable snapshot of ``tree``, sharing unchanged
    subtrees with ``previous`` — the snapshot the last freeze of this tree
    returned — when both come from the same generation.

    Consumes the tree's touched-node set: after freezing, the tree starts
    accumulating touches for the *next* snapshot.
    """
    touched = tree._touched_nodes
    # node id -> previous frozen node, for the children of every previous
    # frozen node whose id is touched.  An untouched live node met below a
    # touched one is there: the parent it had at the last freeze is either
    # its parent now, or lost it since — and losing a child writes or frees
    # a node, which records it and the ancestors it had (``RTree._touch``),
    # so the walk from the previous root through touched ids reaches it.
    prior: dict[int, FrozenRNode] = {}
    if previous is not None and previous.generation == tree.generation:
        prior[previous.root.node_id] = previous.root
        stack = [previous.root]
        while stack:
            node = stack.pop()
            if node.is_leaf or node.node_id not in touched:
                continue
            for _, entry in node.live_entries():
                prior[entry.child.node_id] = entry.child
                stack.append(entry.child)

    def _freeze(node) -> FrozenRNode:
        if node.node_id not in touched:
            shared = prior.get(node.node_id)
            if shared is not None:
                return shared
        if node.is_leaf:
            return FrozenRNode(
                node.node_id, node.page_id, 0,
                tids=node.tids.copy(), coords=node.coords.copy(),
            )
        entries = [
            None
            if entry is None
            else FrozenEntry(entry.mbr, _freeze(entry.child))
            for entry in node.entries
        ]
        return FrozenRNode(node.node_id, node.page_id, node.level, entries)

    root = _freeze(tree.root)
    tree._touched_nodes = set()
    return FrozenRTree(
        root=root,
        dims=tree.dims,
        disk=tree.disk,
        generation=tree.generation,
        size=len(tree),
    )
