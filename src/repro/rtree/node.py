"""R-tree nodes with stable 1-based entry slots.

The paper's incremental-maintenance section assumes slot stability:

    "Every node (including leaf) in R-tree can hold up to M entries.  We
    assume each node keeps track of its free entries.  When a new tuple is
    added, the first free entry is assigned."

So ``entries`` is a fixed-order list in which deletions leave ``None`` holes
and insertions fill the first hole.  A tuple's *path* — the sequence of slot
positions from the root down to its leaf slot — therefore only changes when
a node is split or its entries are re-inserted, which is exactly when
signatures must be patched.
"""

from __future__ import annotations

from typing import Iterator, Optional

from repro.kernels.mindist import as_rows, sum_block
from repro.rtree.geometry import Rect


class Entry:
    """One slot payload: either a child node (internal) or a tuple (leaf)."""

    __slots__ = ("mbr", "child", "tid")

    def __init__(
        self,
        mbr: Rect,
        child: Optional["RTreeNode"] = None,
        tid: int | None = None,
    ) -> None:
        if (child is None) == (tid is None):
            raise ValueError("an entry holds exactly one of: child node, tuple id")
        self.mbr = mbr
        self.child = child
        self.tid = tid

    @property
    def is_leaf_entry(self) -> bool:
        return self.tid is not None

    def __repr__(self) -> str:
        if self.is_leaf_entry:
            return f"Entry(tid={self.tid}, mbr={self.mbr})"
        return f"Entry(child=node#{self.child.node_id}, mbr={self.mbr})"


class NodeBlock:
    """A columnar view of one node's live children, in slot order.

    Algorithm 1 evaluates a whole expansion from it: ``lows`` / ``highs``
    are the children's MBR corners as float64 matrices (see
    :func:`repro.kernels.mindist.as_rows`), so keys, domination verdicts
    and transforms are one kernel call each.
    ``low_tuples`` are the same corners as the tuples the entries already
    hold — what a materialised heap entry carries as its point.

    The search names children by *index* in this view, the signature by
    *slot*: ``all_mask`` is the index mask of every child, ``dense`` says
    index = slot for all of them (no hole below the last live slot), so
    that an index mask *is* the slot mask; :meth:`slot_mask` and
    :meth:`index_mask` translate otherwise.

    The view is a function of the node's entries alone — as is
    :meth:`low_sums`, kept with it.
    """

    __slots__ = (
        "leaf",
        "slots",
        "entries",
        "all_mask",
        "dense",
        "low_tuples",
        "lows",
        "highs",
        "_low_sums",
    )

    def __init__(self, node) -> None:
        live = list(node.live_entries())
        self.leaf = node.is_leaf
        self.slots = [slot for slot, _ in live]
        self.entries = [entry for _, entry in live]
        self.all_mask = (1 << len(live)) - 1
        self.dense = not live or self.slots[-1] == len(live) - 1
        self.low_tuples = [entry.mbr.lows for entry in self.entries]
        self.lows = as_rows(self.low_tuples)
        # A data point's MBR is degenerate: one matrix serves both corners.
        self.highs = (
            self.lows
            if self.leaf
            else as_rows([entry.mbr.highs for entry in self.entries])
        )
        self._low_sums: list[float] | None = None

    def __len__(self) -> int:
        return len(self.slots)

    def low_sums(self) -> list[float]:
        """``Σ lows`` per child (the full-space skyline's heap keys),
        computed on first use and kept as long as the view is."""
        if self._low_sums is None:
            self._low_sums = sum_block(self.lows)
        return self._low_sums

    def slot_mask(self, indices: int) -> int:
        """The signature bits (``1 << slot``) of the children in an index mask."""
        if self.dense:
            return indices
        return sum(1 << s for i, s in enumerate(self.slots) if indices >> i & 1)

    def index_mask(self, slots: int) -> int:
        """The index mask of the children whose signature bit is in ``slots``."""
        if self.dense:
            return slots
        return sum(1 << i for i, s in enumerate(self.slots) if slots >> s & 1)


class RTreeNode:
    """A node holding up to ``capacity`` slots, some of which may be free.

    Attributes:
        node_id: Stable identifier (unique within a tree).
        level: 0 for leaves, increasing towards the root.
        entries: Slot list; ``None`` marks a free slot.  Slot ``i`` (0-based)
            corresponds to the paper's 1-based path component ``i + 1``.
        parent: The parent node, or ``None`` for the root.
        page_id: The simulated-disk page this node lives on.
    """

    __slots__ = ("node_id", "level", "entries", "parent", "page_id", "_capacity")

    def __init__(self, node_id: int, level: int, capacity: int) -> None:
        if capacity < 2:
            raise ValueError("node capacity must be at least 2")
        self.node_id = node_id
        self.level = level
        self.entries: list[Entry | None] = []
        self.parent: RTreeNode | None = None
        self.page_id: int | None = None
        self._capacity = capacity

    # ------------------------------------------------------------------ #
    # slot management
    # ------------------------------------------------------------------ #

    @property
    def is_leaf(self) -> bool:
        return self.level == 0

    def live_count(self) -> int:
        """Number of occupied slots."""
        return sum(1 for e in self.entries if e is not None)

    def is_full(self) -> bool:
        """No free slot and no room to append."""
        return self.live_count() >= self._capacity

    def live_entries(self) -> Iterator[tuple[int, Entry]]:
        """Yield ``(slot_index, entry)`` for occupied slots (0-based slots)."""
        for index, entry in enumerate(self.entries):
            if entry is not None:
                yield index, entry

    def add_entry(self, entry: Entry) -> int:
        """Place ``entry`` in the first free slot; return the 0-based slot.

        Raises:
            OverflowError: if the node is full — callers split first.
        """
        entries = self.entries
        if None in entries:
            index = entries.index(None)
            entries[index] = entry
        elif len(entries) >= self._capacity:
            raise OverflowError(f"node #{self.node_id} is full")
        else:
            index = len(entries)
            entries.append(entry)
        self._adopt(entry)
        return index

    def remove_slot(self, slot: int) -> Entry:
        """Free a slot and return the entry that occupied it."""
        entry = self.entries[slot]
        if entry is None:
            raise ValueError(f"slot {slot} of node #{self.node_id} is already free")
        self.entries[slot] = None
        # Trim trailing holes so widths stay tight for freshly built nodes.
        while self.entries and self.entries[-1] is None:
            self.entries.pop()
        return entry

    def slot_of_child(self, child: "RTreeNode") -> int:
        """The 0-based slot holding ``child``."""
        for index, entry in self.live_entries():
            if entry.child is child:
                return index
        raise ValueError(f"node #{child.node_id} is not a child of #{self.node_id}")

    def slot_of_tid(self, tid: int) -> int:
        """The 0-based slot holding tuple ``tid`` (leaf nodes only)."""
        for index, entry in self.live_entries():
            if entry.tid == tid:
                return index
        raise ValueError(f"tid {tid} not found in leaf #{self.node_id}")

    def _adopt(self, entry: Entry) -> None:
        if entry.child is not None:
            entry.child.parent = self

    # ------------------------------------------------------------------ #
    # geometry
    # ------------------------------------------------------------------ #

    def mbr(self) -> Rect:
        """The MBR of all live entries."""
        live = [entry.mbr for _, entry in self.live_entries()]
        if not live:
            raise ValueError(f"node #{self.node_id} has no live entries")
        return Rect.union_all(live)

    # ------------------------------------------------------------------ #
    # paths
    # ------------------------------------------------------------------ #

    def path(self) -> tuple[int, ...]:
        """1-based slot positions from the root down to this node.

        The root's path is the empty tuple, matching the paper's SID of 0
        for the root.
        """
        components: list[int] = []
        node: RTreeNode = self
        while node.parent is not None:
            components.append(node.parent.slot_of_child(node) + 1)
            node = node.parent
        components.reverse()
        return tuple(components)

    def __repr__(self) -> str:
        kind = "leaf" if self.is_leaf else f"level-{self.level}"
        return (
            f"RTreeNode(#{self.node_id}, {kind}, "
            f"{self.live_count()}/{self._capacity} entries)"
        )


def tuple_path(leaf: RTreeNode, tid: int) -> tuple[int, ...]:
    """The full path of a tuple: its leaf's path plus its 1-based leaf slot."""
    return leaf.path() + (leaf.slot_of_tid(tid) + 1,)


def subtree_tids(node: RTreeNode) -> Iterator[int]:
    """All tuple ids stored under ``node`` (inclusive)."""
    if node.is_leaf:
        for _, entry in node.live_entries():
            assert entry.tid is not None
            yield entry.tid
        return
    for _, entry in node.live_entries():
        assert entry.child is not None
        yield from subtree_tids(entry.child)


def subtree_nodes(node: RTreeNode) -> Iterator[RTreeNode]:
    """All nodes under ``node`` (inclusive), pre-order."""
    yield node
    if node.is_leaf:
        return
    for _, entry in node.live_entries():
        assert entry.child is not None
        yield from subtree_nodes(entry.child)
