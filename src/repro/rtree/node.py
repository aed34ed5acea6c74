"""R-tree nodes with stable 1-based entry slots.

The paper's incremental-maintenance section assumes slot stability:

    "Every node (including leaf) in R-tree can hold up to M entries.  We
    assume each node keeps track of its free entries.  When a new tuple is
    added, the first free entry is assigned."

So slots keep a fixed order in which deletions leave free slots and
insertions fill the first free one.  A tuple's *path* — the sequence of
slot positions from the root down to its leaf slot — therefore only
changes when a node is split or its entries are re-inserted, which is
exactly when signatures must be patched.

An inner node's slots are a list of :class:`Entry` objects (``None`` at a
free slot).  A leaf's slots are two columns: ``tids`` (:data:`FREE` at a
free slot) and ``coords``, one row of point coordinates per slot — so a
leaf holds no object per tuple, and :meth:`RTreeNode.live_entries` makes
an :class:`Entry` for a leaf slot only when it is asked for one.
"""

from __future__ import annotations

from typing import Iterator, Optional, Sequence

import numpy as np

from repro.kernels.mindist import as_rows, pick_rows, sum_block
from repro.rtree.geometry import Rect

#: The ``tids`` value of a free leaf slot.
FREE = -1


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


def point_entry(tid: int, point: tuple[float, ...]) -> Entry:
    """The entry a leaf slot reads as: the tuple and its degenerate box."""
    return Entry(Rect.trusted(point, point), tid=tid)


class NodeSlots:
    """The read side of a node's slots, live or frozen (:class:`RTreeNode`
    and :class:`~repro.rtree.frozen.FrozenRNode`): an inner node's
    ``entries`` list, ``None`` at a free slot, or a leaf's ``tids``
    (:data:`FREE` at a free slot) and ``coords`` columns."""

    __slots__ = ()

    @property
    def is_leaf(self) -> bool:
        return self.level == 0

    def live_slots(self) -> np.ndarray:
        """A leaf's occupied slots, ascending."""
        return np.flatnonzero(self.tids != FREE)

    def points(self, slots: np.ndarray) -> list[tuple[float, ...]]:
        """A leaf's points at ``slots``, as tuples of Python floats."""
        return list(map(tuple, self.coords[slots].tolist()))

    def live_count(self) -> int:
        """Number of occupied slots."""
        if self.is_leaf:
            return int(np.count_nonzero(self.tids != FREE))
        return len(self.entries) - self.entries.count(None)

    def live_entries(self) -> Iterator[tuple[int, Entry]]:
        """``(slot_index, entry)`` for occupied slots (0-based slots); a
        leaf slot's entry is made for the call."""
        if self.is_leaf:
            slots = self.live_slots()
            tids = self.tids[slots].tolist()
            return zip(slots.tolist(), map(point_entry, tids, self.points(slots)))
        return (
            (index, entry)
            for index, entry in enumerate(self.entries)
            if entry is not None
        )

    def slots_mbr(self) -> Rect:
        """The MBR of the live slots.  A leaf's bounds are each the first
        point in slot order to reach it, as :meth:`Rect.union_all` over the
        points' boxes would take it (the sign of a zero included)."""
        if not self.is_leaf:
            boxes = [entry.mbr for entry in self.entries if entry is not None]
            if not boxes:
                raise ValueError(f"node #{self.node_id} has no live entries")
            return Rect.union_all(boxes)
        slots = self.live_slots()
        if not len(slots):
            raise ValueError(f"node #{self.node_id} has no live entries")
        rows = self.coords[slots]
        dims = np.arange(rows.shape[1])
        lows = rows[rows.argmin(axis=0), dims]
        highs = rows[rows.argmax(axis=0), dims]
        return Rect.trusted(tuple(lows.tolist()), tuple(highs.tolist()))


class NodeBlock:
    """A columnar view of one node's live children, in slot order.

    Algorithm 1 evaluates a whole expansion from it: ``lows`` / ``highs``
    are the children's MBR corners as float64 matrices (see
    :func:`repro.kernels.mindist.as_rows`), so keys, domination verdicts
    and transforms are one kernel call each.
    ``low_tuples`` / ``high_tuples`` are the same corners as tuples — the
    domination probes, tie rows and heap-entry points of the full-space
    skyline, and the rows a kernel loops over when an expansion hands it
    a few children (:meth:`rows`).  An inner node's are the tuples its
    entries' boxes already hold; a leaf's are made from its ``coords``
    rows in one pass, one after another in slot order, when the block is
    first asked for (the block is kept with the frozen leaf; the leaf
    itself keeps no tuple), and serve as both corners.  ``tids`` (a leaf)
    or ``entries`` (an inner node's) are the rest of a heap entry.

    The search names children by *index* in this view, the signature by
    *slot*: ``all_mask`` is the index mask of every child, ``dense`` says
    index = slot for all of them (no hole below the last live slot), so
    that an index mask *is* the slot mask; :meth:`slot_mask` and
    :meth:`index_mask` translate otherwise.

    The view is a function of the node's slots alone — as is
    :meth:`low_sums`, kept with it.
    """

    __slots__ = (
        "leaf",
        "slots",
        "tids",
        "entries",
        "all_mask",
        "dense",
        "low_tuples",
        "high_tuples",
        "lows",
        "highs",
        "_low_sums",
    )

    def __init__(self, node) -> None:
        self.leaf = node.is_leaf
        if self.leaf:
            slots = node.live_slots()
            self.slots = slots.tolist()
            self.tids = node.tids[slots].tolist()
            self.entries = None
            # A data point's MBR is degenerate: one matrix serves both corners.
            self.lows = self.highs = node.coords[slots]
            self.low_tuples = self.high_tuples = list(zip(*self.lows.T.tolist()))
        else:
            live = list(node.live_entries())
            self.slots = [slot for slot, _ in live]
            self.tids = None
            self.entries = [entry for _, entry in live]
            self.low_tuples = [entry.mbr.lows for entry in self.entries]
            self.high_tuples = [entry.mbr.highs for entry in self.entries]
            self.lows = as_rows(self.low_tuples)
            self.highs = as_rows([entry.mbr.highs for entry in self.entries])
        n = len(self.slots)
        self.all_mask = (1 << n) - 1
        self.dense = not n or self.slots[-1] == n - 1
        self._low_sums: list[float] | None = None

    def __len__(self) -> int:
        return len(self.slots)

    def low_sums(self) -> list[float]:
        """``Σ lows`` per child (the full-space skyline's heap keys),
        computed on first use and kept as long as the view is."""
        if self._low_sums is None:
            self._low_sums = sum_block(self.lows)
        return self._low_sums

    def rows(self, indices: list[int] | None):
        """``(lows, highs)`` of the children at ``indices`` (``None``: every
        child), in the form the kernels take them fastest — see
        :func:`repro.kernels.mindist.pick_rows`."""
        if indices is None:
            return self.lows, self.highs
        lows = pick_rows(self.lows, self.low_tuples, indices)
        if self.leaf:
            return lows, lows
        return lows, pick_rows(self.highs, self.high_tuples, indices)

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


class RTreeNode(NodeSlots):
    """A node holding up to ``capacity`` slots, some of which may be free.

    Attributes:
        node_id: Stable identifier (unique within a tree).
        level: 0 for leaves, increasing towards the root.
        entries: An inner node's slot list; ``None`` marks a free slot.
            Slot ``i`` (0-based) corresponds to the paper's 1-based path
            component ``i + 1``.  Free slots past the last live one are
            trimmed.  ``None`` for a leaf.
        tids, coords: A leaf's slot columns, ``capacity`` rows each
            (``coords`` is allocated with the first point when the
            dimensionality is not given); ``None`` for an inner node.
        parent: The parent node, or ``None`` for the root.
        page_id: The simulated-disk page this node lives on.
    """

    __slots__ = (
        "node_id", "level", "entries", "tids", "coords", "parent", "page_id",
        "_capacity",
    )

    def __init__(
        self, node_id: int, level: int, capacity: int, dims: int | None = None
    ) -> None:
        if capacity < 2:
            raise ValueError("node capacity must be at least 2")
        self.node_id = node_id
        self.level = level
        self.entries: list[Entry | None] | None = None
        self.tids = self.coords = None
        if level == 0:
            self.tids = np.full(capacity, FREE, dtype=np.int64)
            if dims is not None:
                self.coords = np.zeros((capacity, dims))
        else:
            self.entries = []
        self.parent: RTreeNode | None = None
        self.page_id: int | None = None
        self._capacity = capacity

    # ------------------------------------------------------------------ #
    # slot management
    # ------------------------------------------------------------------ #

    def is_full(self) -> bool:
        """No free slot and no room to append."""
        return self.live_count() >= self._capacity

    def add_point(self, tid: int, point: Sequence[float]) -> int:
        """Place tuple ``tid`` at ``point`` in the first free slot of this
        leaf; return the 0-based slot.

        Raises:
            OverflowError: if the leaf is full — callers split first.
        """
        free = np.flatnonzero(self.tids == FREE)
        if not len(free):
            raise OverflowError(f"node #{self.node_id} is full")
        if self.coords is None:
            self.coords = np.zeros((self._capacity, len(point)))
        slot = int(free[0])
        self.tids[slot] = tid
        self.coords[slot] = point
        return slot

    def add_entry(self, entry: Entry) -> int:
        """Place a child's ``entry`` in the first free slot of this inner
        node; return the 0-based slot.

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
        entry.child.parent = self
        return index

    def remove_slot(self, slot: int) -> None:
        """Free a slot."""
        if self.is_leaf:
            if self.tids[slot] == FREE:
                raise ValueError(
                    f"slot {slot} of node #{self.node_id} is already free"
                )
            self.tids[slot] = FREE
            return
        entries = self.entries
        if entries[slot] is None:
            raise ValueError(f"slot {slot} of node #{self.node_id} is already free")
        entries[slot] = None
        # Trim trailing holes so widths stay tight for freshly built nodes.
        while entries and entries[-1] is None:
            entries.pop()

    def clear(self) -> None:
        """Free every slot (a split refills the node)."""
        if self.is_leaf:
            self.tids[:] = FREE
        else:
            self.entries = []

    def slot_of_child(self, child: "RTreeNode") -> int:
        """The 0-based slot holding ``child``."""
        for index, entry in enumerate(self.entries or ()):
            if entry is not None and entry.child is child:
                return index
        raise ValueError(f"node #{child.node_id} is not a child of #{self.node_id}")

    def slot_of_tid(self, tid: int) -> int:
        """The 0-based slot holding tuple ``tid`` (leaf nodes only)."""
        found = np.flatnonzero(self.tids == tid) if tid != FREE else ()
        if not len(found):
            raise ValueError(f"tid {tid} not found in leaf #{self.node_id}")
        return int(found[0])

    # ------------------------------------------------------------------ #
    # geometry
    # ------------------------------------------------------------------ #

    def mbr(self) -> Rect:
        """The MBR of all live entries."""
        return self.slots_mbr()

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


def leaf_paths(node, prefix: tuple[int, ...] = ()) -> Iterator[tuple]:
    """Every leaf under ``node`` (inclusive) with its path, ``prefix``
    being ``node``'s own: ``(leaf, path)`` pairs from a stack walk, over
    live or frozen nodes alike."""
    stack = [(node, prefix)]
    while stack:
        node, prefix = stack.pop()
        if node.is_leaf:
            yield node, prefix
            continue
        for slot, entry in node.live_entries():
            stack.append((entry.child, prefix + (slot + 1,)))


def subtree_nodes(node: RTreeNode) -> Iterator[RTreeNode]:
    """All nodes under ``node`` (inclusive), pre-order."""
    yield node
    if node.is_leaf:
        return
    for entry in node.entries:
        if entry is not None:
            yield from subtree_nodes(entry.child)
