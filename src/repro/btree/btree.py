"""A paged B+-tree with duplicate keys and counted page accesses.

Entries are ``(key, value)`` pairs kept sorted by key; duplicate keys are
stored as separate slots (so a long posting list spans multiple leaves and
its retrieval honestly costs multiple page reads, which is what the
Boolean-first baseline pays).  Keys may be ints, floats, strings or tuples —
anything totally ordered and of a homogeneous type per tree.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import Any, Iterator

from repro.storage.buffer import BufferPool
from repro.storage.counters import BTREE, IOCounters
from repro.storage.disk import SimulatedDisk

_NODE_HEADER_BYTES = 24
_KEY_BYTES = 8
_POINTER_BYTES = 8
_MIN_ORDER = 4
_MAX_ORDER = 128


def order_for_page(page_size: int) -> int:
    """The largest order whose full node fits ``page_size`` bytes, capped
    at 128 slots and never below the tree's minimum of 4."""
    fits = (page_size - _NODE_HEADER_BYTES) // (_KEY_BYTES + _POINTER_BYTES)
    return max(_MIN_ORDER, min(_MAX_ORDER, fits))


class _Leaf:
    __slots__ = ("keys", "values", "next", "page_id")

    def __init__(self) -> None:
        self.keys: list[Any] = []
        self.values: list[Any] = []
        self.next: _Leaf | None = None
        self.page_id: int | None = None


class _Internal:
    __slots__ = ("keys", "children", "page_id")

    def __init__(self) -> None:
        # children[i] covers keys < keys[i]; children[-1] covers the rest.
        self.keys: list[Any] = []
        self.children: list[Any] = []
        self.page_id: int | None = None


class BPlusTree:
    """A B+-tree multimap on a simulated disk.

    Args:
        order: Maximum number of slots per node (split threshold).
        disk: Page store; a private one is created when omitted.
        tag: Page tag prefix for space accounting.
    """

    def __init__(
        self,
        order: int = _MAX_ORDER,
        disk: SimulatedDisk | None = None,
        tag: str = "btree",
    ) -> None:
        if order < _MIN_ORDER:
            raise ValueError(f"order must be at least {_MIN_ORDER}")
        self.order = order
        self.disk = disk if disk is not None else SimulatedDisk()
        self.tag = tag
        #: Page id -> node whose write :meth:`bulk_insert` is holding back.
        self._unsynced: dict[int, _Leaf | _Internal] | None = None
        self.root: _Leaf | _Internal = _Leaf()
        self._register(self.root)
        self._n_entries = 0

    # ------------------------------------------------------------------ #
    # page plumbing
    # ------------------------------------------------------------------ #

    def _register(self, node: _Leaf | _Internal) -> None:
        node.page_id = self.disk.allocate(self.tag, size=_NODE_HEADER_BYTES)
        self._sync(node)

    def _sync(self, node: _Leaf | _Internal) -> None:
        if self._unsynced is not None:
            self._unsynced[node.page_id] = node
            return
        per_slot = _KEY_BYTES + _POINTER_BYTES
        size = _NODE_HEADER_BYTES + len(node.keys) * per_slot
        assert node.page_id is not None
        self.disk.write(node.page_id, node, size=size)

    def _read(
        self,
        node: _Leaf | _Internal,
        pool: BufferPool | None,
        counters: IOCounters | None,
        category: str,
    ) -> None:
        """Account one page access for visiting ``node``."""
        assert node.page_id is not None
        if pool is not None:
            pool.get(node.page_id, category, counters)
        else:
            self.disk.read(node.page_id, category, counters)

    # ------------------------------------------------------------------ #
    # mutation
    # ------------------------------------------------------------------ #

    def insert(self, key: Any, value: Any) -> None:
        """Insert one ``(key, value)`` pair (duplicates allowed)."""
        split = self._insert(self.root, key, value)
        if split is not None:
            sep, right = split
            new_root = _Internal()
            new_root.keys = [sep]
            new_root.children = [self.root, right]
            self.root = new_root
            self._register(new_root)
        self._n_entries += 1

    def _insert(self, node, key, value):
        if isinstance(node, _Leaf):
            index = bisect_right(node.keys, key)
            node.keys.insert(index, key)
            node.values.insert(index, value)
            if len(node.keys) > self.order:
                return self._split_leaf(node)
            self._sync(node)
            return None
        index = bisect_right(node.keys, key)
        split = self._insert(node.children[index], key, value)
        if split is None:
            return None
        sep, right = split
        insert_at = bisect_right(node.keys, sep)
        node.keys.insert(insert_at, sep)
        node.children.insert(insert_at + 1, right)
        if len(node.keys) > self.order:
            return self._split_internal(node)
        self._sync(node)
        return None

    def _split_leaf(self, leaf: _Leaf):
        mid = len(leaf.keys) // 2
        right = _Leaf()
        right.keys = leaf.keys[mid:]
        right.values = leaf.values[mid:]
        leaf.keys = leaf.keys[:mid]
        leaf.values = leaf.values[:mid]
        right.next = leaf.next
        leaf.next = right
        self._register(right)
        self._sync(leaf)
        return right.keys[0], right

    def _split_internal(self, node: _Internal):
        mid = len(node.keys) // 2
        sep = node.keys[mid]
        right = _Internal()
        right.keys = node.keys[mid + 1 :]
        right.children = node.children[mid + 1 :]
        node.keys = node.keys[:mid]
        node.children = node.children[: mid + 1]
        self._register(right)
        self._sync(node)
        return sep, right

    def bulk_insert(self, pairs) -> None:
        """Insert many ``(key, value)`` pairs, writing each node once.

        The same inserts and splits as one :meth:`insert` per pair — so the
        same nodes, keys and page ids — with each dirtied node's page
        written when the batch ends; a batch cut short by a fault still
        writes every node it dirtied (one whose own write fails aside).
        """
        self._unsynced = {}
        try:
            for key, value in pairs:
                self.insert(key, value)
        finally:
            dirtied, self._unsynced = self._unsynced, None
            failure: Exception | None = None
            for node in dirtied.values():
                try:
                    self._sync(node)
                except Exception as exc:  # a storage fault or a simulated crash
                    failure = failure or exc
            if failure is not None:
                raise failure

    # ------------------------------------------------------------------ #
    # lookup
    # ------------------------------------------------------------------ #

    def __len__(self) -> int:
        return self._n_entries

    def height(self) -> int:
        height = 1
        node = self.root
        while isinstance(node, _Internal):
            node = node.children[0]
            height += 1
        return height

    def _descend_left(
        self, key, pool, counters, category
    ) -> _Leaf:
        """The leftmost leaf that may contain ``key``, counting page reads."""
        node = self.root
        self._read(node, pool, counters, category)
        while isinstance(node, _Internal):
            node = node.children[bisect_left(node.keys, key)]
            self._read(node, pool, counters, category)
        return node

    def search(
        self,
        key: Any,
        pool: BufferPool | None = None,
        counters: IOCounters | None = None,
        category: str = BTREE,
    ) -> list[Any]:
        """All values stored under ``key`` (page accesses are counted)."""
        return [v for _, v in self.range_scan(key, key, pool, counters, category)]

    def range_scan(
        self,
        lo: Any,
        hi: Any,
        pool: BufferPool | None = None,
        counters: IOCounters | None = None,
        category: str = BTREE,
    ) -> Iterator[tuple[Any, Any]]:
        """Yield ``(key, value)`` pairs with ``lo <= key <= hi``, in key order."""
        leaf: _Leaf | None = self._descend_left(lo, pool, counters, category)
        while leaf is not None:
            started = False
            for key, value in zip(leaf.keys, leaf.values):
                if key < lo:
                    continue
                if key > hi:
                    return
                started = True
                yield key, value
            # Keep following the leaf chain while it may still hold matches.
            if leaf.keys and leaf.keys[-1] > hi and not started:
                return
            leaf = leaf.next
            if leaf is not None:
                self._read(leaf, pool, counters, category)

    def items(self) -> Iterator[tuple[Any, Any]]:
        """All pairs in key order, without access accounting (for tests)."""
        node = self.root
        while isinstance(node, _Internal):
            node = node.children[0]
        leaf: _Leaf | None = node
        while leaf is not None:
            yield from zip(leaf.keys, leaf.values)
            leaf = leaf.next

    def distinct_keys(self) -> Iterator[Any]:
        """Distinct keys in order (no access accounting)."""
        previous = object()
        for key, _ in self.items():
            if key != previous:
                previous = key
                yield key
