"""Counted signatures: O(depth) incremental maintenance.

The stored signature is a pure bitmap, so *removing* a tuple path needs to
know whether any other tuple of the cell still uses each prefix.  The paper
resolves removals by re-collecting paths under the reorganised subtree; this
module implements the natural bookkeeping alternative the DESIGN.md ablation
studies: keep, per represented node and child position, the *count* of cell
tuples below.  A bit is set iff its count is positive, so

* adding a path increments ``depth`` counters,
* removing a path decrements them and clears bits that reach zero,

with no access to other tuples' paths.  The memory overhead is one small int
per set bit — still far below a per-cell index — and the bitmap view stays
available for storage at any time.

The O(depth) covers the store as well as the counts: :meth:`dirty_sids`
names the nodes a moved path touched, and the cell's rewrite asks
:meth:`node` for the bit arrays of only those, taking every other node's
blob from the cell's current pages
(:meth:`repro.core.store.SignatureStore.put_signature`).  Copy-on-write
under an epoch snapshot is per node: :meth:`copy` shares the node dicts and
a write copies the ones on its path.  What a dirty cell still pays in its
size is all C-level and flat — one shallow dict copy, one sort of its SIDs,
one pass over its blob lengths (:func:`repro.core.partial.pack`) and one
page fingerprint.

A build or a rebuild counts every cell of a cuboid at once
(:meth:`CountedSignature.count_cells` over :class:`PathColumns`): the
per-path loops below are the maintenance primitives, not the build's.
"""

from __future__ import annotations

from itertools import chain
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

from repro.bitmap.bitarray import BitArray
from repro.core.signature import Signature


class PathColumns:
    """Every indexed tuple's R-tree path as arrays — what
    :meth:`CountedSignature.count_cells` counts.

    Row ``r`` describes tuple ``tids[r]``.  ``levels[l]`` is ``(nodes,
    slots, sids)`` for depth ``l`` (the root's is 0): ``nodes[r]`` is the
    node the tuple's path passes there, as a dense code in SID order,
    ``slots[r]`` the 1-based slot it takes in it, and ``sids[code]`` that
    node's SID.  Codes stay below the tuple count however deep the tree,
    so no array ever holds a SID.
    """

    def __init__(self, paths: Mapping[int, Sequence[int]], fanout: int) -> None:
        self.fanout = fanout
        n = len(paths)
        depth = len(next(iter(paths.values()), ()))
        if any(len(path) != depth for path in paths.values()):
            raise ValueError("tuple paths of unequal length")
        self.tids = np.fromiter(paths, dtype=np.int64, count=n)
        matrix = np.fromiter(
            chain.from_iterable(paths.values()), dtype=np.int64, count=n * depth
        ).reshape(n, depth)
        if n and depth and not ((matrix >= 1) & (matrix <= fanout)).all():
            raise ValueError(f"path component outside [1, {fanout}]")
        base = fanout + 1
        nodes = np.zeros(n, dtype=np.int64)
        sids = [0]
        self.levels: list[tuple[np.ndarray, np.ndarray, list[int]]] = []
        for level in range(depth):
            slots = matrix[:, level]
            self.levels.append((nodes, slots, sids))
            if level + 1 < depth:
                children, nodes = np.unique(nodes * base + slots, return_inverse=True)
                nodes = nodes.reshape(-1)
                sids = [sids[c // base] * base + c % base for c in children.tolist()]


class CountedSignature:
    """A signature whose set bits carry tuple counts."""

    __slots__ = ("fanout", "_counts", "_owned")

    def __init__(self, fanout: int) -> None:
        if fanout < 2:
            raise ValueError("fanout must be at least 2")
        self.fanout = fanout
        # sid -> {1-based child position -> count > 0}
        self._counts: dict[int, dict[int, int]] = {}
        # SIDs whose node dict no other signature shares; ``None`` until the
        # first :meth:`copy` (every node is private).
        self._owned: set[int] | None = None

    @classmethod
    def from_paths(
        cls, paths: Iterable[Sequence[int]], fanout: int
    ) -> "CountedSignature":
        counted = cls(fanout)
        for path in paths:
            counted.add_path(path)
        return counted

    @classmethod
    def count_cells(
        cls, labels: np.ndarray, n_cells: int, paths: PathColumns
    ) -> list["CountedSignature"]:
        """The counted signatures of ``n_cells`` cells at once: tuple
        ``tid`` counts into cell ``labels[tid]`` (``-1``: into none).

        The paper's recursive sort (Fig. 2b) done as arrays: per tree
        level, one ``lexsort`` of the counted tuples by (cell, node, slot)
        and a run-length count, whose runs are the count dicts.

        Raises:
            KeyError: if a counted tuple has no path.
        """
        counted = [cls(paths.fanout) for _ in range(n_cells)]
        in_tree = labels[paths.tids]
        rows = np.flatnonzero(in_tree >= 0)
        if len(rows) != np.count_nonzero(labels >= 0):
            raise KeyError("a counted tuple has no path in the tree")
        if len(rows) == 0:
            return counted
        cell = in_tree[rows]
        tables = [signature._counts for signature in counted]
        for nodes, slots, sids in paths.levels:
            node, slot = nodes[rows], slots[rows]
            order = np.lexsort((slot, node, cell))
            c, n, s = cell[order], node[order], slot[order]
            # One run per distinct (cell, node, slot); a new node's runs
            # start where (cell, node) changes.
            new_node = np.ones(len(c), dtype=bool)
            new_node[1:] = (c[1:] != c[:-1]) | (n[1:] != n[:-1])
            new_run = new_node.copy()
            new_run[1:] |= s[1:] != s[:-1]
            starts = np.flatnonzero(new_run)
            runs = list(zip(s[starts].tolist(), np.diff(starts, append=len(c)).tolist()))
            firsts = np.flatnonzero(new_node[starts])
            owners = map(tables.__getitem__, c[starts[firsts]].tolist())
            node_sids = map(sids.__getitem__, n[starts[firsts]].tolist())
            bounds = firsts.tolist()
            bounds.append(len(starts))
            for table, sid, a, b in zip(owners, node_sids, bounds, bounds[1:]):
                table[sid] = dict(runs[a:b])
        return counted

    # ------------------------------------------------------------------ #
    # maintenance primitives
    # ------------------------------------------------------------------ #

    def add_path(self, path: Sequence[int]) -> None:
        """Count one tuple in along ``path``."""
        if not path:
            raise ValueError("a tuple path cannot be empty")
        base = self.fanout + 1
        counts, owned = self._counts, self._owned
        sid = 0
        for component in path:
            if not 1 <= component <= self.fanout:
                raise ValueError(
                    f"path component {component} outside [1, {self.fanout}]"
                )
            node = counts.get(sid)
            if node is None or (owned is not None and sid not in owned):
                # New here, or still shared with a copy: make it our own.
                node = counts[sid] = dict(node or ())
                if owned is not None:
                    owned.add(sid)
            node[component] = node.get(component, 0) + 1
            sid = sid * base + component

    def remove_path(self, path: Sequence[int]) -> None:
        """Count one tuple out along ``path``.

        Raises:
            KeyError: if the path was never counted in (a maintenance bug —
                failing loudly beats silently corrupting the signature).
        """
        if not path:
            raise ValueError("a tuple path cannot be empty")
        base = self.fanout + 1
        counts, owned = self._counts, self._owned
        sid = 0
        for component in path:
            node = counts.get(sid)
            if node is None or component not in node:
                raise KeyError(
                    f"path {tuple(path)} is not counted in this signature"
                )
            if owned is not None and sid not in owned:
                node = counts[sid] = dict(node)
                owned.add(sid)
            node[component] -= 1
            if node[component] == 0:
                del node[component]
                if not node:
                    del counts[sid]
            sid = sid * base + component

    def copy(self) -> "CountedSignature":
        """An independent copy (copy-on-write under epoch snapshots: a
        published snapshot keeps the original, maintenance mutates the
        copy).  The node dicts are shared; from here on either side copies
        a node the first time it writes to it."""
        duplicate = CountedSignature(self.fanout)
        duplicate._counts = dict(self._counts)
        duplicate._owned = set()
        self._owned = set()
        return duplicate

    # ------------------------------------------------------------------ #
    # views
    # ------------------------------------------------------------------ #

    def n_nodes(self) -> int:
        return len(self._counts)

    def node_sids(self) -> Iterator[int]:
        """SIDs of all represented nodes, like :meth:`Signature.node_sids`."""
        return iter(self._counts)

    def node(self, sid: int) -> BitArray | None:
        """The bit array of node ``sid`` (``None`` = all zeroes), like
        :meth:`Signature.node` — what the store compresses for a dirty
        node, without a bitmap of the rest of the cell."""
        positions = self._counts.get(sid)
        if positions is None:
            return None
        mask = 0
        for position in positions:
            mask |= 1 << position - 1
        return BitArray(self.fanout, mask)

    def to_signature(self) -> Signature:
        """The whole bitmap view (what a from-scratch store compresses)."""
        signature = Signature(self.fanout)
        for sid in self._counts:
            signature.set_node(sid, self.node(sid))
        return signature

    def dirty_sids(self, path: Sequence[int]) -> list[int]:
        """The node SIDs a path touches (ancestors of the leaf slot): the
        only nodes whose bit arrays adding or removing ``path`` can change,
        hence the only ones a rewrite must compress again."""
        base = self.fanout + 1
        sids = [0]
        sid = 0
        for component in path[:-1]:
            sid = sid * base + component
            sids.append(sid)
        return sids

    def __eq__(self, other: object) -> bool:
        """Exact count-level equality (consistency audits compare a live
        counted signature against one rebuilt from the R-tree)."""
        if not isinstance(other, CountedSignature):
            return NotImplemented
        return self.fanout == other.fanout and self._counts == other._counts

    __hash__ = None  # mutable; forbid hashing, like Signature

    def __bool__(self) -> bool:
        return bool(self._counts)

    def __repr__(self) -> str:
        return f"CountedSignature(fanout={self.fanout}, nodes={len(self._counts)})"
