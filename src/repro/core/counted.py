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
names the nodes a moved path touched, and the cell's rewrite compresses
only those, taking every other node's blob from the cell's current pages
(:meth:`repro.core.store.SignatureStore.put_signature`).  What is still
O(cell) per dirty cell is the copy-on-write :meth:`copy` under an epoch
snapshot, the :meth:`to_signature` view, and re-packing the blobs into
fresh pages.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from repro.bitmap.bitarray import BitArray
from repro.core.signature import Signature


class CountedSignature:
    """A signature whose set bits carry tuple counts."""

    __slots__ = ("fanout", "_counts")

    def __init__(self, fanout: int) -> None:
        if fanout < 2:
            raise ValueError("fanout must be at least 2")
        self.fanout = fanout
        # sid -> {1-based child position -> count > 0}
        self._counts: dict[int, dict[int, int]] = {}

    @classmethod
    def from_paths(
        cls, paths: Iterable[Sequence[int]], fanout: int
    ) -> "CountedSignature":
        counted = cls(fanout)
        for path in paths:
            counted.add_path(path)
        return counted

    # ------------------------------------------------------------------ #
    # maintenance primitives
    # ------------------------------------------------------------------ #

    def add_path(self, path: Sequence[int]) -> None:
        """Count one tuple in along ``path``."""
        if not path:
            raise ValueError("a tuple path cannot be empty")
        base = self.fanout + 1
        sid = 0
        for component in path:
            if not 1 <= component <= self.fanout:
                raise ValueError(
                    f"path component {component} outside [1, {self.fanout}]"
                )
            node = self._counts.setdefault(sid, {})
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
        sid = 0
        for component in path:
            node = self._counts.get(sid)
            if node is None or component not in node:
                raise KeyError(
                    f"path {tuple(path)} is not counted in this signature"
                )
            node[component] -= 1
            if node[component] == 0:
                del node[component]
                if not node:
                    del self._counts[sid]
            sid = sid * base + component

    def move_path(
        self, old_path: Sequence[int], new_path: Sequence[int]
    ) -> None:
        """Apply one R-tree :class:`PathChange` for a surviving tuple."""
        self.remove_path(old_path)
        self.add_path(new_path)

    def copy(self) -> "CountedSignature":
        """An independent deep copy (copy-on-write under epoch snapshots:
        a published snapshot keeps the original, maintenance mutates the
        copy)."""
        duplicate = CountedSignature(self.fanout)
        duplicate._counts = {
            sid: dict(node) for sid, node in self._counts.items()
        }
        return duplicate

    # ------------------------------------------------------------------ #
    # views
    # ------------------------------------------------------------------ #

    def check_bit(self, parent_sid: int, position: int) -> bool:
        node = self._counts.get(parent_sid)
        return bool(node) and position in node

    def count(self, parent_sid: int, position: int) -> int:
        node = self._counts.get(parent_sid)
        if not node:
            return 0
        return node.get(position, 0)

    def n_nodes(self) -> int:
        return len(self._counts)

    def to_signature(self) -> Signature:
        """The bitmap view (what gets compressed and stored)."""
        signature = Signature(self.fanout)
        for sid, node in self._counts.items():
            bits = BitArray(self.fanout)
            for position in node:
                bits.set(position - 1)
            signature.set_node(sid, bits)
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
