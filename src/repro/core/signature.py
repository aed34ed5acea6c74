"""The signature tree of one cube cell.

A signature mirrors the R-tree topology: for every tree node it stores a bit
array over that node's ``M`` slots, where bit ``p`` is 1 iff the subtree (or
leaf slot) at child position ``p + 1`` contains at least one tuple of the
cell.  Nodes are addressed by SID; only nodes with at least one set bit are
represented (a missing node means "all zeroes"), which is what makes the
measure so much smaller than a per-cell index.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Sequence

from repro.bitmap.bitarray import BitArray


class Signature:
    """A sparse map from node SIDs to child bit arrays.

    Args:
        fanout: The R-tree node capacity ``M``; every bit array has width M.
    """

    __slots__ = ("fanout", "_nodes")

    def __init__(self, fanout: int) -> None:
        if fanout < 2:
            raise ValueError("fanout must be at least 2")
        self.fanout = fanout
        self._nodes: dict[int, BitArray] = {}

    # ------------------------------------------------------------------ #
    # construction
    # ------------------------------------------------------------------ #

    @classmethod
    def from_paths(
        cls, paths: Iterable[Sequence[int]], fanout: int
    ) -> "Signature":
        """Build a signature from the tuple paths of one cell.

        Equivalent to the paper's recursive-sorting generation (Fig. 2b),
        whose literal transcription the tests keep as their oracle; both
        produce identical trees.
        """
        signature = cls(fanout)
        for path in paths:
            signature.add_path(path)
        return signature

    def add_path(self, path: Sequence[int]) -> None:
        """Set every bit along a tuple path (idempotent)."""
        if not path:
            raise ValueError("a tuple path cannot be empty")
        base = self.fanout + 1
        sid = 0
        for component in path:
            if not 1 <= component <= self.fanout:
                raise ValueError(
                    f"path component {component} outside [1, {self.fanout}]"
                )
            bits = self._nodes.get(sid)
            if bits is None:
                bits = BitArray(self.fanout)
                self._nodes[sid] = bits
            bits.set(component - 1)
            sid = sid * base + component

    # ------------------------------------------------------------------ #
    # queries
    # ------------------------------------------------------------------ #

    def node(self, sid: int) -> BitArray | None:
        """The bit array of node ``sid`` (``None`` = all zeroes)."""
        return self._nodes.get(sid)

    def node_sids(self) -> Iterator[int]:
        """SIDs of all represented (non-empty) nodes."""
        return iter(self._nodes)

    def n_nodes(self) -> int:
        return len(self._nodes)

    def check_bit(self, parent_sid: int, position: int) -> bool:
        """Whether child ``position`` (1-based) of node ``parent_sid`` holds data."""
        bits = self._nodes.get(parent_sid)
        if bits is None:
            return False
        return bits.get(position - 1)

    def check_path(self, path: Sequence[int]) -> bool:
        """Whether every bit along ``path`` is set.

        For signatures built from data this equals checking the deepest bit;
        for hand-made or lazily combined signatures the full walk is the
        safe, still cheap, option.
        """
        base = self.fanout + 1
        sid = 0
        for component in path:
            bits = self._nodes.get(sid)
            if bits is None or not bits.get(component - 1):
                return False
            sid = sid * base + component
        return True

    # ------------------------------------------------------------------ #
    # mutation support used by maintenance and ops
    # ------------------------------------------------------------------ #

    def set_node(self, sid: int, bits: BitArray) -> None:
        """Install a node's bit array; an all-zero array removes the node."""
        if bits.nbits != self.fanout:
            raise ValueError(
                f"bit array has {bits.nbits} bits, fanout is {self.fanout}"
            )
        if bits.any():
            self._nodes[sid] = bits
        else:
            self._nodes.pop(sid, None)

    def drop_node(self, sid: int) -> None:
        self._nodes.pop(sid, None)

    def copy(self) -> "Signature":
        clone = Signature(self.fanout)
        clone._nodes = {sid: bits.copy() for sid, bits in self._nodes.items()}
        return clone

    # ------------------------------------------------------------------ #
    # dunder plumbing
    # ------------------------------------------------------------------ #

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Signature):
            return NotImplemented
        return self.fanout == other.fanout and self._nodes == other._nodes

    def __hash__(self) -> int:  # signatures are mutable; forbid hashing
        raise TypeError("Signature objects are unhashable")

    def __bool__(self) -> bool:
        return bool(self._nodes)

    def __repr__(self) -> str:
        return f"Signature(fanout={self.fanout}, nodes={len(self._nodes)})"
