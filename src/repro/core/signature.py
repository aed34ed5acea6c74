"""The signature tree of one cube cell.

A signature mirrors the R-tree topology: for every tree node it stores a bit
array over that node's ``M`` slots — an ``int`` mask — where bit ``p`` is 1
iff the subtree (or leaf slot) at child position ``p + 1`` contains at least
one tuple of the cell.  Nodes are addressed by SID; only nodes with at least
one set bit are represented (a missing node means "all zeroes"), which is
what makes the measure so much smaller than a per-cell index.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Sequence


class Signature:
    """A sparse map from node SIDs to child masks.

    Args:
        fanout: The R-tree node capacity ``M``; every mask has width M.
    """

    __slots__ = ("fanout", "_nodes")

    def __init__(self, fanout: int) -> None:
        if fanout < 2:
            raise ValueError("fanout must be at least 2")
        self.fanout = fanout
        self._nodes: dict[int, int] = {}

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

    @classmethod
    def from_masks(cls, fanout: int, masks: Mapping[int, int]) -> "Signature":
        """A signature from its nodes' masks (SID -> mask of width
        ``fanout``, trusted); a zero mask is an absent node."""
        signature = cls(fanout)
        signature._nodes = {sid: mask for sid, mask in masks.items() if mask}
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
            self._nodes[sid] = self._nodes.get(sid, 0) | 1 << component - 1
            sid = sid * base + component

    # ------------------------------------------------------------------ #
    # queries
    # ------------------------------------------------------------------ #

    def node(self, sid: int) -> int:
        """The mask of node ``sid`` (``0`` for a node it does not hold)."""
        return self._nodes.get(sid, 0)

    def masks(self) -> dict[int, int]:
        """Every represented node's mask (SID -> mask of width ``fanout``)."""
        return dict(self._nodes)

    def check_path(self, path: Sequence[int]) -> bool:
        """Whether every bit along ``path`` is set.

        For signatures built from data this equals checking the deepest bit;
        for hand-made or lazily combined signatures the full walk is the
        safe, still cheap, option.
        """
        base = self.fanout + 1
        sid = 0
        for component in path:
            if not self._nodes.get(sid, 0) >> component - 1 & 1:
                return False
            sid = sid * base + component
        return True

    # ------------------------------------------------------------------ #
    # mutation support used by maintenance and ops
    # ------------------------------------------------------------------ #

    def set_node(self, sid: int, mask: int) -> None:
        """Install a node's mask; a zero mask removes the node.  A mask
        wider than the fanout is refused."""
        if mask < 0 or mask >> self.fanout:
            raise ValueError(f"mask does not fit the fanout {self.fanout}")
        if mask:
            self._nodes[sid] = mask
        else:
            self._nodes.pop(sid, None)

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


# ---------------------------------------------------------------------- #
# maintenance (paper Section IV-B.3)
# ---------------------------------------------------------------------- #


def path_sids(path: Sequence[int], fanout: int) -> list[int]:
    """The SIDs of the nodes a tuple path passes, root first: the only
    nodes whose bit arrays adding or removing the tuple can change."""
    base = fanout + 1
    sids = [0]
    for component in path[:-1]:
        sids.append(sids[-1] * base + component)
    return sids


def move_paths(
    masks: dict[int, int],
    removed: Iterable[Sequence[int]],
    added: Iterable[Sequence[int]],
    fanout: int,
) -> None:
    """Edit one cell's node masks in place for the tuples that left it
    along ``removed`` paths and joined it along ``added`` ones.

    ``masks`` holds every node on every path (``0`` for a node the
    signature does not represent).  A leaf slot holds one tuple, and an
    inner bit is set exactly when its child's array is non-empty, so the
    bits alone say what a removal frees: it clears its leaf bit, then walks
    up and clears each parent bit whose child's array became empty.  An
    addition sets every bit along its path.  Removals go first: one
    operation can vacate a slot and refill it (a split re-seats tuples),
    and the refilled bit must stay set.
    """
    for path in removed:
        for sid, component in zip(
            reversed(path_sids(path, fanout)), reversed(path)
        ):
            masks[sid] &= ~(1 << component - 1)
            if masks[sid]:
                break
    for path in added:
        for sid, component in zip(path_sids(path, fanout), path):
            masks[sid] |= 1 << component - 1
