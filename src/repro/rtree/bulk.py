"""Sort-Tile-Recursive bulk loading.

Benchmarks build R-trees over up to ~10^5 points; loading them by repeated
insertion is the paper-faithful *construction cost* (Figure 5 measures it),
but every other experiment only needs a good tree fast.  STR packs leaves by
recursive sort-and-tile and then packs each upper level the same way.

The packing runs on the coordinate matrix: each tiling step is one stable
``argsort`` of a column (a stable sort keeps the order of equal keys, so the
groups are exactly those of a per-item ``sorted``), and each level's node
boxes are per-group ``min`` / ``max`` over the rows of its children.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from repro.rtree.geometry import Rect
from repro.rtree.node import Entry, RTreeNode
from repro.rtree.rtree import RTree


def _str_order(keys: np.ndarray, capacity: int) -> tuple[np.ndarray, list[int]]:
    """Tile the rows of ``keys`` into groups of at most ``capacity``.

    Returns a permutation of the rows that lists the groups one after the
    other, and the group sizes.  Final-dimension chunking distributes rows
    *evenly* across the chunk count rather than greedily: greedy chunking
    can strand a near-empty last group (91 rows at capacity 45 → 45, 45,
    1), which would violate the R-tree's minimum-fill invariant and break
    later deletions.
    """
    dims = keys.shape[1]
    parts: list[np.ndarray] = []
    sizes: list[int] = []

    def tile(rows: np.ndarray, dim: int) -> None:
        n = len(rows)
        if n <= capacity:
            parts.append(rows)
            sizes.append(n)
            return
        if dim >= dims - 1:
            rows = rows[np.argsort(keys[rows, dims - 1], kind="stable")]
            n_chunks = math.ceil(n / capacity)
            base, extra = divmod(n, n_chunks)
            parts.append(rows)
            sizes.extend([base + 1] * extra + [base] * (n_chunks - extra))
            return
        n_groups = math.ceil(n / capacity)
        n_slabs = max(1, math.ceil(n_groups ** (1.0 / (dims - dim))))
        slab_size = math.ceil(n / n_slabs)
        rows = rows[np.argsort(keys[rows, dim], kind="stable")]
        for start in range(0, n, slab_size):
            tile(rows[start : start + slab_size], dim + 1)

    tile(np.arange(len(keys)), 0)
    return np.concatenate(parts), sizes


def bulk_load(
    points: Sequence[tuple[int, Sequence[float]]], dims: int, **kwargs
) -> RTree:
    """:func:`bulk_load_columns` over ``(tid, point)`` pairs of ``dims``
    coordinates each."""
    for tid, coords in points:
        if len(coords) != dims:
            raise ValueError(f"point for tid {tid} has {len(coords)} dims, expected {dims}")
    tids = np.array([tid for tid, _ in points], dtype=np.int64)
    coords = np.array([coords for _, coords in points], dtype=np.float64)
    return bulk_load_columns(tids, coords.reshape(len(points), dims), **kwargs)


def bulk_load_columns(
    tids: np.ndarray,
    coords: np.ndarray,
    max_entries: int = 50,
    fill_factor: float = 0.9,
    disk=None,
    tag: str = "rtree",
) -> RTree:
    """Build an :class:`RTree` with STR packing over ``coords[i]`` as the
    point of ``tids[i]``.

    Args:
        tids: The tuples to index, unique.
        coords: ``(len(tids), dims)`` finite float64 coordinates.
        max_entries: Node capacity ``M``.
        fill_factor: Target fraction of ``M`` used per packed node.
        disk, tag: Forwarded to :class:`RTree`.

    Returns:
        A fully wired tree (pages allocated, tuple paths computed).
    """
    dims = coords.shape[1]
    tree = RTree(dims=dims, max_entries=max_entries, disk=disk, tag=tag)
    if len(tids) == 0:
        return tree
    distinct, counts = np.unique(tids, return_counts=True)
    if len(distinct) != len(tids):
        raise ValueError(f"duplicate tid {distinct[counts > 1][0]}")
    if not np.isfinite(coords).all():
        raise ValueError("coordinates must be finite")
    # Packed nodes must stay splittable into two legal halves (even
    # chunking yields groups of at least capacity/2 entries).
    capacity = min(
        max_entries,
        max(2 * tree.min_entries, round(max_entries * fill_factor)),
    )
    tid_list = tids.tolist()
    point_list = list(map(tuple, coords.tolist()))

    # One level at a time, leaves first.  Row i of ``lows`` / ``highs`` is
    # the box of ``held[i]`` (a tid, then a child node), and the tiling
    # sorts by box centres — a point is its own centre.
    tid_leaf: dict[int, RTreeNode] = {}
    held: list = tid_list
    boxes = [Rect.trusted(point, point) for point in point_list]
    lows = highs = keys = coords
    level = 0
    while True:
        order, sizes = _str_order(keys, capacity)
        members = order.tolist()
        nodes: list[RTreeNode] = []
        start = 0
        for size in sizes:
            group = members[start : start + size]
            start += size
            node = tree._new_node(level=level)
            if level:
                node.entries = [Entry(boxes[i], child=held[i]) for i in group]
                for i in group:
                    held[i].parent = node
            else:
                node.entries = [Entry(boxes[i], tid=held[i]) for i in group]
                for i in group:
                    tid_leaf[held[i]] = node
            tree._sync_page(node)
            nodes.append(node)
        if len(nodes) == 1:
            break
        starts = np.cumsum([0] + sizes[:-1])
        lows = np.minimum.reduceat(lows[order], starts)
        highs = np.maximum.reduceat(highs[order], starts)
        keys = (lows + highs) / 2.0
        boxes = [
            Rect.trusted(tuple(lo), tuple(hi))
            for lo, hi in zip(lows.tolist(), highs.tolist())
        ]
        held = nodes
        level += 1

    tree._adopt_bulk(nodes[0], dict(zip(tid_list, point_list)), tid_leaf)
    return tree
