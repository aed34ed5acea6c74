"""Sort-Tile-Recursive bulk loading.

Benchmarks build R-trees over up to ~10^5 points; loading them by repeated
insertion is the paper-faithful *construction cost* (Figure 5 measures it),
but every other experiment only needs a good tree fast.  STR packs leaves by
recursive sort-and-tile and then packs each upper level the same way.

The packing runs on the coordinate matrix: each tiling step is one stable
``argsort`` of a column (a stable sort keeps the order of equal keys, so the
groups are exactly those of a per-item ``sorted``), and each level's node
boxes are per-group ``min`` / ``max`` over the rows of its children.

Allocation order is part of the build: each level's rows are permuted into
STR order once, and every node is built from its contiguous slice.  So a
leaf's point tuples (and the ``Rect`` / ``Entry`` around each) are made one
after the other, in the slot order a skyline expansion scans them, and sit
side by side in memory instead of wherever their tids' rows happened to be.
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


def _build_level(
    tree: RTree, level: int, sizes: list[int], entries: list[Entry]
) -> list[RTreeNode]:
    """One new node of ``tree`` per group size, each holding the next slice
    of ``entries``."""
    nodes = []
    start = 0
    for size in sizes:
        node = tree._new_node(level=level)
        node.entries = entries[start : start + size]
        start += size
        tree._sync_page(node)
        nodes.append(node)
    return nodes


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

    Raises:
        ValueError: ``coords`` is not a matrix with one row per tid, a tid
            repeats, or a coordinate is not finite.
    """
    if coords.ndim != 2:
        raise ValueError(f"coords must be a 2-D matrix, got {coords.ndim} dims")
    if len(tids) != len(coords):
        raise ValueError(f"{len(tids)} tids for {len(coords)} coordinate rows")
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

    # Each level's rows are permuted into STR order once, and each node is
    # one contiguous slice of them.  Above the leaves, a node's box is the
    # ``min`` / ``max`` of its children's rows, and the tiling sorts by box
    # centres (a point is its own centre).
    order, sizes = _str_order(coords, capacity)
    lows = highs = coords[order]
    leaf_tids = tids[order].tolist()
    leaf_points = list(map(tuple, lows.tolist()))
    nodes = _build_level(tree, 0, sizes, [
        Entry(Rect.trusted(point, point), tid=tid)
        for tid, point in zip(leaf_tids, leaf_points)
    ])
    tid_leaf = {entry.tid: leaf for leaf in nodes for entry in leaf.entries}
    # ``_points`` keeps the callers' tid order over the leaves' own objects:
    # row i of ``coords`` is leaf row ``position[i]``.
    position = np.empty_like(order)
    position[order] = np.arange(len(order))
    at = position.tolist()
    points = dict(
        zip(map(leaf_tids.__getitem__, at), map(leaf_points.__getitem__, at))
    )
    level = 0
    while len(nodes) > 1:
        starts = np.cumsum([0] + sizes[:-1])
        lows = np.minimum.reduceat(lows, starts)
        highs = np.maximum.reduceat(highs, starts)
        order, sizes = _str_order((lows + highs) / 2.0, capacity)
        lows, highs = lows[order], highs[order]
        level += 1
        nodes = _build_level(tree, level, sizes, [
            Entry(Rect.trusted(tuple(lo), tuple(hi)), child=nodes[i])
            for i, lo, hi in zip(order.tolist(), lows.tolist(), highs.tolist())
        ])
        for node in nodes:
            for entry in node.entries:
                entry.child.parent = node

    tree._adopt_bulk(nodes[0], points, tid_leaf)
    return tree
