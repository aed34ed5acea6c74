"""Sort-Tile-Recursive bulk loading.

Benchmarks build R-trees over up to ~10^5 points; loading them by repeated
insertion is the paper-faithful *construction cost* (Figure 5 measures it),
but every other experiment only needs a good tree fast.  STR packs leaves by
recursive sort-and-tile and then packs each upper level the same way.
"""

from __future__ import annotations

import math
from typing import Sequence

from repro.rtree.geometry import Point, Rect
from repro.rtree.node import Entry, RTreeNode
from repro.rtree.rtree import RTree


def _tile(
    items: list,
    key_point,
    dims: int,
    capacity: int,
    dim: int = 0,
) -> list[list]:
    """Recursively tile ``items`` into groups of at most ``capacity``.

    Final-dimension chunking distributes items *evenly* across the chunk
    count rather than greedily: greedy chunking can strand a near-empty
    last group (91 items at capacity 45 → 45, 45, 1), which would violate
    the R-tree's minimum-fill invariant and break later deletions.
    """
    if len(items) <= capacity:
        return [items]
    if dim >= dims - 1:
        items = sorted(items, key=lambda it: key_point(it)[dims - 1])
        n_chunks = math.ceil(len(items) / capacity)
        base, extra = divmod(len(items), n_chunks)
        groups = []
        start = 0
        for i in range(n_chunks):
            size = base + 1 if i < extra else base
            groups.append(items[start : start + size])
            start += size
        return groups
    n_groups = math.ceil(len(items) / capacity)
    remaining = dims - dim
    n_slabs = max(1, math.ceil(n_groups ** (1.0 / remaining)))
    slab_size = math.ceil(len(items) / n_slabs)
    items = sorted(items, key=lambda it: key_point(it)[dim])
    groups: list[list] = []
    for start in range(0, len(items), slab_size):
        slab = items[start : start + slab_size]
        groups.extend(_tile(slab, key_point, dims, capacity, dim + 1))
    return groups


def bulk_load(
    points: Sequence[tuple[int, Sequence[float]]],
    dims: int,
    max_entries: int = 50,
    fill_factor: float = 0.9,
    disk=None,
    tag: str = "rtree",
    **tree_kwargs,
) -> RTree:
    """Build an :class:`RTree` over ``(tid, point)`` pairs with STR packing.

    Args:
        points: The tuples to index; tids must be unique.
        dims: Point dimensionality.
        max_entries: Node capacity ``M``.
        fill_factor: Target fraction of ``M`` used per packed node.
        disk, tag, **tree_kwargs: Forwarded to :class:`RTree`.

    Returns:
        A fully wired tree (pages allocated, tuple paths computed).
    """
    tree = RTree(
        dims=dims, max_entries=max_entries, disk=disk, tag=tag, **tree_kwargs
    )
    if not points:
        return tree
    # Packed nodes must stay splittable into two legal halves (even
    # chunking yields groups of at least capacity/2 entries).
    capacity = min(
        max_entries,
        max(2 * tree.min_entries, round(max_entries * fill_factor)),
    )
    point_map: dict[int, Point] = {}
    for tid, coords in points:
        if tid in point_map:
            raise ValueError(f"duplicate tid {tid}")
        if len(coords) != dims:
            raise ValueError(f"point for tid {tid} has {len(coords)} dims, expected {dims}")
        point_map[tid] = tuple(float(v) for v in coords)

    # One level at a time, leaves first.  An item is (the point the tiling
    # sorts by, the entry's MBR, the tid or child node the entry holds), so
    # each node's MBR is taken once.
    tid_leaf: dict[int, RTreeNode] = {}
    items = [(p, Rect.from_point(p), tid) for tid, p in point_map.items()]
    level = 0
    while True:
        nodes: list[RTreeNode] = []
        for group in _tile(items, lambda item: item[0], dims, capacity):
            node = tree._new_node(level=level)
            for _, box, held in group:
                if level:
                    node.add_entry(Entry(box, child=held))
                else:
                    node.add_entry(Entry(box, tid=held))
                    tid_leaf[held] = node
            tree._sync_page(node)
            nodes.append(node)
        if len(nodes) == 1:
            break
        boxes = [node.mbr() for node in nodes]
        items = [(box.center(), box, node) for box, node in zip(boxes, nodes)]
        level += 1

    tree._adopt_bulk(nodes[0], point_map, tid_leaf)
    return tree
