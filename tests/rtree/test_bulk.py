"""STR bulk loading."""

import math
import random

import numpy as np
import pytest

from repro.rtree.bulk import _str_order, bulk_load
from repro.rtree.geometry import Rect
from repro.rtree.node import tuple_path

from tests.reference import range_search
from tests.rtree.test_rtree import check_invariants, random_points


def test_bulk_load_empty():
    tree = bulk_load([], dims=2, max_entries=4)
    assert len(tree) == 0
    assert tree.height() == 1


def test_bulk_load_single():
    tree = bulk_load([(3, (0.5, 0.5))], dims=2, max_entries=4)
    assert len(tree) == 1
    assert tree.path_of(3) == (1,)


def test_bulk_load_structure_and_paths():
    points = random_points(500, seed=9)
    tree = bulk_load(points, dims=2, max_entries=8)
    assert len(tree) == 500
    check_invariants(tree)
    for tid, point in points:
        assert tree.point_of(tid) == point
        assert tree.path_of(tid) == tuple_path(tree.leaf_of(tid), tid)


def test_bulk_load_range_search_agrees():
    points = random_points(400, seed=21)
    tree = bulk_load(points, dims=2, max_entries=8)
    query = Rect((0.1, 0.1), (0.4, 0.8))
    expected = sorted(
        t for t, p in points
        if all(lo <= v <= hi for lo, v, hi in zip(query.lows, p, query.highs))
    )
    assert sorted(range_search(tree, query)) == expected


def test_bulk_load_is_packed():
    """STR should produce far fewer nodes than one-at-a-time insertion."""
    points = random_points(1000, seed=4)
    bulk = bulk_load(points, dims=2, max_entries=16, fill_factor=0.9)
    # ~1000/14 leaves plus a thin upper structure.
    assert bulk.node_count() <= 1000 / (16 * 0.9 * 0.8)


def test_bulk_load_duplicate_tid_rejected():
    with pytest.raises(ValueError):
        bulk_load([(1, (0, 0)), (1, (1, 1))], dims=2, max_entries=4)


def test_bulk_load_dim_mismatch_rejected():
    with pytest.raises(ValueError):
        bulk_load([(1, (0, 0, 0))], dims=2, max_entries=4)


def test_bulk_load_supports_dynamic_inserts_afterwards():
    points = random_points(200, seed=30)
    tree = bulk_load(points, dims=2, max_entries=8)
    rng = random.Random(31)
    for tid in range(200, 260):
        tree.insert(tid, (rng.random(), rng.random()))
    check_invariants(tree)
    assert len(tree) == 260


@pytest.mark.parametrize("n", [91, 46, 101, 137, 405])
def test_bulk_load_never_strands_small_leaves(n):
    """Regression: greedy chunking stranded 1-entry leaves (91 items at
    capacity 45 → 45, 45, 1), breaking the min-fill invariant."""
    points = random_points(n, seed=n)
    tree = bulk_load(points, dims=2, max_entries=50, fill_factor=0.9)
    check_invariants(tree)


def test_bulk_load_then_delete_everything():
    """Deletions exercise underflow handling on packed nodes."""
    points = random_points(137, seed=1)
    tree = bulk_load(points, dims=2, max_entries=8)
    rng = random.Random(2)
    order = [tid for tid, _ in points]
    rng.shuffle(order)
    for tid in order:
        tree.delete(tid)
        if len(tree) > 0:
            check_invariants(tree)
    assert len(tree) == 0


def test_bulk_load_3d():
    rng = random.Random(55)
    points = [
        (tid, (rng.random(), rng.random(), rng.random())) for tid in range(300)
    ]
    tree = bulk_load(points, dims=3, max_entries=8)
    check_invariants(tree)
    assert len(tree) == 300


def reference_tile(items, key, dims, capacity, dim=0):
    """The per-item STR tiler the loader's array tiling replaced: Python's
    stable ``sorted`` per dimension, slabs, even final chunks."""
    if len(items) <= capacity:
        return [items]
    if dim >= dims - 1:
        items = sorted(items, key=lambda it: key(it)[dims - 1])
        n_chunks = math.ceil(len(items) / capacity)
        base, extra = divmod(len(items), n_chunks)
        groups, start = [], 0
        for i in range(n_chunks):
            size = base + 1 if i < extra else base
            groups.append(items[start : start + size])
            start += size
        return groups
    n_groups = math.ceil(len(items) / capacity)
    n_slabs = max(1, math.ceil(n_groups ** (1.0 / (dims - dim))))
    slab_size = math.ceil(len(items) / n_slabs)
    items = sorted(items, key=lambda it: key(it)[dim])
    groups = []
    for start in range(0, len(items), slab_size):
        groups.extend(reference_tile(items[start : start + slab_size], key, dims, capacity, dim + 1))
    return groups


@pytest.mark.parametrize("dims", [1, 2, 3, 4])
@pytest.mark.parametrize("capacity", [2, 7, 58])
def test_array_tiling_makes_the_reference_groups_ties_included(dims, capacity):
    """Coordinates drawn from four values, so most keys tie: a stable
    ``argsort`` must keep them in the order the reference's ``sorted``
    keeps them, group for group."""
    rng = np.random.default_rng(dims * 100 + capacity)
    for n in (1, capacity, capacity + 1, 3 * capacity + 2, 613):
        keys = rng.integers(0, 4, (n, dims)) / 4.0
        order, sizes = _str_order(keys, capacity)
        groups = np.split(order, np.cumsum(sizes)[:-1])
        expected = reference_tile(list(range(n)), keys.__getitem__, dims, capacity)
        assert [group.tolist() for group in groups] == expected


def test_every_node_box_is_its_entries_union():
    points = random_points(700, seed=12)
    tree = bulk_load(points, dims=2, max_entries=8)
    for node in tree.nodes():
        for _, entry in node.live_entries():
            if entry.child is not None:
                assert entry.mbr == entry.child.mbr()


def test_non_finite_coordinates_rejected():
    with pytest.raises(ValueError, match="finite"):
        bulk_load([(1, (0.0, float("nan"))), (2, (1.0, 1.0))], dims=2, max_entries=4)
