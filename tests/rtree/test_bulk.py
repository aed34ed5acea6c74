"""STR bulk loading."""

import gc
import math
import os
import random
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.rtree.bulk import _str_order, bulk_load, bulk_load_columns
from repro.rtree.geometry import Rect
from repro.rtree.frozen import freeze
from repro.rtree.rtree import RTree

from tests.reference import range_search
from tests.rtree.test_rtree import check_invariants, random_points


def test_bulk_load_empty():
    tree = bulk_load([], dims=2, max_entries=4)
    assert len(tree) == 0
    assert tree.root.level == 0


def test_bulk_load_single():
    tree = bulk_load([(3, (0.5, 0.5))], dims=2, max_entries=4)
    assert len(tree) == 1
    assert tree.all_paths()[3] == (1,)


def test_bulk_load_structure_and_paths():
    points = random_points(500, seed=9)
    tree = bulk_load(points, dims=2, max_entries=8)
    assert len(tree) == 500
    check_invariants(tree)
    paths = tree.all_paths()
    frozen = freeze(tree)
    for tid, point in points:
        entry = frozen.entry_at(paths[tid])
        assert (entry.tid, entry.mbr.lows) == (tid, point)


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


def test_bulk_load_columns_rejects_a_vector_of_coordinates():
    with pytest.raises(ValueError, match="2-D"):
        bulk_load_columns(np.arange(4), np.zeros(4))


def test_bulk_load_columns_rejects_more_tids_than_rows():
    """Ten tids over eight rows used to build an eight-tuple tree and drop
    the last two tids without a word."""
    with pytest.raises(ValueError, match="10 tids for 8"):
        bulk_load_columns(np.arange(10), np.zeros((8, 2)), max_entries=4)


def _leaves_in_build_order(tree):
    return sorted(
        (node for node in tree.nodes() if node.is_leaf),
        key=lambda node: node.node_id,
    )


#: Run in a fresh interpreter: what is measured is the block's allocation
#: order, not the holes a thousand earlier tests left in the allocator's
#: pools.
_ADJACENCY_PROBE = """
import numpy as np
from repro.rtree.bulk import bulk_load_columns
from repro.rtree.frozen import freeze

n = 20_000
rng = np.random.default_rng(48)
coords = rng.random((n, 3))
tids = rng.permutation(n)
# Churn the size classes of point tuples and their floats: allocate a batch
# of such objects, then free two in three.
batch = [(float(i), i / 3.0, i / 7.0) for i in range(3 * n)]
batch += [[float(i)] * (i % 5) for i in range(3 * n)]
kept = batch[::3]
del batch
tree = bulk_load_columns(tids, coords, max_entries=64)
stack = [freeze(tree).root]
leaves = []
while stack:
    node = stack.pop()
    if node.is_leaf:
        leaves.append(node)
    else:
        stack.extend(entry.child for _, entry in node.live_entries())
near = pairs = 0
for leaf in leaves:
    points = leaf.block().low_tuples
    for a, b in zip(points, points[1:]):
        pairs += 1
        near += abs(id(a) - id(b)) <= 256
print(near, pairs)
"""


def test_a_leaf_scan_reads_adjacent_point_tuples():
    """A leaf's coordinates are one matrix in slot order, and its block
    makes the point tuples an expansion probes from it one after another,
    so consecutive probes sit side by side.

    On CPython ``id()`` is the object's address; two tuples within 256
    bytes are neighbours in the allocator's pools.  Allocating in tid order
    (the rows shuffled against the tiling) leaves almost none adjacent."""
    src = Path(repro.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src))
    done = subprocess.run(
        [sys.executable, "-c", _ADJACENCY_PROBE],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    near, pairs = map(int, done.stdout.split())
    assert near / pairs >= 0.9, f"{near} of {pairs} consecutive points adjacent"


def test_a_frozen_leaf_block_keeps_no_tracked_object_per_row():
    """A leaf's block is its live ``coords`` rows, one contiguous matrix in
    slot order, and their tuples; building every block leaves a block and
    its slot, tid and tuple lists to the collector, which untracks the
    tuples of floats once it has seen them."""
    rng = np.random.default_rng(48)
    tree = bulk_load_columns(
        rng.permutation(5_000), rng.random((5_000, 3)), max_entries=64
    )
    stack = [freeze(tree).root]
    leaves = []
    while stack:
        node = stack.pop()
        if node.is_leaf:
            leaves.append(node)
        else:
            stack.extend(entry.child for _, entry in node.live_entries())
    gc.collect()
    before = len(gc.get_objects())
    blocks = [leaf.block() for leaf in leaves]
    gc.collect()
    assert len(gc.get_objects()) - before <= 4 * len(leaves) + 1  # + blocks
    for leaf, block in zip(leaves, blocks):
        assert block.lows.flags.c_contiguous
        assert block.lows.tolist() == leaf.coords[leaf.live_slots()].tolist()
        assert block.low_tuples == list(map(tuple, block.lows.tolist()))


@settings(max_examples=60, deadline=None)
@given(
    dims=st.integers(2, 4),
    max_entries=st.integers(4, 9),
    multiple=st.integers(0, 6),
    offset=st.integers(-1, 1),
    values=st.integers(1, 4),
    seed=st.integers(0, 2**32 - 1),
)
def test_each_leaf_is_one_str_group_in_slot_order(
    dims, max_entries, multiple, offset, values, seed
):
    """Sizes below, at and above multiples of the capacity, coordinates
    from a few values (so rows repeat): the leaves, in the order they were
    built, are ``_str_order``'s groups, each entry holds its ``coords`` row
    as the tree's point, and each tid's path is its leaf's path plus its
    slot."""
    min_entries = RTree(dims=dims, max_entries=max_entries).min_entries
    capacity = min(max_entries, max(2 * min_entries, round(max_entries * 0.9)))
    n = max(1, multiple * capacity + offset)
    rng = np.random.default_rng(seed)
    coords = rng.integers(0, values, (n, dims)) / values
    tids = rng.permutation(3 * n)[:n]
    tree = bulk_load_columns(tids, coords, max_entries=max_entries)

    order, sizes = _str_order(coords, capacity)
    groups = [group.tolist() for group in np.split(tids[order], np.cumsum(sizes)[:-1])]
    leaves = _leaves_in_build_order(tree)
    assert [[entry.tid for _, entry in leaf.live_entries()] for leaf in leaves] == groups

    row_of = {tid: row for row, tid in enumerate(tids.tolist())}
    paths = tree.all_paths()
    for leaf in leaves:
        leaf_path = []
        node = leaf
        while node.parent is not None:
            slot = next(
                slot for slot, entry in node.parent.live_entries()
                if entry.child is node
            )
            leaf_path.insert(0, slot + 1)
            node = node.parent
        for slot, entry in leaf.live_entries():
            point = entry.mbr.lows
            assert point == tuple(coords[row_of[entry.tid]].tolist())
            assert tree._tid_leaf[entry.tid] is leaf
            assert paths[entry.tid] == (*leaf_path, slot + 1)
    assert sorted(paths) == sorted(tids.tolist())
