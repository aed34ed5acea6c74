"""ChooseLeaf (``RTree._choose_node``) against the ``Rect``-based descent it
replaced, on grids built to tie: equal enlargements, zero-area boxes,
duplicate points, coordinates of both zero signs, and products that round
differently in another order.  Also the insert's upward box growth against
re-unioning every child."""

import itertools
import random

import pytest

from repro.rtree import rtree as rtree_module
from repro.rtree.geometry import Rect
from repro.rtree.rtree import RTree


def reference_choose_node(tree, mbr, target_level):
    """Guttman's ChooseLeaf through ``Rect``: least enlargement, then least
    area, the first such child on a full tie."""
    node = tree.root
    while node.level > target_level:
        best = None
        for _, entry in node.live_entries():
            key = (entry.mbr.enlargement(mbr), entry.mbr.area(), entry.child)
            if best is None or key[:2] < best[:2]:
                best = key
        node = best[2]
    return node


#: Per grid: the values each coordinate takes, and the dimensionality.
GRIDS = {
    "integer": ([0.0, 1.0, 2.0, 3.0], 2),
    "flat": ([0.0, 0.0, 0.0, 1.0, 2.0], 2),  # most boxes have zero area
    "signed_zero": ([-1.0, -0.0, 0.0, 1.0], 2),
    "cube": ([0.0, 1.0, 2.0], 3),
    "inexact": ([0.1, 1 / 3, 0.7, 2.9], 3),  # products that round
}


def grid_points(grid, n, seed):
    """``n`` points drawn from the grid, each of them twice."""
    values, dims = GRIDS[grid]
    rng = random.Random(seed)
    drawn = [tuple(rng.choice(values) for _ in range(dims)) for _ in range(n)]
    return [point for point in drawn for _ in range(2)]


def grid_boxes(grid, seed, count=30):
    """Boxes spanned by two grid points, zero-width sides included."""
    values, dims = GRIDS[grid]
    rng = random.Random(seed)
    boxes = []
    for _ in range(count):
        sides = [sorted((rng.choice(values), rng.choice(values))) for _ in range(dims)]
        boxes.append(Rect([lo for lo, _ in sides], [hi for _, hi in sides]))
    return boxes


@pytest.mark.parametrize("grid", sorted(GRIDS))
def test_choose_node_matches_the_rect_reference_on_tie_heavy_grids(grid):
    dims = GRIDS[grid][1]
    tree = RTree(dims=dims, max_entries=4, min_entries=2)
    boxes = grid_boxes(grid, seed=1)
    for tid, point in enumerate(grid_points(grid, 60, seed=0)):
        probe = Rect.from_point(point)
        for level in range(tree.root.level + 1):
            for mbr in [probe, *boxes[tid % 5 :: 5]]:
                assert tree._choose_node(mbr, level) is reference_choose_node(
                    tree, mbr, level
                )
        tree.insert(tid, point)
    assert tree.root.level >= 2


def shape(tree):
    """Every node's slots as text — ``repr`` tells ``-0.0`` from ``0.0``."""
    return [
        [(slot, repr((e.mbr, e.tid))) for slot, e in node.live_entries()]
        for node in tree.nodes()
    ]


def build(ops, dims):
    tree = RTree(dims=dims, max_entries=4, min_entries=2)
    for op, tid, point in ops:
        if op == "insert":
            tree.insert(tid, point)
        elif op == "update":
            tree.update(tid, point)
        else:
            tree.delete(tid)
    return tree


@pytest.mark.parametrize("grid", sorted(GRIDS))
def test_a_tree_grown_either_way_is_the_same_tree(grid, monkeypatch):
    """Inserts, updates and deletes (whose condensing re-inserts whole
    subtrees at inner levels) shape the same tree with either descent."""
    dims = GRIDS[grid][1]
    points = grid_points(grid, 50, seed=2)
    rng = random.Random(3)
    ops = [("insert", tid, point) for tid, point in enumerate(points)]
    live = list(range(len(points)))
    for tid in rng.sample(live, 40):
        ops.append(("delete", tid, None))
        live.remove(tid)
    for tid, point in zip(rng.sample(live, 20), itertools.cycle(points[::3])):
        ops.append(("update", tid, point))
    ours = build(ops, dims)
    monkeypatch.setattr(rtree_module.RTree, "_choose_node", reference_choose_node)
    theirs = build(ops, dims)
    assert ours.all_paths() == theirs.all_paths()
    assert shape(ours) == shape(theirs)


@pytest.mark.parametrize("grid", sorted(GRIDS))
def test_an_insert_grows_ancestor_boxes_to_the_union_of_their_children(
    grid, monkeypatch
):
    """Growing each ancestor's entry by the inserted box stores the very
    floats that re-unioning every live child stores — on the signed-zero
    grid this stream has a tie between ``-0.0`` and ``0.0`` that only the
    re-union settles."""
    dims = GRIDS[grid][1]
    points = grid_points(grid, 50, seed=0)
    rng = random.Random(2)
    ops = [("insert", tid, point) for tid, point in enumerate(points)]
    for tid in rng.sample(range(len(points)), 40):
        ops.append(("delete", tid, None))
    ops += [("insert", len(points) + i, p) for i, p in enumerate(points[::4])]
    ours = build(ops, dims)
    real = rtree_module.RTree._adjust_upward
    monkeypatch.setattr(
        rtree_module.RTree,
        "_adjust_upward",
        lambda tree, node, added=None: real(tree, node),
    )
    theirs = build(ops, dims)
    assert shape(ours) == shape(theirs)
