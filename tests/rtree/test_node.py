"""Node slot stability — the property signature maintenance relies on."""

import pytest

from repro.rtree.geometry import Rect
from repro.rtree.node import Entry, RTreeNode, tuple_path

from tests.reference import subtree_tids


def child_entry(node_id):
    """An inner node's entry for a fresh leaf child."""
    child = RTreeNode(node_id, 0, 4)
    child.add_point(node_id, (0.0, 0.0))
    return Entry(child.mbr(), child=child)


def test_entry_requires_exactly_one_payload():
    with pytest.raises(ValueError):
        Entry(Rect.from_point((0, 0)))
    with pytest.raises(ValueError):
        Entry(
            Rect.from_point((0, 0)),
            child=RTreeNode(0, 0, 4),
            tid=1,
        )


def test_add_point_appends_then_reuses_first_free_slot():
    node = RTreeNode(0, 0, capacity=4)
    slots = [node.add_point(t, (0.0, 0.0)) for t in range(3)]
    assert slots == [0, 1, 2]
    node.remove_slot(1)
    assert node.live_count() == 2
    # The paper: "when a new tuple is added, the first free entry is
    # assigned" — so tid 9 lands in slot 1, and slots 0/2 are untouched.
    assert node.add_point(9, (0.0, 0.0)) == 1
    assert node.slot_of_tid(9) == 1
    assert node.slot_of_tid(0) == 0
    assert node.slot_of_tid(2) == 2


def test_overflow_raises():
    node = RTreeNode(0, 0, capacity=2)
    node.add_point(0, (0.0, 0.0))
    node.add_point(1, (0.0, 0.0))
    assert node.is_full()
    with pytest.raises(OverflowError):
        node.add_point(2, (0.0, 0.0))
    inner = RTreeNode(9, 1, capacity=2)
    inner.add_entry(child_entry(1))
    inner.add_entry(child_entry(2))
    with pytest.raises(OverflowError):
        inner.add_entry(child_entry(3))


def test_remove_trailing_hole_is_trimmed():
    node = RTreeNode(9, 1, capacity=4)
    for t in range(3):
        node.add_entry(child_entry(t))
    node.remove_slot(2)
    assert len(node.entries) == 2  # trailing hole trimmed
    node.remove_slot(0)
    assert len(node.entries) == 2  # middle hole stays (slot stability)
    assert node.entries[0] is None
    assert node.add_entry(child_entry(5)) == 0  # the first free slot


def test_remove_free_slot_rejected():
    node = RTreeNode(0, 0, capacity=4)
    node.add_point(0, (0.0, 0.0))
    node.add_point(1, (0.0, 0.0))
    node.remove_slot(0)
    with pytest.raises(ValueError):
        node.remove_slot(0)


def test_live_entries_skips_holes():
    node = RTreeNode(0, 0, capacity=4)
    for t in range(4):
        node.add_point(t, (float(t), 0.0))
    node.remove_slot(1)
    live = list(node.live_entries())
    assert [slot for slot, _ in live] == [0, 2, 3]
    assert [(e.tid, e.mbr) for _, e in live] == [
        (t, Rect.from_point((float(t), 0.0))) for t in (0, 2, 3)
    ]


def test_mbr_covers_live_entries():
    node = RTreeNode(0, 0, capacity=4)
    node.add_point(0, (0.0, 0.0))
    node.add_point(1, (1.0, 2.0))
    assert node.mbr() == Rect((0, 0), (1, 2))


def test_mbr_of_empty_node_rejected():
    with pytest.raises(ValueError):
        RTreeNode(0, 0, 4).mbr()
    with pytest.raises(ValueError):
        RTreeNode(0, 1, 4).mbr()


def test_a_leaf_box_takes_each_bound_from_its_first_point():
    """As ``Rect.union_all`` over the points' boxes: a tie between ``0.0``
    and ``-0.0`` keeps the sign of the first in slot order."""
    node = RTreeNode(0, 0, capacity=4)
    for tid, point in enumerate([(0.0, -0.0), (-0.0, 0.0), (1.0, 1.0)]):
        node.add_point(tid, point)
    expected = Rect.union_all(e.mbr for _, e in node.live_entries())
    assert repr(node.mbr()) == repr(expected) == "Rect([0.0, -0.0], [1.0, 1.0])"


def test_paths_and_tuple_path():
    root = RTreeNode(0, 1, capacity=4)
    leaf_a = RTreeNode(1, 0, capacity=4)
    leaf_b = RTreeNode(2, 0, capacity=4)
    leaf_a.add_point(10, (0.0, 0.0))
    leaf_b.add_point(20, (0.0, 0.0))
    leaf_b.add_point(21, (0.0, 0.0))
    root.add_entry(Entry(leaf_a.mbr(), child=leaf_a))
    root.add_entry(Entry(leaf_b.mbr(), child=leaf_b))
    assert root.path() == ()
    assert leaf_a.path() == (1,)
    assert leaf_b.path() == (2,)
    assert tuple_path(leaf_a, 10) == (1, 1)
    assert tuple_path(leaf_b, 21) == (2, 2)
    assert sorted(subtree_tids(root)) == [10, 20, 21]


def test_slot_lookup_errors():
    node = RTreeNode(0, 0, capacity=4)
    node.add_point(5, (0.0, 0.0))
    with pytest.raises(ValueError):
        node.slot_of_tid(6)
    with pytest.raises(ValueError):
        node.slot_of_child(RTreeNode(9, 0, 4))


def test_capacity_minimum():
    with pytest.raises(ValueError):
        RTreeNode(0, 0, capacity=1)
