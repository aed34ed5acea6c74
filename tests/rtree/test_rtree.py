"""Dynamic R-tree behaviour: structure, search, path-change tracking."""

import random

import pytest

from repro.rtree.geometry import Rect
from repro.rtree.rtree import RTree, fanout_for_page
from repro.rtree.frozen import freeze

from tests.reference import range_search, subtree_tids


def check_invariants(tree: RTree) -> None:
    """Structural invariants every mutation must preserve."""
    seen_tids = []
    stack = [(tree.root, None)]
    while stack:
        node, parent = stack.pop()
        if parent is not None:
            assert node.parent is parent
            # Parent entry MBR covers the child's actual MBR.
            slot = parent.slot_of_child(node)
            covering = parent.entries[slot].mbr
            assert covering.union(node.mbr()) == covering
            assert node.live_count() >= tree.min_entries
        assert node.live_count() <= tree.max_entries
        assert len(node.tids if node.is_leaf else node.entries) <= tree.max_entries
        for _, entry in node.live_entries():
            if node.is_leaf:
                assert entry.tid is not None
                seen_tids.append(entry.tid)
                assert tree._tid_leaf[entry.tid] is node
            else:
                assert entry.child is not None
                assert entry.child.level == node.level - 1
                stack.append((entry.child, node))
    assert len(seen_tids) == len(set(seen_tids)) == len(tree)
    assert all(tid in tree for tid in seen_tids)
    # Path map agrees with the actual structure.
    paths = tree.all_paths()
    assert sorted(paths) == sorted(seen_tids)
    frozen = freeze(tree)
    for tid, path in paths.items():
        assert frozen.entry_at(path).tid == tid


@pytest.fixture
def tree():
    return RTree(dims=2, max_entries=4, min_entries=2)


def random_points(n, seed=0):
    rng = random.Random(seed)
    return [(tid, (rng.random(), rng.random())) for tid in range(n)]


def test_fanout_for_page_matches_paper_orders():
    # Paper quotes M = 204 for 2-D and ~94 for 5-D at 4 KB pages.
    assert fanout_for_page(4096, 2) == 204
    assert 88 <= fanout_for_page(4096, 5) <= 96
    assert fanout_for_page(64, 10) == 4  # floor


def test_empty_tree(tree):
    assert len(tree) == 0
    assert tree.root.level == 0


def test_single_insert_reports_its_own_path(tree):
    changes = tree.insert(7, (0.5, 0.5))
    assert len(changes) == 1
    assert changes[0].tid == 7
    assert changes[0].old_path is None
    assert changes[0].new_path == (1,)
    assert tree.all_paths()[7] == (1,)


def test_duplicate_tid_rejected(tree):
    tree.insert(1, (0.1, 0.1))
    with pytest.raises(KeyError):
        tree.insert(1, (0.2, 0.2))


def test_wrong_dimensionality_rejected(tree):
    with pytest.raises(ValueError):
        tree.insert(1, (0.1, 0.2, 0.3))


def test_inserts_without_split_do_not_move_others(tree):
    tree.insert(0, (0.1, 0.1))
    tree.insert(1, (0.2, 0.2))
    changes = tree.insert(2, (0.3, 0.3))
    assert [c.tid for c in changes] == [2]


def test_split_reports_moved_tuples(tree):
    for tid in range(4):
        tree.insert(tid, (tid / 10, tid / 10))
    changes = tree.insert(4, (0.9, 0.9))  # forces the first leaf split
    changed_tids = {c.tid for c in changes}
    assert 4 in changed_tids
    # The split redistributed the original tuples: every change record is
    # consistent with the tree's current state.
    for change in changes:
        assert change.new_path == tree.all_paths()[change.tid]
    check_invariants(tree)
    assert tree.root.level == 1


def test_invariants_after_many_inserts():
    tree = RTree(dims=2, max_entries=4, min_entries=2)
    for tid, point in random_points(300, seed=42):
        tree.insert(tid, point)
    check_invariants(tree)
    assert len(tree) == 300
    assert tree.root.level >= 2


def test_change_records_are_exact():
    """After every insert, replaying the change records over a shadow path
    map must reproduce the tree's own path map exactly."""
    tree = RTree(dims=2, max_entries=4, min_entries=2)
    shadow: dict[int, tuple] = {}
    for tid, point in random_points(200, seed=3):
        for change in tree.insert(tid, point):
            if change.new_path is None:
                del shadow[change.tid]
            else:
                shadow[change.tid] = change.new_path
        assert shadow == tree.all_paths(), f"diverged after inserting {tid}"


def test_range_search_matches_linear_scan():
    tree = RTree(dims=2, max_entries=4, min_entries=2)
    points = random_points(250, seed=8)
    for tid, point in points:
        tree.insert(tid, point)
    query = Rect((0.2, 0.3), (0.6, 0.9))
    expected = sorted(
        tid for tid, p in points
        if all(lo <= v <= hi for lo, v, hi in zip(query.lows, p, query.highs))
    )
    assert sorted(range_search(tree, query)) == expected


def test_delete_simple(tree):
    tree.insert(0, (0.1, 0.1))
    tree.insert(1, (0.2, 0.2))
    tree.insert(2, (0.3, 0.3))
    changes = tree.delete(1)
    assert any(c.tid == 1 and c.new_path is None for c in changes)
    assert len(tree) == 2
    with pytest.raises(KeyError):
        tree.delete(1)
    check_invariants(tree)


def test_delete_with_condensation():
    tree = RTree(dims=2, max_entries=4, min_entries=2)
    points = random_points(120, seed=5)
    for tid, point in points:
        tree.insert(tid, point)
    rng = random.Random(6)
    alive = dict(points)
    for tid in rng.sample(list(alive), 90):
        changes = tree.delete(tid)
        del alive[tid]
        for change in changes:
            if change.new_path is not None:
                assert tree.all_paths()[change.tid] == change.new_path
        check_invariants(tree)
    assert sorted(tree.all_paths()) == sorted(alive)


def test_a_delete_that_underflows_nothing_fixes_the_boxes_in_one_walk(
    monkeypatch,
):
    """CondenseTree stops at the first node that keeps enough entries:
    nothing above it lost an entry, and one upward walk fixes every box."""
    tree = RTree(dims=2, max_entries=4, min_entries=1)
    for tid, point in random_points(120, seed=5):
        tree.insert(tid, point)
    assert tree.root.level >= 2
    tid = next(
        entry.tid
        for leaf in tree.nodes()
        if leaf.is_leaf and leaf.live_count() > tree.min_entries
        for _, entry in leaf.live_entries()
    )
    walks = []
    real = RTree._adjust_upward
    monkeypatch.setattr(
        RTree,
        "_adjust_upward",
        lambda self, node, *added: walks.append(node) or real(self, node, *added),
    )
    tree.delete(tid)
    assert len(walks) == 1 and walks[0].is_leaf
    check_invariants(tree)


def test_delete_everything():
    tree = RTree(dims=2, max_entries=4, min_entries=2)
    for tid, point in random_points(50, seed=13):
        tree.insert(tid, point)
    for tid in range(50):
        tree.delete(tid)
    assert len(tree) == 0
    assert tree.root.level == 0


def test_update_moves_point(tree):
    for tid, point in random_points(30, seed=2):
        tree.insert(tid, point)
    changes = tree.update(5, (0.99, 0.99))
    assert freeze(tree).entry_at(tree.all_paths()[5]).mbr.lows == (0.99, 0.99)
    assert any(c.tid == 5 for c in changes)
    check_invariants(tree)


def test_disk_pages_track_nodes():
    tree = RTree(dims=2, max_entries=4, min_entries=2)
    for tid, point in random_points(100, seed=1):
        tree.insert(tid, point)
    live_nodes = list(tree.nodes())
    assert len(list(tree.disk.pages("rtree"))) == len(live_nodes)
    for node in live_nodes:
        assert tree.disk.peek(node.page_id).payload is node


def test_root_split_changes_all_paths(tree):
    # Fill one leaf (the root), then overflow it: every tuple's path gains
    # a leading component.
    for tid in range(4):
        tree.insert(tid, (tid / 10, 0.5))
    old_paths = tree.all_paths()
    assert all(len(p) == 1 for p in old_paths.values())
    tree.insert(4, (0.9, 0.5))
    new_paths = tree.all_paths()
    assert all(len(p) == 2 for p in new_paths.values())


def test_min_entries_validation():
    with pytest.raises(ValueError):
        RTree(dims=2, max_entries=4, min_entries=3)  # > M/2
    with pytest.raises(ValueError):
        RTree(dims=2, max_entries=4, min_entries=0)


def test_subtree_tids_complete():
    tree = RTree(dims=2, max_entries=4, min_entries=2)
    for tid, point in random_points(64, seed=77):
        tree.insert(tid, point)
    assert sorted(subtree_tids(tree.root)) == list(range(64))
