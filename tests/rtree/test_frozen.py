"""Frozen snapshots: equal to a from-scratch freeze, built along the
changed paths only, sharing everything else with the previous snapshot."""

import random

import numpy as np
import pytest

from repro.rtree.bulk import bulk_load
from repro.rtree.frozen import FrozenRNode, freeze
from repro.rtree.node import RTreeNode
from repro.rtree.rtree import RTree
from repro.storage.disk import SimulatedDisk


class WriteLoggingDisk(SimulatedDisk):
    """Remembers which pages were allocated or written — the test's own
    record of what an operation touched, independent of the tree's."""

    def __init__(self) -> None:
        super().__init__()
        self.written: set[int] = set()

    def allocate(self, tag, size=None, payload=None):
        page_id = super().allocate(tag, size, payload)
        self.written.add(page_id)
        return page_id

    def write(self, page_id, payload, size=None):
        super().write(page_id, payload, size)
        self.written.add(page_id)


def frozen_nodes(root):
    nodes = {}
    stack = [root]
    while stack:
        node = stack.pop()
        nodes[node.node_id] = node
        if not node.is_leaf:
            stack.extend(entry.child for _, entry in node.live_entries())
    return nodes


def same_subtree(a, b):
    """Node-for-node equality: ids, page ids, levels, slots, MBRs, tids."""
    if (a.node_id, a.page_id, a.level) != (b.node_id, b.page_id, b.level):
        return False
    slots_a, slots_b = list(a.live_entries()), list(b.live_entries())
    if len(slots_a) != len(slots_b):
        return False
    for (slot_a, entry_a), (slot_b, entry_b) in zip(slots_a, slots_b):
        if (slot_a, entry_a.mbr, entry_a.tid) != (slot_b, entry_b.mbr, entry_b.tid):
            return False
        if (entry_a.child is None) != (entry_b.child is None):
            return False
        if entry_a.child is not None and not same_subtree(
            entry_a.child, entry_b.child
        ):
            return False
    return True


def leaf_slots(root):
    """Every leaf slot's ``(tid, lows, highs)`` as plain values."""
    return sorted(
        (node_id, slot, entry.tid, entry.mbr.lows, entry.mbr.highs)
        for node_id, node in frozen_nodes(root).items()
        if node.is_leaf
        for slot, entry in node.live_entries()
    )


def subtree_pages(node, memo):
    pages = memo.get(node.node_id)
    if pages is None:
        pages = {node.page_id}
        if not node.is_leaf:
            for _, entry in node.live_entries():
                pages |= subtree_pages(entry.child, memo)
        memo[node.node_id] = pages
    return pages


@pytest.fixture
def count_built(monkeypatch):
    """How many ``FrozenRNode``s were constructed since the last reset."""
    built = [0]
    real_init = FrozenRNode.__init__

    def counting_init(self, *args, **kwargs):
        built[0] += 1
        real_init(self, *args, **kwargs)

    monkeypatch.setattr(FrozenRNode, "__init__", counting_init)
    return built


def test_incremental_freeze_equals_from_scratch_and_shares_the_rest(
    count_built,
):
    """Inserts, deletes and updates on a fanout-4 tree: node splits, root
    growth and shrinkage, condense-tree re-insertions.  Frozen leaves share the live tree's entries, so a
    snapshot pinned early must still read every leaf slot as it was."""
    rng = random.Random(3)
    disk = WriteLoggingDisk()
    tree = RTree(dims=2, max_entries=4, disk=disk)
    previous = freeze(tree)
    live: list[int] = []
    next_tid = 0
    heights = set()
    for step in range(700):
        disk.written.clear()
        action = rng.random()
        if action < 0.5 or len(live) < 5:
            tree.insert(next_tid, (rng.random(), rng.random()))
            live.append(next_tid)
            next_tid += 1
        elif action < 0.8:
            tree.delete(live.pop(rng.randrange(len(live))))
        else:
            tree.update(rng.choice(live), (rng.random(), rng.random()))
        heights.add(tree.root.level)

        count_built[0] = 0
        snapshot = freeze(tree, previous)
        built = count_built[0]
        assert not tree._touched_nodes
        from_scratch = freeze(tree, None)
        assert same_subtree(snapshot.root, from_scratch.root), step
        if tree.root.live_count():
            assert snapshot.root.mbr() == from_scratch.root.mbr() == tree.root.mbr()
        if step == 40:
            pinned, pinned_slots = snapshot, leaf_slots(snapshot.root)
        assert len(frozen_nodes(snapshot.root)) == tree.node_count()
        assert len(snapshot) == len(tree)

        before, after = frozen_nodes(previous.root), frozen_nodes(snapshot.root)
        memo: dict = {}
        shared = 0
        for node_id, node in after.items():
            if node is before.get(node_id):
                shared += 1
                assert same_subtree(node, before[node_id])
            elif node_id in before and not (
                subtree_pages(node, memo) & disk.written
            ):
                # No page under it was written: it must not have been rebuilt.
                pytest.fail(f"step {step}: node #{node_id} rebuilt needlessly")
        assert built == len(after) - shared
        # Every rebuilt node is a written node or the ancestor of one.
        for node_id, node in after.items():
            if node is not before.get(node_id):
                assert subtree_pages(node, memo) & disk.written, (step, node_id)
        previous = snapshot
    assert len(heights) > 2  # the root grew and shrank along the way
    assert leaf_slots(pinned.root) == pinned_slots


def test_a_single_tuple_write_builds_its_paths_not_the_tree(
    count_built, monkeypatch
):
    visits = [0]
    for cls in (RTreeNode, FrozenRNode):
        real = cls.live_entries

        def counting(self, real=real):
            visits[0] += 1
            return real(self)

        monkeypatch.setattr(cls, "live_entries", counting)
    rng = random.Random(9)
    points = [(tid, (rng.random(), rng.random())) for tid in range(4000)]
    disk = WriteLoggingDisk()
    tree = bulk_load(points, dims=2, max_entries=8, disk=disk)
    previous = freeze(tree)
    assert len(frozen_nodes(previous.root)) > 500
    next_tid = len(points)
    for _ in range(60):
        disk.written.clear()
        if rng.random() < 0.5:
            tree.insert(next_tid, (rng.random(), rng.random()))
            next_tid += 1
        else:
            victim = rng.choice(sorted(tree.all_paths()))
            tree.delete(victim)
        count_built[0] = visits[0] = 0
        snapshot = freeze(tree, previous)
        # Walked: each rebuilt live node once, and at most as many nodes of
        # the previous snapshot (to find the neighbours to share) — not the
        # whole tree, and no per-snapshot node index.
        assert visits[0] <= 2 * count_built[0]
        assert count_built[0] <= (tree.root.level + 1) * len(disk.written)
        if len(disk.written) == 1:
            # The common write: one leaf page, one root-to-leaf path.
            assert count_built[0] == tree.root.level + 1
        assert count_built[0] < 40
        previous = snapshot


def test_shared_subtrees_keep_their_cached_blocks():
    rng = random.Random(4)
    points = [(tid, (rng.random(), rng.random())) for tid in range(600)]
    tree = bulk_load(points, dims=2, max_entries=6)
    previous = freeze(tree)
    blocks = {
        node_id: node.block()
        for node_id, node in frozen_nodes(previous.root).items()
    }
    tree.insert(600, (0.5, 0.5))
    snapshot = freeze(tree, previous)
    kept = 0
    for node_id, node in frozen_nodes(snapshot.root).items():
        if node._block is not None:
            assert node._block is blocks[node_id]
            kept += 1
    assert kept == len(frozen_nodes(snapshot.root)) - (tree.root.level + 1)
    # The older snapshot is untouched: same nodes, same blocks.
    assert all(
        node._block is blocks[node_id]
        for node_id, node in frozen_nodes(previous.root).items()
    )


def test_mbr_preserving_leaf_update_is_picked_up():
    """The leaf's MBR does not move, so no ancestor page is rewritten — the
    new snapshot must still lead to the new leaf."""
    disk = WriteLoggingDisk()
    tree = RTree(dims=2, max_entries=4, disk=disk)
    rng = random.Random(1)
    for tid in range(60):
        tree.insert(tid, (rng.random(), rng.random()))
    previous = freeze(tree)
    for tid in range(60, 200):
        disk.written.clear()
        point = (rng.random(), rng.random())
        tree.insert(tid, point)
        if len(disk.written) == 1 and tree.root.level > 1:
            break
        previous = freeze(tree, previous)
    else:
        pytest.fail("no insert left its leaf's MBR unchanged")
    snapshot = freeze(tree, previous)
    assert snapshot.all_paths()[tid] == tree.all_paths()[tid]
    assert snapshot.entry_at(tree.all_paths()[tid]).tid == tid
    assert tid not in previous.all_paths()
    assert same_subtree(snapshot.root, freeze(tree, None).root)


def test_generation_bump_refuses_sharing(count_built):
    rng = random.Random(2)
    points = [(tid, (rng.random(), rng.random())) for tid in range(300)]
    tree = bulk_load(points, dims=2, max_entries=6)
    previous = freeze(tree)
    tree.reset(np.arange(300), np.array([point for _, point in points]))
    count_built[0] = 0
    snapshot = freeze(tree, previous)
    assert count_built[0] == len(frozen_nodes(snapshot.root)) == tree.node_count()
    old = {id(node) for node in frozen_nodes(previous.root).values()}
    assert not old & {id(node) for node in frozen_nodes(snapshot.root).values()}
    assert snapshot.generation > previous.generation
    # Bulk adoption re-minted the ids once already, before the first freeze.
    assert previous.generation == 1
