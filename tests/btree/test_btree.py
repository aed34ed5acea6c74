"""B+-tree: ordering, duplicates, counted access, hypothesis model check."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.btree.btree import _KEY_BYTES, _NODE_HEADER_BYTES, _POINTER_BYTES, BPlusTree
from repro.storage.buffer import BufferPool
from repro.storage.counters import ALLOC, BINDEX, BTREE, WRITE, IOCounters
from repro.storage.disk import SimulatedDisk
from repro.storage.errors import StorageFault
from repro.storage.faults import FaultPlan, FaultRule, FaultyDisk, SimulatedCrash


def test_empty_tree():
    tree = BPlusTree(order=4)
    assert len(tree) == 0
    assert tree.search(5) == []
    assert list(tree.items()) == []


def test_insert_and_search():
    tree = BPlusTree(order=4)
    tree.insert(3, "c")
    tree.insert(1, "a")
    tree.insert(2, "b")
    assert tree.search(1) == ["a"]
    assert tree.search(2) == ["b"]
    assert tree.search(4) == []


def test_duplicates_collected_across_leaves():
    tree = BPlusTree(order=4)
    for i in range(40):
        tree.insert(7, f"v{i}")
    for i in range(10):
        tree.insert(3, f"w{i}")
    assert sorted(tree.search(7)) == sorted(f"v{i}" for i in range(40))
    assert len(tree.search(3)) == 10


def test_items_sorted():
    tree = BPlusTree(order=4)
    keys = [9, 1, 5, 3, 7, 5, 2, 8]
    for key in keys:
        tree.insert(key, key * 10)
    assert [k for k, _ in tree.items()] == sorted(keys)


def test_distinct_keys():
    tree = BPlusTree(order=4)
    for key in [4, 2, 4, 2, 9]:
        tree.insert(key, None)
    assert list(tree.distinct_keys()) == [2, 4, 9]


def test_a_split_among_equal_separators_keeps_leaf_order():
    # Two leaves of 1s under separators [1, 1]; the 0s split the left one,
    # and its new sibling must sit next to it, not after the other 1s.
    tree = BPlusTree(order=5)
    tree.bulk_insert((key, None) for key in [1, 1, 1, 1, 1, 1, 0, 0, 0])
    tree.insert(2, None)
    assert [key for key, _ in tree.items()] == [0] * 3 + [1] * 6 + [2]
    assert list(tree.distinct_keys()) == [0, 1, 2]


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from([4, 5, 8]),
    st.lists(
        st.one_of(
            st.integers(0, 15),
            st.lists(st.integers(0, 15), max_size=40),
        ),
        max_size=30,
    ),
)
def test_the_distinct_key_count_follows_every_insert_stream(order, stream):
    """A single insert (an int) or a batch (a list), in any mix: the count
    the tree keeps is always the distinct keys its leaves hold."""
    tree = BPlusTree(order=order)
    for step in stream:
        if isinstance(step, list):
            tree.bulk_insert((key, None) for key in step)
        else:
            tree.insert(step, None)
        assert tree.n_distinct_keys == len(list(tree.distinct_keys()))


def test_range_scan_inclusive():
    tree = BPlusTree(order=4)
    for key in range(20):
        tree.insert(key, key)
    got = [k for k, _ in tree.range_scan(5, 11)]
    assert got == list(range(5, 12))


def test_range_scan_empty_range():
    tree = BPlusTree(order=4)
    for key in range(10):
        tree.insert(key, key)
    assert list(tree.range_scan(40, 50)) == []


def test_height_grows_logarithmically():
    tree = BPlusTree(order=8)
    for key in range(1000):
        tree.insert(key, key)
    assert 3 <= tree.height() <= 5


def test_tuple_keys():
    tree = BPlusTree(order=4)
    tree.insert(("cell", 3), "x")
    tree.insert(("cell", 1), "y")
    tree.insert(("aaaa", 9), "z")
    assert tree.search(("cell", 1)) == ["y"]
    assert [k for k, _ in tree.items()] == [("aaaa", 9), ("cell", 1), ("cell", 3)]


def test_search_counts_page_reads():
    disk = SimulatedDisk()
    tree = BPlusTree(order=4, disk=disk, tag="bt")
    for key in range(200):
        tree.insert(key % 20, key)
    counters = IOCounters()
    tree.search(7, counters=counters, category=BINDEX)
    # At least the root-to-leaf path must be read.
    assert counters.get(BINDEX) >= tree.height()


def test_search_through_buffer_pool_dedupes():
    disk = SimulatedDisk()
    tree = BPlusTree(order=4, disk=disk, tag="bt")
    for key in range(100):
        tree.insert(key, key)
    pool = BufferPool(disk, capacity=128)
    counters = IOCounters()
    tree.search(30, pool=pool, counters=counters)
    first = counters.get(BTREE)
    tree.search(30, pool=pool, counters=counters)
    assert counters.get(BTREE) == first  # fully cached second time


def test_pages_accounted_on_disk():
    disk = SimulatedDisk()
    tree = BPlusTree(order=4, disk=disk, tag="bt")
    for key in range(300):
        tree.insert(key, key)
    assert len(list(disk.pages("bt"))) > 300 / 5
    assert disk.size_bytes("bt") > 0


def test_order_minimum():
    with pytest.raises(ValueError):
        BPlusTree(order=3)


def test_bulk_insert():
    tree = BPlusTree(order=16)
    tree.bulk_insert((i, i * i) for i in range(50))
    assert tree.search(7) == [49]


def tree_nodes(tree):
    """Every node, pre-order."""
    stack = [tree.root]
    while stack:
        node = stack.pop()
        yield node
        stack.extend(reversed(getattr(node, "children", ())))


def tree_shape(tree):
    """Node by node: kind, page id, keys, values / child page ids, leaf
    chain — and what the node's page holds (size, checksum)."""
    shape = []
    for node in tree_nodes(tree):
        page = tree.disk.peek(node.page_id)
        below = (
            [child.page_id for child in node.children]
            if hasattr(node, "children")
            else (list(node.values), node.next.page_id if node.next else None)
        )
        shape.append(
            (type(node).__name__, node.page_id, list(node.keys), below, page.size, page.checksum)
        )
    return shape


def assert_pages_hold_their_nodes(tree):
    for node in tree_nodes(tree):
        page = tree.disk.peek(node.page_id)
        assert page.payload is node
        assert page.size == _NODE_HEADER_BYTES + len(node.keys) * (
            _KEY_BYTES + _POINTER_BYTES
        )
        page.verify()


@settings(max_examples=60, deadline=None)
@given(
    st.integers(min_value=4, max_value=128),
    st.lists(
        st.tuples(st.integers(min_value=0, max_value=40), st.integers()),
        max_size=500,
    ),
)
def test_bulk_insert_is_the_same_inserts_with_one_write_per_node(order, pairs):
    """``bulk_insert`` ≡ one ``insert`` per pair — same nodes, keys, values,
    page ids, page sizes and checksums — and it writes each node it dirtied
    exactly once."""
    one_by_one = BPlusTree(order=order, disk=SimulatedDisk(), tag="bt")
    written: set[int] = set()
    real_write = one_by_one.disk.write

    def recording_write(page_id, payload, size=None):
        written.add(page_id)
        real_write(page_id, payload, size)

    one_by_one.disk.write = recording_write
    for key, value in pairs:
        one_by_one.insert(key, value)

    batched = BPlusTree(order=order, disk=SimulatedDisk(), tag="bt")
    before = batched.disk.write_counters.snapshot()
    batched.bulk_insert(iter(pairs))
    after = batched.disk.write_counters.snapshot()

    assert tree_shape(batched) == tree_shape(one_by_one)
    assert list(batched.items()) == list(one_by_one.items())
    assert len(batched) == len(one_by_one) == len(pairs)
    assert after.get(WRITE, 0) - before.get(WRITE, 0) == len(written)
    assert after.get(ALLOC, 0) - before.get(ALLOC, 0) == (
        one_by_one.disk.write_counters.get(ALLOC) - 1
    )
    assert_pages_hold_their_nodes(batched)
    assert batched._unsynced is None


@pytest.mark.parametrize("kind", ["crash", "torn", "transient"])
@pytest.mark.parametrize("op, after", [("allocate", 5), ("write", 3)])
def test_a_fault_mid_batch_leaves_no_dirtied_node_unwritten(kind, op, after):
    """Whatever cuts the batch short — an allocation refused in a split, or
    a page write refused while the batch is being written out — every other
    dirtied node reaches its page, the fault propagates, and the tree goes
    back to writing as it inserts."""
    disk = FaultyDisk(SimulatedDisk())
    tree = BPlusTree(order=4, disk=disk, tag="bt")
    rule = FaultRule(kind=kind, op=op, tag="bt", after=after, count=1)
    disk.plan = FaultPlan([rule])
    with pytest.raises((SimulatedCrash, StorageFault)):
        tree.bulk_insert((key % 17, key) for key in range(200))
    assert rule.fired == 1
    assert tree._unsynced is None
    stale = []
    for node in tree_nodes(tree):
        page = disk.peek(node.page_id)
        expected = _NODE_HEADER_BYTES + len(node.keys) * (_KEY_BYTES + _POINTER_BYTES)
        if page.payload is not node or page.size != expected:
            stale.append(node.page_id)
    # An allocation fault interrupts the inserts and loses no write; a write
    # fault loses exactly the one write it refused.
    assert len(stale) == (1 if op == "write" else 0)
    assert (op == "write") == (len(tree) == 200)
    writes = disk.write_counters.get(WRITE)
    tree.insert(99, 99)
    assert disk.write_counters.get(WRITE) > writes


@settings(max_examples=50, deadline=None)
@given(
    st.lists(
        st.tuples(st.integers(min_value=0, max_value=50), st.integers()),
        max_size=400,
    )
)
def test_model_check_against_dict(pairs):
    """The tree must behave like a sorted multimap."""
    tree = BPlusTree(order=4)
    model: dict[int, list[int]] = {}
    for key, value in pairs:
        tree.insert(key, value)
        model.setdefault(key, []).append(value)
    assert len(tree) == sum(len(v) for v in model.values())
    for key in range(51):
        assert sorted(tree.search(key)) == sorted(model.get(key, []))
    expected_items = sorted(
        (k, v) for k, values in model.items() for v in values
    )
    assert sorted(tree.items()) == expected_items


@settings(max_examples=30, deadline=None)
@given(
    st.lists(st.integers(min_value=0, max_value=100), max_size=300),
    st.integers(min_value=0, max_value=100),
    st.integers(min_value=0, max_value=100),
)
def test_range_scan_model(keys, lo, hi):
    tree = BPlusTree(order=4)
    for key in keys:
        tree.insert(key, key)
    expected = sorted(k for k in keys if lo <= k <= hi)
    assert [k for k, _ in tree.range_scan(lo, hi)] == expected


def test_random_interleaving_stress():
    rng = random.Random(17)
    tree = BPlusTree(order=6)
    model: dict[int, int] = {}
    for i in range(2000):
        key = rng.randrange(500)
        tree.insert(key, i)
        model[key] = model.get(key, 0) + 1
    for key, count in model.items():
        assert len(tree.search(key)) == count
