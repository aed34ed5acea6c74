"""The LRU buffer pool: hits are free, misses are counted disk reads."""

import pytest

from repro.storage.buffer import BufferPool
from repro.storage.counters import IOCounters, SBLOCK
from repro.storage.disk import SimulatedDisk


@pytest.fixture
def disk():
    return SimulatedDisk()


def test_hit_does_not_count(disk):
    page_id = disk.allocate("t", payload="x")
    pool = BufferPool(disk, capacity=4)
    counters = IOCounters()
    pool.get(page_id, SBLOCK, counters)
    pool.get(page_id, SBLOCK, counters)
    pool.get(page_id, SBLOCK, counters)
    assert counters.get(SBLOCK) == 1
    assert pool.hits == 2
    assert pool.misses == 1


def test_lru_eviction_recounts(disk):
    ids = [disk.allocate("t", payload=i) for i in range(3)]
    pool = BufferPool(disk, capacity=2)
    counters = IOCounters()
    pool.get(ids[0], SBLOCK, counters)
    pool.get(ids[1], SBLOCK, counters)
    pool.get(ids[2], SBLOCK, counters)  # evicts ids[0]
    pool.get(ids[0], SBLOCK, counters)  # miss again
    assert counters.get(SBLOCK) == 4


def test_lru_order_is_by_recency(disk):
    ids = [disk.allocate("t", payload=i) for i in range(3)]
    pool = BufferPool(disk, capacity=2)
    counters = IOCounters()
    pool.get(ids[0], SBLOCK, counters)
    pool.get(ids[1], SBLOCK, counters)
    pool.get(ids[0], SBLOCK, counters)  # refresh 0; 1 is now LRU
    pool.get(ids[2], SBLOCK, counters)  # evicts 1
    pool.get(ids[0], SBLOCK, counters)  # still resident
    assert counters.get(SBLOCK) == 3


def test_zero_capacity_disables_caching(disk):
    page_id = disk.allocate("t", payload=1)
    pool = BufferPool(disk, capacity=0)
    counters = IOCounters()
    pool.get(page_id, SBLOCK, counters)
    pool.get(page_id, SBLOCK, counters)
    assert counters.get(SBLOCK) == 2
    assert len(pool) == 0


def test_write_invalidates_registered_pools(disk):
    page_id = disk.allocate("t", payload="old")
    pool = BufferPool(disk, capacity=4)
    assert pool.get(page_id, SBLOCK) == "old"
    disk.write(page_id, "new")
    # In-place rewrites evict the page from every registered pool, so a
    # shared pool can never serve a stale payload to a concurrent reader.
    assert pool.get(page_id, SBLOCK) == "new"


def test_manual_invalidate_forces_reread(disk):
    page_id = disk.allocate("t", payload="old")
    pool = BufferPool(disk, capacity=4)
    assert pool.get(page_id, SBLOCK) == "old"
    pool.invalidate(page_id)
    counters = IOCounters()
    pool.get(page_id, SBLOCK, counters)
    assert counters.get(SBLOCK) == 1  # dropped from cache: a real re-read


def test_pool_view_tracks_per_query_deltas(disk):
    from repro.storage.buffer import PoolView

    page_id = disk.allocate("t", payload="x")
    pool = BufferPool(disk, capacity=4)
    view_a = PoolView(pool)
    view_b = PoolView(pool)
    view_a.get(page_id, SBLOCK)  # miss
    view_b.get(page_id, SBLOCK)  # hit (cached by A's miss)
    assert (view_a.hits, view_a.misses) == (0, 1)
    assert (view_b.hits, view_b.misses) == (1, 0)
    assert (pool.hits, pool.misses) == (1, 1)


def test_clear_resets_stats(disk):
    page_id = disk.allocate("t", payload=1)
    pool = BufferPool(disk, capacity=4)
    pool.get(page_id, SBLOCK)
    pool.clear()
    assert pool.hits == 0 and pool.misses == 0 and len(pool) == 0


def test_negative_capacity_rejected(disk):
    with pytest.raises(ValueError):
        BufferPool(disk, capacity=-1)


def test_free_evicts_from_registered_pools(disk):
    page_id = disk.allocate("t", payload="x")
    pool_a = BufferPool(disk, capacity=4)
    pool_b = BufferPool(disk, capacity=4)
    pool_a.get(page_id, SBLOCK)
    pool_b.get(page_id, SBLOCK)
    disk.free(page_id)
    # Neither pool may keep serving a freed page from cache.
    assert len(pool_a) == 0
    assert len(pool_b) == 0


def test_invalidation_during_in_flight_miss_is_not_cached(disk):
    """A payload read *before* a concurrent invalidate must not be
    inserted *after* it — that would leave a stale page resident."""
    page_id = disk.allocate("t", payload="old")
    pool = BufferPool(disk, capacity=4)
    real_read = disk.read

    def read_then_rewrite(pid, category, counters=None):
        payload = real_read(pid, category, counters)
        # The rewrite lands while the miss's read is "in flight": the
        # pool has released its lock and not yet cached the payload.
        disk.write(page_id, "new")
        return payload

    disk.read = read_then_rewrite
    try:
        assert pool.get(page_id, SBLOCK) == "old"  # the read it performed
    finally:
        disk.read = real_read
    assert len(pool) == 0  # the stale payload was discarded, not cached
    assert pool.get(page_id, SBLOCK) == "new"
    assert len(pool) == 1
    # The in-flight bookkeeping drained with the reads.
    assert pool._inflight == {} and pool._inval_gen == {}


def test_read_fault_during_miss_drains_inflight_bookkeeping(disk):
    pool = BufferPool(disk, capacity=4)
    with pytest.raises(KeyError):
        pool.get(999, SBLOCK)  # never-allocated page faults
    assert pool._inflight == {} and pool._inval_gen == {}


def test_freed_then_reallocated_id_is_never_aliased(disk):
    pool = BufferPool(disk, capacity=4)
    old = disk.allocate("t", payload="old")
    pool.get(old, SBLOCK)
    disk.free(old)
    new = disk.allocate("t", payload="new")
    assert new != old  # ids are monotonic, freed ids never reused
    assert pool.get(new, SBLOCK) == "new"
