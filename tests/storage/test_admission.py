"""Frequency-gated admission: LRU eviction, but a missed page enters a full
pool only if it has been asked for at least as often as the LRU victim."""

import sys
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.storage.buffer import AGING_WINDOW, BufferPool
from repro.storage.counters import SBLOCK
from repro.storage.disk import SimulatedDisk

from tests.storage.replay import PlainLRU, load_trace, replay


@pytest.fixture
def disk():
    return SimulatedDisk()


def test_hot_set_survives_scans_that_flush_it_out_of_plain_lru():
    trace = load_trace("hot_set_scans.txt")
    lru_misses, _ = replay(trace, 24, PlainLRU)
    misses, pool = replay(trace, 24, BufferPool)
    assert (lru_misses, misses) == (2421, 1944)  # frozen trace, exact counts
    assert misses <= 0.85 * lru_misses
    assert pool.hits + pool.misses == len(trace) and len(pool) == 24


def test_pure_recency_loop_is_exactly_lru():
    trace = load_trace("recency_loop.txt")
    lru_misses, lru = replay(trace, 32, PlainLRU)
    misses, pool = replay(trace, 32, BufferPool)
    assert misses == lru_misses == len(trace)  # 48 pages cycling through 32
    assert list(pool._cache) == list(lru._cache)


@settings(max_examples=60, deadline=None)
@given(
    trace=st.lists(st.integers(0, 11), min_size=1, max_size=120),
    spare=st.integers(0, 3),
)
def test_a_pool_that_never_fills_is_plain_lru(trace, spare):
    capacity = len(set(trace)) + spare
    lru_misses, lru = replay(trace, capacity, PlainLRU)
    misses, pool = replay(trace, capacity, BufferPool)
    assert misses == lru_misses
    assert (pool.hits, pool.misses) == (lru.hits, lru.misses)
    assert list(pool._cache) == list(lru._cache)  # same pages, same order


def _fill_with_hot_pages(disk, pool):
    """Two resident pages, each asked for three times."""
    hot = [disk.allocate("t", payload=f"hot{i}") for i in range(2)]
    for _ in range(3):
        for page_id in hot:
            pool.get(page_id, SBLOCK)
    return hot


def test_refused_page_is_returned_but_not_cached(disk):
    pool = BufferPool(disk, capacity=2)
    hot = _fill_with_hot_pages(disk, pool)
    cold = disk.allocate("t", payload="cold")
    assert pool.get_traced(cold, SBLOCK) == ("cold", False)
    assert list(pool._cache) == hot  # nothing evicted, order untouched
    assert pool._inflight == {} and pool._inval_gen == {}
    # Asked for as often as the victim, it gets in (the tie admits).
    pool.get(cold, SBLOCK)
    pool.get(cold, SBLOCK)
    assert list(pool._cache) == [hot[1], cold]
    assert pool.misses == 5 and disk.counters.get(SBLOCK) == 5


def test_miss_the_counts_would_admit_is_still_dropped_if_invalidated(disk):
    pool = BufferPool(disk, capacity=2)
    hot = _fill_with_hot_pages(disk, pool)
    cold = disk.allocate("t", payload="old")
    pool.get(cold, SBLOCK)
    pool.get(cold, SBLOCK)  # refused twice; the next miss ties the victim
    real_read = disk.read

    def read_then_rewrite(pid, category, counters=None):
        payload = real_read(pid, category, counters)
        disk.write(cold, "new")  # lands while the miss is in flight
        return payload

    disk.read = read_then_rewrite
    try:
        assert pool.get(cold, SBLOCK) == "old"  # the read it performed
    finally:
        disk.read = real_read
    assert list(pool._cache) == hot  # the stale payload was never cached
    assert pool._inflight == {} and pool._inval_gen == {}
    assert cold not in pool._counts  # the rewrite dropped its count too
    assert pool.get(cold, SBLOCK) == "new"


def test_counts_age_and_are_dropped_with_the_page(disk):
    pool = BufferPool(disk, capacity=2)
    hot = _fill_with_hot_pages(disk, pool)
    assert pool._counts == {hot[0]: 3, hot[1]: 3}
    pool.invalidate(hot[0])
    assert hot[0] not in pool._counts
    for _ in range(AGING_WINDOW * pool.capacity - 6):
        pool.get(hot[1], SBLOCK)
    assert pool._counts == {hot[1]: (AGING_WINDOW * 2 - 3) >> 1}
    assert pool._accesses == 0
    pool.clear()
    assert pool._counts == {} and pool._accesses == 0


def test_count_map_stays_bounded_by_the_aging_window(disk):
    pool = BufferPool(disk, capacity=4)
    pages = [disk.allocate("t", payload=i) for i in range(2000)]
    for page_id in pages:
        pool.get(page_id, SBLOCK)
    # Pages seen once since the last halving are forgotten by the next one.
    assert len(pool._counts) <= AGING_WINDOW * pool.capacity


@pytest.mark.concurrent
def test_small_shared_pool_stays_coherent_under_threads(disk):
    """More readers than cores over a pool that evicts on most misses, with a
    writer rewriting pages underneath: no lost update in the tallies, never
    over capacity, never a payload older than the last rewrite."""
    n_pages, gets, threads = 64, 1500, 6
    pages = [disk.allocate("t", payload=(i, 0)) for i in range(n_pages)]
    pool = BufferPool(disk, capacity=8)
    floor = [0] * n_pages  # version each page had reached before the get began
    errors: list[str] = []

    def reader(seed):
        try:
            for step in range(gets):
                index = (seed * 7 + step * step) % (8 if step % 3 else n_pages)
                expected = floor[index]
                got_index, version = pool.get(pages[index], SBLOCK)
                if got_index != index or version < expected:
                    errors.append(f"page {index}: got v{version} < v{expected}")
        except Exception as exc:  # pragma: no cover - surfaced by the assert
            errors.append(repr(exc))

    def writer():
        for version in range(1, 200):
            index = version % 8
            disk.write(pages[index], (index, version))
            floor[index] = version

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        workers = [threading.Thread(target=reader, args=(i,)) for i in range(threads)]
        workers.append(threading.Thread(target=writer))
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(timeout=60.0)
            assert not worker.is_alive()
    finally:
        sys.setswitchinterval(interval)
    assert errors == []
    assert pool.hits + pool.misses == threads * gets
    assert pool.misses == disk.counters.get(SBLOCK)
    assert len(pool) <= pool.capacity
    assert pool._inflight == {} and pool._inval_gen == {}
