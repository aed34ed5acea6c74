"""Replay a page-access trace through a pool policy: policy in, misses out.

A *policy* is ``policy(disk, capacity) -> pool`` where the pool has
``get(page_id, category)``; :class:`~repro.storage.buffer.BufferPool` is one,
:class:`PlainLRU` — what the pool did before it gated admission — is the
reference the admission tests compare against.

The two committed traces under ``traces/`` are synthetic (page indices, one
access per token) and frozen as files so the expected miss counts do not
depend on a generator:

* ``hot_set_scans.txt`` — 16 hot pages, picked at random, take a third of the
  accesses; the rest scan 400 cold pages in order.  With 24 pages of capacity
  a hot page's typical reuse distance (~40 distinct pages) is beyond what LRU
  keeps.  (Strict round robin over the hot set would tie every count and be
  LRU's worst case under either policy.)
* ``recency_loop.txt`` — 40 passes over 48 pages in the same order: counts
  always tie, so frequency has nothing to add to recency.
"""

from __future__ import annotations

from collections import OrderedDict
from pathlib import Path

from repro.storage.counters import SBLOCK
from repro.storage.disk import SimulatedDisk

TRACES = Path(__file__).parent / "traces"


class PlainLRU:
    """Admit every miss, evict the least recently used page."""

    def __init__(self, disk: SimulatedDisk, capacity: int) -> None:
        self.disk = disk
        self.capacity = capacity
        self.hits = 0
        self.misses = 0
        self._cache: OrderedDict[int, object] = OrderedDict()

    def get(self, page_id: int, category: str) -> object:
        if page_id in self._cache:
            self.hits += 1
            self._cache.move_to_end(page_id)
            return self._cache[page_id]
        self.misses += 1
        payload = self._cache[page_id] = self.disk.read(page_id, category)
        if len(self._cache) > self.capacity:
            self._cache.popitem(last=False)
        return payload


def load_trace(name: str) -> list[int]:
    return [int(token) for token in (TRACES / name).read_text().split()]


def replay(trace: list[int], capacity: int, policy):
    """Run ``trace`` through ``policy(disk, capacity)``.

    Returns ``(misses, pool)``; misses are counted on the disk, so a policy
    cannot under-report them.
    """
    disk = SimulatedDisk()
    pages = [disk.allocate("t", payload=i) for i in range(max(trace) + 1)]
    pool = policy(disk, capacity)
    for index in trace:
        assert pool.get(pages[index], SBLOCK) == index
    return disk.counters.get(SBLOCK), pool
