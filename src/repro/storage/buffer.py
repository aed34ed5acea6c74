"""Buffer management: a shareable page pool and per-query views of it.

Query-time accounting in the paper counts *disk* accesses, so repeated hits
on a hot page (the R-tree root, the first partial signature) must not be
re-counted.  The buffer pool absorbs them: only misses reach
:meth:`SimulatedDisk.read` and its counters.

Eviction is LRU; *admission* into a full pool is gated by access frequency:
a missed page replaces the LRU victim only if it has been asked for at least
as often (counts cover hits and misses and are halved every
``AGING_WINDOW × capacity`` accesses).  A leaf scan can then no longer flush
the hot inner nodes out of a pool much smaller than the working set (86.1 →
69.0 disk reads per read on the e2e ``sig_spill`` workload; plain LRU kept
none of them), and while counts tie — or the pool never fills, as in every
cold per-query pool — the policy is exactly LRU.

Two deployment modes matter:

* **cold** (the paper-comparable mode): every query gets a private pool, so
  its disk-access counts are a pure function of the query — exactly what
  Figures 9 and 15 assume; the figure sweeps in ``benchmarks/`` use it.
* **shared** (the serving mode): one :class:`BufferPool` is shared by every
  concurrent query.  The pool is thread-safe, supports page *pinning*
  (pinned pages are never evicted), and per-query hit/miss deltas are
  observed through a lightweight :class:`PoolView` so ``QueryStats`` never
  aggregates another query's traffic.

The pool registers itself with its disk, which calls :meth:`invalidate`
whenever a page is freed or rewritten — a maintenance rewrite or
quarantine-rebuild can therefore never serve a stale cached partial.  The
pool never retries a failed read: ``load_partial`` is the one place a read
is retried (:mod:`repro.core.store`), and a retrying pool underneath it
would retry every partial load twice.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Any

from repro.storage.counters import IOCounters
from repro.storage.disk import SimulatedDisk


#: Access counts are halved every this many accesses per page of capacity.
AGING_WINDOW = 40


class BufferPool:
    """A fixed-capacity, thread-safe page cache: LRU eviction, admission by
    access frequency (a refused page is returned but not cached).

    Args:
        disk: Backing store.
        capacity: Maximum number of resident pages.  ``capacity=0`` disables
            caching (every access is a disk read).

    Concurrency notes: the cache map, the pin table and the hit/miss
    tallies are guarded by one lock, which is *never held across a disk
    read* — two threads missing on the same page may both read it (both
    reads are counted, as a real device would), and the second insert wins
    harmlessly.  A miss whose page is invalidated while its read is in
    flight discards the (now stale) payload instead of caching it, so
    invalidation keeps its no-stale-payload guarantee even against
    concurrent readers.  Pinned pages are exempt from eviction; when every
    resident page is pinned the pool temporarily exceeds its capacity
    rather than evicting a page a query still relies on.
    """

    def __init__(
        self,
        disk: SimulatedDisk,
        capacity: int = 256,
    ) -> None:
        if capacity < 0:
            raise ValueError("capacity must be non-negative")
        self.disk = disk
        self.capacity = capacity
        self._cache: OrderedDict[int, Any] = OrderedDict()
        self._pins: dict[int, int] = {}
        # Misses with a disk read in flight (page_id → reader count) and a
        # per-page invalidation generation, bumped only while a read is in
        # flight: a reader whose generation moved read a pre-invalidation
        # payload and must not cache it.  Both entries die with the last
        # in-flight reader, so neither map grows with the page space.
        self._inflight: dict[int, int] = {}
        self._inval_gen: dict[int, int] = {}
        # Accesses per page since the last halving, and accesses since then.
        self._counts: dict[int, int] = {}
        self._accesses = 0
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        register = getattr(disk, "register_pool", None)
        if register is not None:
            register(self)

    def get(
        self,
        page_id: int,
        category: str,
        counters: IOCounters | None = None,
    ) -> Any:
        """Fetch a page payload through the cache.

        A hit costs nothing; a miss performs (and counts) one disk read and
        may evict the least recently used unpinned page.
        """
        payload, _ = self.get_traced(page_id, category, counters)
        return payload

    def get_traced(
        self,
        page_id: int,
        category: str,
        counters: IOCounters | None = None,
    ) -> tuple[Any, bool]:
        """Like :meth:`get`, but also report whether the access was a hit.

        Per-query accounting (:class:`PoolView`) needs the flag; the shared
        pool's own ``hits``/``misses`` only aggregate across queries.
        """
        with self._lock:
            if self.capacity > 0:
                self._count_locked(page_id)
            if page_id in self._cache:
                self.hits += 1
                self._cache.move_to_end(page_id)
                return self._cache[page_id], True
            self.misses += 1
            self._inflight[page_id] = self._inflight.get(page_id, 0) + 1
            generation = self._inval_gen.get(page_id, 0)
        try:
            payload = self.disk.read(page_id, category, counters)
        except BaseException:
            with self._lock:
                self._read_done_locked(page_id)
            raise
        with self._lock:
            fresh = self._inval_gen.get(page_id, 0) == generation
            self._read_done_locked(page_id)
            if self.capacity > 0 and fresh and self._admits_locked(page_id):
                self._cache[page_id] = payload
                self._cache.move_to_end(page_id)
                self._evict_overflow()
        return payload, False

    def _count_locked(self, page_id: int) -> None:
        """Tally one access; halve every count once per aging window."""
        self._counts[page_id] = self._counts.get(page_id, 0) + 1
        self._accesses += 1
        if self._accesses >= AGING_WINDOW * self.capacity:
            self._accesses = 0
            self._counts = {p: c >> 1 for p, c in self._counts.items() if c > 1}

    def _lru_unpinned(self) -> int | None:
        """The eviction victim: least recently used unpinned page, if any."""
        return next((p for p in self._cache if p not in self._pins), None)

    def _admits_locked(self, page_id: int) -> bool:
        """Whether a missed page may enter the pool (ties admit: plain LRU)."""
        if len(self._cache) < self.capacity or page_id in self._pins:
            return True
        victim = self._lru_unpinned()
        return victim is not None and (
            self._counts.get(page_id, 0) >= self._counts.get(victim, 0)
        )

    def _read_done_locked(self, page_id: int) -> None:
        """Retire one in-flight miss (lock held)."""
        count = self._inflight.get(page_id, 0) - 1
        if count > 0:
            self._inflight[page_id] = count
        else:
            self._inflight.pop(page_id, None)
            self._inval_gen.pop(page_id, None)

    def _evict_overflow(self) -> None:
        """Evict LRU unpinned pages down to capacity (lock held)."""
        while len(self._cache) > self.capacity:
            victim = self._lru_unpinned()
            if victim is None:
                break
            del self._cache[victim]

    # ------------------------------------------------------------------ #
    # pinning
    # ------------------------------------------------------------------ #

    def pin(self, page_id: int) -> None:
        """Exempt a page from eviction until every pin is released.

        Pins are reference-counted, so concurrent queries can pin the same
        hot page (the R-tree root) independently.  Pinning a page that is
        not resident is allowed — the pin takes effect once it is cached.
        """
        with self._lock:
            self._pins[page_id] = self._pins.get(page_id, 0) + 1

    def unpin(self, page_id: int) -> None:
        """Release one pin; raises if the page is not pinned."""
        with self._lock:
            count = self._pins.get(page_id, 0)
            if count <= 0:
                raise ValueError(f"page {page_id} is not pinned")
            if count == 1:
                del self._pins[page_id]
            else:
                self._pins[page_id] = count - 1
            self._evict_overflow()

    def pin_count(self, page_id: int) -> int:
        with self._lock:
            return self._pins.get(page_id, 0)

    # ------------------------------------------------------------------ #
    # invalidation
    # ------------------------------------------------------------------ #

    def invalidate(self, page_id: int) -> None:
        """Drop a page from the cache (after a write or free).

        Coherence beats pinning here: a pinned-but-rewritten page must not
        be served stale, so invalidation removes it regardless (the pin
        stays registered and keeps protecting the refreshed copy).  A miss
        reading the page right now is poisoned via the invalidation
        generation so its pre-invalidation payload is never cached.
        """
        with self._lock:
            self._cache.pop(page_id, None)
            self._counts.pop(page_id, None)  # a freed id never comes back
            if page_id in self._inflight:
                self._inval_gen[page_id] = (
                    self._inval_gen.get(page_id, 0) + 1
                )

    def clear(self) -> None:
        """Empty the cache and reset hit/miss statistics (pins survive)."""
        with self._lock:
            self._cache.clear()
            self._counts.clear()
            self._accesses = 0
            self.hits = 0
            self.misses = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._cache)


class PoolView:
    """A per-query window onto a shared :class:`BufferPool`.

    Forwards every access to the underlying pool but keeps *this query's*
    hit/miss tallies locally, so ``QueryStats`` can report a per-query
    buffer delta without reading (racy) shared totals.  Pins taken through
    the view are tracked and released in one call when the query ends.
    """

    def __init__(self, pool: BufferPool) -> None:
        self.pool = pool
        self.disk = pool.disk
        self.capacity = pool.capacity
        self.hits = 0
        self.misses = 0
        self._pinned: list[int] = []

    def get(
        self,
        page_id: int,
        category: str,
        counters: IOCounters | None = None,
    ) -> Any:
        payload, hit = self.pool.get_traced(page_id, category, counters)
        if hit:
            self.hits += 1
        else:
            self.misses += 1
        return payload

    def pin(self, page_id: int) -> None:
        self.pool.pin(page_id)
        self._pinned.append(page_id)

    def unpin(self, page_id: int) -> None:
        self.pool.unpin(page_id)
        self._pinned.remove(page_id)

    def release(self) -> None:
        """Drop every pin this view still holds (end-of-query cleanup)."""
        while self._pinned:
            self.pool.unpin(self._pinned.pop())

    def invalidate(self, page_id: int) -> None:
        self.pool.invalidate(page_id)

    def __len__(self) -> int:
        return len(self.pool)
