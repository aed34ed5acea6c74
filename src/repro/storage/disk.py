"""A simulated disk: page allocation, tagged reads, space accounting.

The disk never serialises payloads; it tracks *logical* page sizes so that
space figures (paper Figure 6) and access counts (Figures 9, 15) can be
reported exactly, while the Python objects stay directly usable.

Robustness additions:

* every page is sealed with a checksum at allocate/write and verified on
  read — corruption surfaces as a typed
  :class:`~repro.storage.errors.CorruptPageError` instead of wrong bits;
* writes, allocations and frees are tallied on :attr:`write_counters`
  (separate from the read-side :attr:`counters` the paper's figures use),
  so maintenance I/O is measurable;
* buffer pools register themselves and are told to evict a page when it is
  freed *or rewritten in place*, so no pool can serve a stale payload.

Concurrency: the page table is guarded by a lock, so allocations, frees and
reads from query threads running against a maintenance writer are atomic at
page granularity.  Page ids are monotonic and never reused, which is what
lets epoch snapshots hold references to pages whose physical free is merely
deferred.

``read_latency`` models the device: when positive, every read is charged
that many seconds through the disk's :class:`DeviceClock`, *outside* the
page-table lock.  ``time.sleep`` overshoots (0.32 ms for 0.2 ms on the
reference host), so the clock carries each thread's overshoot as a debt the
next read repays: the time charged sums to reads × latency, not to whatever
the host's timer adds.  The sleep releases the GIL, so a thread pool
genuinely overlaps simulated I/O waits — the effect the serving benchmark
measures.
"""

from __future__ import annotations

import threading
import time
import weakref
from typing import Any, Iterator

from repro.storage.counters import ALLOC, FREE, WRITE, IOCounters
from repro.storage.page import DEFAULT_PAGE_SIZE, Page


class PageFault(KeyError):
    """Raised when reading or freeing a page id that was never allocated."""


class DeviceClock:
    """The one place ``repro.storage`` sleeps: real waits that sum exactly.

    Each thread keeps the amount its sleeps have overshot so far; a charge
    sleeps only what the thread still owes and is skipped while the debt
    covers it.  Call it with no lock held.
    """

    def __init__(self, sleep=time.sleep, clock=time.perf_counter) -> None:
        self._sleep = sleep
        self.clock = clock
        self._debt = threading.local()

    def charge(self, seconds: float, since: float | None = None) -> None:
        """Spend ``seconds`` of modelled device time on the calling thread,
        counted from ``since`` (a :attr:`clock` reading; default: now)."""
        started = self.clock() if since is None else since
        debt = getattr(self._debt, "seconds", 0.0)
        if seconds > debt:
            self._sleep(seconds - debt)
        self._debt.seconds = debt + (self.clock() - started) - seconds


class SimulatedDisk:
    """An append-allocated page store with tagged I/O accounting.

    Args:
        page_size: Transfer unit in bytes; structures that must fit a page
            (partial signatures, index nodes) size themselves against this.
        read_latency: Seconds charged per read (default 0 — counting only).
            Used by the serving benchmark to model a device whose waits
            concurrent queries can overlap.
    """

    def __init__(
        self,
        page_size: int = DEFAULT_PAGE_SIZE,
        read_latency: float = 0.0,
    ) -> None:
        if page_size <= 0:
            raise ValueError("page_size must be positive")
        if read_latency < 0:
            raise ValueError("read_latency must be non-negative")
        self.page_size = page_size
        self.read_latency = read_latency
        self._pages: dict[int, Page] = {}
        self._next_id = 0
        self._lock = threading.Lock()
        #: Charges ``read_latency`` (and the fault layer's latency spikes).
        self.device = DeviceClock()
        #: Disk-wide counters; reads may also record into caller-supplied
        #: counters (per-query accounting).
        self.counters = IOCounters()
        #: Write-side accounting (``ALLOC`` / ``WRITE`` / ``FREE``), kept
        #: separate so the read-access figures are unaffected.
        self.write_counters = IOCounters()
        #: Buffer pools to notify when a page is freed (weakly held — pools
        #: are usually per-query and must not be kept alive by the disk).
        #: Readers register pools while a writer notifies: one lock, or a
        #: writer's walk can meet a set that changed size under it.
        self._pools: "weakref.WeakSet" = weakref.WeakSet()
        self._pools_lock = threading.Lock()

    # ------------------------------------------------------------------ #
    # buffer-pool coordination
    # ------------------------------------------------------------------ #

    def register_pool(self, pool: Any) -> None:
        """Register a buffer pool for free/write invalidation callbacks."""
        with self._pools_lock:
            self._pools.add(pool)

    def _notify_invalidated(self, page_id: int) -> None:
        if not self._pools:
            # No pool registered (a build's writes): nothing to tell.
            return
        with self._pools_lock:
            pools = list(self._pools)
        for pool in pools:
            pool.invalidate(page_id)

    # ------------------------------------------------------------------ #
    # allocation
    # ------------------------------------------------------------------ #

    def allocate(self, tag: str, size: int | None = None, payload: Any = None) -> int:
        """Allocate a new page and return its id.

        ``size`` defaults to the full page size; logical sizes larger than
        the page size are allowed (a caller-visible signal that the payload
        should have been decomposed) but flagged by :meth:`oversized_pages`.
        """
        page = Page(
            page_id=0,  # placeholder; the real id is assigned under lock
            tag=tag,
            size=self.page_size if size is None else size,
            payload=payload,
        )
        with self._lock:
            page_id = self._next_id
            self._next_id += 1
            page.page_id = page_id
            page.seal()
            self._pages[page_id] = page
        self.write_counters.record(ALLOC)
        return page_id

    def free(self, page_id: int) -> None:
        """Release a page (evicting it from every registered buffer pool)."""
        with self._lock:
            try:
                del self._pages[page_id]
            except KeyError:
                raise PageFault(page_id) from None
        self.write_counters.record(FREE)
        self._notify_invalidated(page_id)

    def exists(self, page_id: int) -> bool:
        """Whether a page id is currently allocated."""
        with self._lock:
            return page_id in self._pages

    # ------------------------------------------------------------------ #
    # access
    # ------------------------------------------------------------------ #

    def read(
        self,
        page_id: int,
        category: str,
        counters: IOCounters | None = None,
    ) -> Any:
        """Fetch a page payload, recording one access under ``category``.

        The access is recorded on the disk-wide counters and, when given, on
        the per-query ``counters`` as well.  The payload is verified against
        the page checksum; a mismatch raises
        :class:`~repro.storage.errors.CorruptPageError` (the transfer still
        counts — the bytes moved, they were just wrong).
        """
        latency = self.read_latency
        started = self.device.clock() if latency > 0.0 else 0.0
        with self._lock:
            try:
                page = self._pages[page_id]
            except KeyError:
                raise PageFault(page_id) from None
        self.counters.record(category)
        if counters is not None:
            counters.record(category)
        if latency > 0.0:
            self.device.charge(latency, started)
        page.verify()
        return page.payload

    def write(self, page_id: int, payload: Any, size: int | None = None) -> None:
        """Replace a page's payload (and optionally its logical size)."""
        with self._lock:
            try:
                page = self._pages[page_id]
            except KeyError:
                raise PageFault(page_id) from None
            page.payload = payload
            if size is not None:
                page.size = size
            page.seal()
        self.write_counters.record(WRITE)
        self._notify_invalidated(page_id)

    def peek(self, page_id: int) -> Page:
        """Inspect a page without counting an access (for tests/tools)."""
        with self._lock:
            try:
                return self._pages[page_id]
            except KeyError:
                raise PageFault(page_id) from None

    # ------------------------------------------------------------------ #
    # accounting
    # ------------------------------------------------------------------ #

    def pages(self, tag_prefix: str = "") -> Iterator[Page]:
        """Iterate pages whose tag starts with ``tag_prefix``."""
        with self._lock:
            matching = [
                page
                for page in self._pages.values()
                if page.tag.startswith(tag_prefix)
            ]
        yield from matching

    def size_bytes(self, tag_prefix: str = "") -> int:
        """Total logical bytes of live pages under a tag prefix."""
        return sum(page.size for page in self.pages(tag_prefix))

    def size_mb(self, tag_prefix: str = "") -> float:
        """Total logical size in MB (for Figure 6 style reporting)."""
        return self.size_bytes(tag_prefix) / (1024.0 * 1024.0)

    def oversized_pages(self) -> list[Page]:
        """Pages whose logical size exceeds the transfer unit."""
        with self._lock:
            return [p for p in self._pages.values() if p.size > self.page_size]
