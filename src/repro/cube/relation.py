"""The base relation, stored as a paged heap file.

Multi-versioning: every mutation (append, tombstone, preference overwrite)
is stamped with the epoch reported by :attr:`Relation.epoch_clock`, and
:meth:`Relation.view` materialises a read-only :class:`RelationView` that
shows exactly the rows and values visible at a given epoch — a reader
pinned to epoch *E* never sees a row inserted, deleted or updated by later
maintenance.  The plain accessors (``live_tids``, ``pref_point``, …) keep
their historical latest-state semantics; only views filter.  With no epoch
system attached the clock reads 0 and the version maps stay empty, so
stand-alone use costs nothing.

Queries read views only, and a view has the two access paths the
baselines pay for:

* :meth:`RelationView.scan_pages` — a full table scan, reading every heap
  page once (the Boolean-first baseline may prefer this over an index
  scan);
* :meth:`RelationView.fetch` — a random access by tid, costing one page
  read (what minimal probing pays per boolean verification, category
  ``DBOOL``).
"""

from __future__ import annotations

import itertools
import math
from typing import Any, Callable, Iterator, Sequence

import numpy as _np

from repro.cube.columnar import ColumnarProjection
from repro.cube.schema import Schema
from repro.storage.buffer import BufferPool
from repro.storage.counters import BTABLE, DBOOL, IOCounters
from repro.storage.disk import SimulatedDisk

_NOT_FINITE = "preference values must be finite (no NaN or ±inf)"
_ROW_HEADER_BYTES = 4
_VALUE_BYTES = 8


def _epoch_zero() -> int:
    """Default epoch clock: no epoch system attached, everything is epoch 0."""
    return 0


class Relation:
    """An immutable-by-convention table of (boolean, preference) rows.

    Args:
        schema: Column layout.
        bool_rows: One tuple of boolean values per row.
        pref_rows: One tuple of floats per row (same length as bool_rows).
        disk: Page store for the heap file.
        tag: Page tag prefix.

    Tids are row positions (0-based), matching the R-tree and signatures.
    """

    def __init__(
        self,
        schema: Schema,
        bool_rows: Sequence[tuple],
        pref_rows: Sequence[tuple],
        disk: SimulatedDisk | None = None,
        tag: str = "heap",
    ) -> None:
        if len(bool_rows) != len(pref_rows):
            raise ValueError("boolean and preference row counts differ")
        self.schema = schema
        # Matrix input (the generators hand numpy arrays straight through)
        # primes the columnar projection without a per-tuple round trip;
        # ``tolist()`` of the float64 matrix yields exactly the Python
        # floats a per-value ``float()`` would, so rows are byte-identical.
        self._columnar: tuple[int, "ColumnarProjection"] | None = None
        self._mutation_stamp = 0
        if isinstance(bool_rows, _np.ndarray) and isinstance(
            pref_rows, _np.ndarray
        ):
            if not _np.isfinite(pref_rows).all():
                raise ValueError(_NOT_FINITE)
            self._bool_rows = list(map(tuple, bool_rows.tolist()))
            self._pref_rows = list(
                map(tuple, pref_rows.astype(_np.float64, copy=False).tolist())
            )
            self._columnar = (
                0,
                ColumnarProjection.from_matrices(
                    schema, bool_rows, pref_rows
                ),
            )
        else:
            self._bool_rows = [tuple(row) for row in bool_rows]
            self._pref_rows = [
                tuple(float(v) for v in row) for row in pref_rows
            ]
            values = itertools.chain.from_iterable(self._pref_rows)
            if not all(map(math.isfinite, values)):
                raise ValueError(_NOT_FINITE)
        for row in self._bool_rows:
            if len(row) != schema.n_boolean:
                raise ValueError("boolean row width does not match schema")
        for row in self._pref_rows:
            if len(row) != schema.n_preference:
                raise ValueError("preference row width does not match schema")
        self.disk = disk if disk is not None else SimulatedDisk()
        self.tag = tag
        self._row_bytes = _ROW_HEADER_BYTES + _VALUE_BYTES * (
            schema.n_boolean + schema.n_preference
        )
        self.rows_per_page = max(1, self.disk.page_size // self._row_bytes)
        self._page_ids: list[int] = []
        self._tombstones: set[int] = set()
        #: Reports the epoch a mutation should be stamped with.  The epoch
        #: manager installs itself here; stand-alone relations stay at 0.
        self.epoch_clock: Callable[[], int] = _epoch_zero
        # Version maps.  Absent tid ⇒ created at epoch 0 / never tombstoned
        # / preference row never rewritten — the common case stays O(0).
        self._created_epoch: dict[int, int] = {}
        self._tombstone_epoch: dict[int, int] = {}
        self._pref_history: dict[int, list[tuple[int, tuple[float, ...]]]] = {}
        self._build_heap()

    def _build_heap(self) -> None:
        for start in range(0, len(self._bool_rows), self.rows_per_page):
            tids = range(start, min(start + self.rows_per_page, len(self)))
            page_id = self.disk.allocate(
                self.tag,
                size=len(tids) * self._row_bytes,
                payload=list(tids),
            )
            self._page_ids.append(page_id)

    # ------------------------------------------------------------------ #
    # growth (incremental-maintenance experiments)
    # ------------------------------------------------------------------ #

    def check_row(
        self, bool_row: Sequence, pref_row: Sequence
    ) -> tuple[tuple, tuple[float, ...]]:
        """The row as :meth:`append` stores it, or ``ValueError`` if the
        relation would refuse it — what maintenance checks before it
        journals a write."""
        if len(bool_row) != self.schema.n_boolean:
            raise ValueError("boolean row width does not match schema")
        return tuple(bool_row), self.check_pref(pref_row)

    def check_pref(self, pref_row: Sequence) -> tuple[float, ...]:
        """The preference row as stored: as many floats as the schema has
        preference dimensions, all finite (``ValueError`` otherwise)."""
        if len(pref_row) != self.schema.n_preference:
            raise ValueError("preference row width does not match schema")
        row = tuple(float(v) for v in pref_row)
        if not all(map(math.isfinite, row)):
            raise ValueError(_NOT_FINITE)
        return row

    def append(self, bool_row: tuple, pref_row: tuple) -> int:
        """Append a row to the heap file; returns the new tid."""
        bool_row, pref_row = self.check_row(bool_row, pref_row)
        tid = len(self)
        epoch = self.epoch_clock()
        if epoch > 0:
            self._created_epoch[tid] = epoch
        self._bool_rows.append(bool_row)
        self._pref_rows.append(pref_row)
        self._mutation_stamp += 1
        self._append_to_page(tid)
        return tid

    def _append_to_page(self, tid: int) -> None:
        """Page one already-buffered row (the tail of the heap file)."""
        if self._page_ids:
            last_page = self.disk.peek(self._page_ids[-1])
            if len(last_page.payload) < self.rows_per_page:
                last_page.payload.append(tid)
                last_page.size += self._row_bytes
                return
        self._page_ids.append(
            self.disk.allocate(self.tag, size=self._row_bytes, payload=[tid])
        )

    def paged_count(self) -> int:
        """How many rows have reached heap pages (rows are paged in tid
        order, so this is also the first unpaged tid)."""
        return sum(
            len(self.disk.peek(page_id).payload) for page_id in self._page_ids
        )

    def repair_heap(self) -> int:
        """Page any buffered rows a crash left off the heap file.

        ``append`` buffers the row before allocating its page, so a crash
        in the allocation leaves a contiguous unpaged tail; re-paging that
        tail is idempotent.  Returns the number of rows repaired.
        """
        first_unpaged = self.paged_count()
        for tid in range(first_unpaged, len(self)):
            self._append_to_page(tid)
        return len(self) - first_unpaged

    def overwrite_pref(self, tid: int, pref_row: tuple) -> None:
        """Replace a row's preference values in place (update experiments).

        The overwritten value is kept in an undo chain stamped with the
        writing epoch, so views pinned before the write still resolve the
        old point.  Without an epoch system the chain is not kept.
        """
        pref_row = self.check_pref(pref_row)
        epoch = self.epoch_clock()
        if epoch > 0:
            self._pref_history.setdefault(tid, []).append(
                (epoch, self._pref_rows[tid])
            )
        self._pref_rows[tid] = pref_row
        self._mutation_stamp += 1

    # ------------------------------------------------------------------ #
    # tombstones (incremental deletes)
    # ------------------------------------------------------------------ #

    def tombstone(self, tid: int) -> None:
        """Mark a row deleted.  The row data stays in place (so signature
        maintenance can still resolve its cells) but every live-row access
        path — ``pref_points``, ``live_tids``, ``is_live`` — skips it.
        Idempotent: tombstoning a tombstone is a no-op."""
        if not 0 <= tid < len(self):
            raise IndexError(f"tid {tid} out of range")
        if tid not in self._tombstones:
            epoch = self.epoch_clock()
            if epoch > 0:
                self._tombstone_epoch[tid] = epoch
            self._mutation_stamp += 1
        self._tombstones.add(tid)

    def is_live(self, tid: int) -> bool:
        return 0 <= tid < len(self) and tid not in self._tombstones

    def live_tids(self) -> Iterator[int]:
        return (tid for tid in range(len(self)) if tid not in self._tombstones)

    def live_count(self) -> int:
        return len(self) - len(self._tombstones)

    # ------------------------------------------------------------------ #
    # plain (uncounted) access for in-memory algorithms
    # ------------------------------------------------------------------ #

    def __len__(self) -> int:
        return len(self._bool_rows)

    def bool_row(self, tid: int) -> tuple:
        return self._bool_rows[tid]

    def pref_point(self, tid: int) -> tuple[float, ...]:
        return self._pref_rows[tid]

    def bool_value(self, tid: int, dim: str) -> Any:
        return self._bool_rows[tid][self.schema.boolean_position(dim)]

    def tids(self) -> range:
        return range(len(self))

    def pref_points(self) -> Iterator[tuple[int, tuple[float, ...]]]:
        """Live ``(tid, preference_point)`` pairs (R-tree loading input)."""
        return (
            (tid, point)
            for tid, point in enumerate(self._pref_rows)
            if tid not in self._tombstones
        )

    # ------------------------------------------------------------------ #
    # counted access paths
    # ------------------------------------------------------------------ #

    def heap_page_count(self) -> int:
        return len(self._page_ids)

    def columnar(self) -> ColumnarProjection:
        """The columnar projection of the current state (lazily cached).

        Invalidated by any mutation (append / tombstone / preference
        overwrite) via the mutation stamp.  Concurrent readers may race to
        rebuild — the build is idempotent and the cache slot assignment is
        atomic, so the worst case is one redundant build.
        """
        cached = self._columnar
        stamp = self._mutation_stamp
        if cached is not None and cached[0] == stamp:
            return cached[1]
        projection = ColumnarProjection.from_rows(
            self.schema, self._bool_rows, self._pref_rows, self._tombstones
        )
        self._columnar = (stamp, projection)
        return projection

    # ------------------------------------------------------------------ #
    # multi-versioning
    # ------------------------------------------------------------------ #

    def view(self, epoch: int) -> "RelationView":
        """A read-only view of the relation as of ``epoch``."""
        return RelationView(self, epoch)

    def _len_at(self, epoch: int) -> int:
        """Row count visible at ``epoch``.

        Tids are append-ordered and creation epochs are monotone
        non-decreasing, so the visible prefix length is found by bisection.
        """
        n = len(self._bool_rows)
        if not self._created_epoch:
            return n
        lo, hi = 0, n
        while lo < hi:
            mid = (lo + hi) // 2
            if self._created_epoch.get(mid, 0) <= epoch:
                lo = mid + 1
            else:
                hi = mid
        return lo

    def _is_live_at(self, tid: int, epoch: int) -> bool:
        if not 0 <= tid < self._len_at(epoch):
            return False
        if tid not in self._tombstones:
            return True
        return self._tombstone_epoch.get(tid, 0) > epoch

    def _pref_at(self, tid: int, epoch: int) -> tuple[float, ...]:
        """The preference row visible at ``epoch``.

        The undo chain is chronological, so the first entry written by a
        later epoch holds the value the pinned reader saw.
        """
        history = self._pref_history.get(tid)
        if history:
            for write_epoch, old_row in history:
                if write_epoch > epoch:
                    return old_row
        return self._pref_rows[tid]

    def prune_versions(self, oldest_pinned: int) -> int:
        """Discard version records no reader at or after ``oldest_pinned``
        can resolve.  Returns how many records were dropped (for stats).

        Safe because a record stamped with epoch ``W`` is only consulted by
        readers pinned strictly before ``W``.

        Must run on the maintenance writer's thread (the epoch manager
        calls it from ``publish()``): it mutates the same version maps
        ``append``/``tombstone``/``overwrite_pref`` update without a lock.
        """
        dropped = 0
        for tid in [t for t, e in self._created_epoch.items() if e <= oldest_pinned]:
            del self._created_epoch[tid]
            dropped += 1
        for tid in [t for t, e in self._tombstone_epoch.items() if e <= oldest_pinned]:
            del self._tombstone_epoch[tid]
            dropped += 1
        for tid in list(self._pref_history):
            chain = self._pref_history[tid]
            keep = [entry for entry in chain if entry[0] > oldest_pinned]
            dropped += len(chain) - len(keep)
            if keep:
                self._pref_history[tid] = keep
            else:
                del self._pref_history[tid]
        return dropped


class RelationView:
    """The relation as it looked at one epoch — a read-only projection.

    What query code and the baselines read: the :class:`Relation` read
    accessors (``schema``, ``disk``, ``rows_per_page``, ``len()``,
    ``is_live``, ``live_tids``, ``tids``, ``bool_row``, ``bool_value``,
    ``pref_point``, ``heap_page_count``, ``columnar``) plus the two counted
    access paths, ``scan_pages`` and ``fetch``, which only a view has;
    every accessor filters by the pinned epoch.
    Mutators are deliberately absent: maintenance goes through the base
    relation under the single-writer epoch protocol.
    """

    def __init__(self, base: Relation, epoch: int) -> None:
        self._base = base
        self.epoch = epoch
        self.schema = base.schema
        self.disk = base.disk
        self.rows_per_page = base.rows_per_page
        self._columnar: tuple[int, ColumnarProjection] | None = None

    def __len__(self) -> int:
        return self._base._len_at(self.epoch)

    def is_live(self, tid: int) -> bool:
        return self._base._is_live_at(tid, self.epoch)

    def live_tids(self) -> Iterator[int]:
        base = self._base
        return (
            tid
            for tid in range(len(self))
            if base._is_live_at(tid, self.epoch)
        )

    def tids(self) -> range:
        return range(len(self))

    def bool_row(self, tid: int) -> tuple:
        self._check(tid)
        return self._base.bool_row(tid)

    def bool_value(self, tid: int, dim: str) -> Any:
        self._check(tid)
        return self._base.bool_value(tid, dim)

    def pref_point(self, tid: int) -> tuple[float, ...]:
        self._check(tid)
        return self._base._pref_at(tid, self.epoch)

    def heap_page_count(self) -> int:
        return self._base.heap_page_count()

    def columnar(self) -> ColumnarProjection:
        """The pinned-epoch snapshot of the base columnar projection.

        Built by patching the base projection: rows created after the
        epoch are sliced off, rows tombstoned after it are resurrected,
        and preference rows overwritten after it are restored from the
        undo chains — the columnar twin of ``_is_live_at``/``_pref_at``.
        Cached per base mutation stamp.
        """
        base = self._base
        cached = self._columnar
        stamp = base._mutation_stamp
        if cached is not None and cached[0] == stamp:
            return cached[1]
        n = len(self)
        resurrect = [
            tid
            for tid, write_epoch in base._tombstone_epoch.items()
            if write_epoch > self.epoch
        ]
        pref_undo: dict[int, tuple[float, ...]] = {}
        for tid, chain in base._pref_history.items():
            for write_epoch, old_row in chain:
                if write_epoch > self.epoch:
                    pref_undo[tid] = old_row
                    break
        projection = base.columnar().snapshot(n, resurrect, pref_undo)
        self._columnar = (stamp, projection)
        return projection

    def scan_pages(
        self,
        counters: IOCounters | None = None,
        category: str = BTABLE,
    ) -> Iterator[list[int]]:
        """Full table scan at the pinned epoch, one heap page read at a
        time (including the one read that proves a page is out of range):
        yields each page's raw tid list clipped to the epoch's prefix —
        tombstoned rows included, since the page is transferred anyway, so
        callers filter with :meth:`is_live` or columnarly."""
        limit = len(self)
        base = self._base
        for page_id in base._page_ids:
            tids = base.disk.read(page_id, category, counters)
            if tids and tids[0] >= limit:
                break
            if tids and tids[-1] < limit:
                yield tids
            else:
                yield [tid for tid in tids if tid < limit]

    def fetch(
        self,
        tid: int,
        pool: BufferPool | None = None,
        counters: IOCounters | None = None,
        category: str = DBOOL,
    ) -> tuple[tuple, tuple[float, ...]]:
        """Random access by tid: one page read, then the full row at the
        pinned epoch."""
        self._check(tid)
        base = self._base
        page_id = base._page_ids[tid // base.rows_per_page]
        if pool is not None:
            pool.get(page_id, category, counters)
        else:
            base.disk.read(page_id, category, counters)
        return base.bool_row(tid), base._pref_at(tid, self.epoch)

    def _check(self, tid: int) -> None:
        if not 0 <= tid < len(self):
            raise IndexError(f"tid {tid} not visible at epoch {self.epoch}")
