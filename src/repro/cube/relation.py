"""The base relation, stored as a paged heap file.

The rows live in two column matrices — preference values as float64, and
boolean values as int64 codes (integer columns hold their values, any
other column a per-column dictionary code, as in
:class:`~repro.cube.columnar.ColumnarProjection`) — plus a liveness mask.
Appends fill them with amortised growth; a row becomes a tuple only when
an accessor asks for one, and :meth:`Relation.columnar` hands out views of
the same arrays, so no structure holds a Python object per row.

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

import math
from typing import Any, Callable, Iterator, Sequence

import numpy as _np

from repro.cube.columnar import ColumnarProjection
from repro.cube.schema import Schema
from repro.storage.buffer import BufferPool
from repro.storage.counters import BTABLE, DBOOL, IOCounters
from repro.storage.disk import SimulatedDisk

_NOT_FINITE = "preference values must be finite (no NaN or ±inf)"
_BOOL_WIDTH = "boolean row width does not match schema"
_PREF_WIDTH = "preference row width does not match schema"
_ROW_HEADER_BYTES = 4
_VALUE_BYTES = 8


def _epoch_zero() -> int:
    """Default epoch clock: no epoch system attached, everything is epoch 0."""
    return 0


def _is_int(value: Any) -> bool:
    return isinstance(value, (int, _np.integer)) and not isinstance(value, bool)


def _encode_columns(
    rows: Sequence[Sequence], width: int
) -> tuple[_np.ndarray, list[list | None]]:
    """Boolean rows as an int64 code matrix and, per column, ``None`` for an
    integer column or the list of its distinct values in first-appearance
    order (a value's code is its index there)."""
    codes = _np.empty((len(rows), width), dtype=_np.int64)
    decoders: list[list | None] = []
    for j, column in enumerate(zip(*rows) if rows else [()] * width):
        if all(map(_is_int, column)):
            decoders.append(None)
            codes[:, j] = column
            continue
        mapping: dict[Any, int] = {}
        codes[:, j] = [mapping.setdefault(v, len(mapping)) for v in column]
        decoders.append(list(mapping))
    return codes, decoders


class Relation:
    """An immutable-by-convention table of (boolean, preference) rows.

    Args:
        schema: Column layout.
        bool_rows: The boolean values, one row each: a sequence of tuples,
            or an integer matrix (the generators' output, adopted as is).
        pref_rows: The preference values, one row each (same length as
            bool_rows): a sequence of tuples, or a float matrix.
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
        n = len(pref_rows)
        if isinstance(bool_rows, _np.ndarray) and isinstance(
            pref_rows, _np.ndarray
        ):
            pref = _np.ascontiguousarray(pref_rows, dtype=_np.float64)
            codes = _np.ascontiguousarray(bool_rows, dtype=_np.int64)
            decoders: list[list | None] = [None] * schema.n_boolean
            if codes.shape != (n, schema.n_boolean):
                raise ValueError(_BOOL_WIDTH)
        else:
            if any(len(row) != schema.n_boolean for row in bool_rows):
                raise ValueError(_BOOL_WIDTH)
            if any(len(row) != schema.n_preference for row in pref_rows):
                raise ValueError(_PREF_WIDTH)
            pref = _np.array(pref_rows, dtype=_np.float64).reshape(
                n, schema.n_preference
            )
            codes, decoders = _encode_columns(bool_rows, schema.n_boolean)
        if pref.shape != (n, schema.n_preference):
            raise ValueError(_PREF_WIDTH)
        if not _np.isfinite(pref).all():
            raise ValueError(_NOT_FINITE)
        self._n = n
        self._pref = pref
        self._codes = codes
        self._live = _np.ones(n, dtype=bool)
        self._decoders = decoders
        #: Whether any column is dictionary-coded (``bool_row`` decodes).
        self._coded = any(values is not None for values in decoders)
        self._encoders = [
            None if values is None else {v: i for i, v in enumerate(values)}
            for values in decoders
        ]
        self._dead = 0
        # ``_pref`` may be seen from outside — the caller's matrix, or a
        # projection handed out by ``columnar`` — so the first in-place
        # overwrite copies it (appends only write rows no one sees yet).
        self._pref_shared = True
        #: Bumped before every mutation: a reader that sees it unchanged
        #: across a computation saw no mutation in between.
        self._mutation_stamp = 0
        self._columnar: tuple[int, ColumnarProjection] | None = None
        self.disk = disk if disk is not None else SimulatedDisk()
        self.tag = tag
        self._row_bytes = _ROW_HEADER_BYTES + _VALUE_BYTES * (
            schema.n_boolean + schema.n_preference
        )
        self.rows_per_page = max(1, self.disk.page_size // self._row_bytes)
        self._page_ids: list[int] = []
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
        for start in range(0, len(self), self.rows_per_page):
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
            raise ValueError(_BOOL_WIDTH)
        return tuple(bool_row), self.check_pref(pref_row)

    def check_pref(self, pref_row: Sequence) -> tuple[float, ...]:
        """The preference row as stored: as many floats as the schema has
        preference dimensions, all finite (``ValueError`` otherwise)."""
        if len(pref_row) != self.schema.n_preference:
            raise ValueError(_PREF_WIDTH)
        row = tuple(float(v) for v in pref_row)
        if not all(map(math.isfinite, row)):
            raise ValueError(_NOT_FINITE)
        return row

    def append(self, bool_row: tuple, pref_row: tuple) -> int:
        """Append a row to the heap file; returns the new tid."""
        bool_row, pref_row = self.check_row(bool_row, pref_row)
        tid = self._n
        epoch = self.epoch_clock()
        if epoch > 0:
            self._created_epoch[tid] = epoch
        self._mutation_stamp += 1
        codes = self._encode(bool_row)
        if tid == len(self._pref):
            self._grow(2 * tid + 16)
        self._pref[tid] = pref_row
        self._codes[tid] = codes
        self._live[tid] = True
        self._n = tid + 1
        self._append_to_page(tid)
        return tid

    def _encode(self, bool_row: tuple) -> list[int]:
        """A row's codes: a value not yet in its column's dictionary gets
        the next code, and a non-integer value turns an integer column
        into a dictionary one."""
        codes = []
        for j, value in enumerate(bool_row):
            encoder = self._encoders[j]
            if encoder is None:
                if _is_int(value):
                    codes.append(int(value))
                    continue
                self._to_dictionary(j)
                return self._encode(bool_row)
            code = encoder.get(value)
            if code is None:
                code = encoder[value] = len(encoder)
                self._decoders[j].append(value)
            codes.append(code)
        return codes

    def _to_dictionary(self, j: int) -> None:
        """Re-code integer column ``j`` by first appearance, in a new code
        array (a projection handed out keeps the codes it saw)."""
        mapping: dict[Any, int] = {}
        column = [
            mapping.setdefault(v, len(mapping))
            for v in self._codes[: self._n, j].tolist()
        ]
        codes = self._codes.copy()
        codes[: self._n, j] = column
        self._codes = codes
        self._encoders[j] = mapping
        self._decoders[j] = list(mapping)
        self._coded = True

    def _grow(self, capacity: int) -> None:
        """Re-allocate the row arrays to hold ``capacity`` rows (a
        projection handed out keeps the arrays it saw)."""
        n = self._n
        for name in ("_pref", "_codes", "_live"):
            old = getattr(self, name)
            new = _np.zeros((capacity,) + old.shape[1:], dtype=old.dtype)
            new[:n] = old[:n]
            setattr(self, name, new)
        self._pref_shared = False

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
        if not 0 <= tid < len(self):
            raise IndexError(f"tid {tid} out of range")
        pref_row = self.check_pref(pref_row)
        old = self.pref_point(tid)
        epoch = self.epoch_clock()
        if epoch > 0:
            self._pref_history.setdefault(tid, []).append((epoch, old))
        self._mutation_stamp += 1
        if self._pref_shared:
            self._pref = self._pref.copy()
            self._pref_shared = False
        self._pref[tid] = pref_row

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
        if self._live[tid]:
            epoch = self.epoch_clock()
            if epoch > 0:
                self._tombstone_epoch[tid] = epoch
            self._mutation_stamp += 1
            self._live[tid] = False
            self._dead += 1

    def is_live(self, tid: int) -> bool:
        return 0 <= tid < len(self) and bool(self._live[tid])

    def live_tids(self) -> Iterator[int]:
        return iter(_np.flatnonzero(self._live[: self._n]).tolist())

    def live_count(self) -> int:
        return len(self) - self._dead

    # ------------------------------------------------------------------ #
    # plain (uncounted) access for in-memory algorithms
    # ------------------------------------------------------------------ #

    def __len__(self) -> int:
        return self._n

    def _row(self, tid: int) -> int:
        """``tid`` as a row index (negative counts from the end)."""
        row = tid + self._n if tid < 0 else tid
        if not 0 <= row < self._n:
            raise IndexError(f"tid {tid} out of range")
        return row

    def bool_row(self, tid: int) -> tuple:
        if not 0 <= tid < self._n:
            tid = self._row(tid)
        codes = self._codes[tid].tolist()
        if self._coded:
            return tuple(
                code if values is None else values[code]
                for code, values in zip(codes, self._decoders)
            )
        return tuple(codes)

    def pref_point(self, tid: int) -> tuple[float, ...]:
        if not 0 <= tid < self._n:
            tid = self._row(tid)
        return tuple(self._pref[tid].tolist())

    def bool_value(self, tid: int, dim: str) -> Any:
        if not 0 <= tid < self._n:
            tid = self._row(tid)
        position = self.schema.boolean_position(dim)
        code = int(self._codes[tid, position])
        values = self._decoders[position]
        return code if values is None else values[code]

    def tids(self) -> range:
        return range(len(self))

    def pref_points(self) -> Iterator[tuple[int, tuple[float, ...]]]:
        """Live ``(tid, preference_point)`` pairs (R-tree loading input)."""
        live = _np.flatnonzero(self._live[: self._n])
        return zip(live.tolist(), map(tuple, self._pref[live].tolist()))

    # ------------------------------------------------------------------ #
    # counted access paths
    # ------------------------------------------------------------------ #

    def heap_page_count(self) -> int:
        return len(self._page_ids)

    def columnar(self) -> ColumnarProjection:
        """The current state as a columnar projection (cached per
        mutation stamp): views of the relation's own preference and code
        arrays — a later overwrite copies the preference array first — and
        a copy of the liveness mask.  Concurrent readers may race to make
        it; the projections are equal and the last store wins.
        """
        cached = self._columnar
        stamp = self._mutation_stamp
        if cached is not None and cached[0] == stamp:
            return cached[1]
        self._pref_shared = True
        n = self._n
        projection = ColumnarProjection(
            self.schema,
            self._pref[:n],
            self._codes[:n],
            tuple(self._encoders),
            self._live[:n].copy(),
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
        n = self._n
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
        if self._live[tid]:
            return True
        return self._tombstone_epoch.get(tid, 0) > epoch

    def _pref_at(self, tid: int, epoch: int) -> tuple[float, ...]:
        """The preference row visible at ``epoch``.

        The row is read before the undo chain, which a writer extends
        before it overwrites the row: a value read mid-write is corrected
        by the chain.  The chain is chronological, so the first entry
        written by a later epoch holds the value the pinned reader saw.
        """
        row = self.pref_point(tid)
        history = self._pref_history.get(tid)
        if history:
            for write_epoch, old_row in history:
                if write_epoch > epoch:
                    return old_row
        return row

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
        Cached per base mutation stamp; a write that lands while it is
        being made moves the stamp, and it is made again.
        """
        base = self._base
        cached = self._columnar
        stamp = base._mutation_stamp
        if cached is not None and cached[0] == stamp:
            return cached[1]
        while True:
            n = len(self)
            resurrect = [
                tid
                for tid, write_epoch in list(base._tombstone_epoch.items())
                if write_epoch > self.epoch
            ]
            pref_undo: dict[int, tuple[float, ...]] = {}
            for tid, chain in list(base._pref_history.items()):
                for write_epoch, old_row in chain:
                    if write_epoch > self.epoch:
                        pref_undo[tid] = old_row
                        break
            projection = base.columnar().snapshot(n, resurrect, pref_undo)
            if base._mutation_stamp == stamp:
                break
            stamp = base._mutation_stamp
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
