"""Columnar projection of a relation: contiguous numpy mirrors of the rows.

The row store (:class:`repro.cube.relation.Relation`) stays the source of
truth and keeps its counted access paths; a :class:`ColumnarProjection` is
a derived, in-memory acceleration structure the batch kernels gather from
— a contiguous float64 preference matrix, per-dimension boolean code
columns, and a liveness mask.  It never performs (or replaces) counted
page reads: call sites pay the exact same ``BTABLE``/``DBOOL`` I/O as the
scalar path and use the projection only for the per-tuple CPU work.

Lifecycle: projections are built lazily and cached per mutation stamp on
the relation (and per ``(stamp, epoch)`` on a view); any append, tombstone
or preference overwrite invalidates them.  MVCC snapshots are produced by
*patching* the base projection — slicing off rows created after the pinned
epoch, resurrecting rows tombstoned after it, and restoring preference
rows from the undo chains — so views stay cheap when churn is small.

Boolean dimensions may hold arbitrary hashable values (the paper example
uses strings).  Integer columns are stored as themselves; anything else is
dictionary-encoded per column, with query-time values mapped through the
same dictionary (an unseen value matches nothing, exactly like ``==``).
"""

from __future__ import annotations

from typing import Any, Mapping, Sequence

import numpy as np

from repro.cube.schema import Schema

_NUMERIC = (int, float, np.integer, np.floating)


def _is_int_column(values: Sequence[Any]) -> bool:
    return all(
        isinstance(v, (int, np.integer)) and not isinstance(v, bool)
        for v in values
    )


class ColumnarProjection:
    """One relation snapshot, column-major.

    Attributes:
        n: Row count of the snapshot (tids are ``0..n-1``).
        pref: ``(n, n_preference)`` float64, C-contiguous.
        codes: ``(n, n_boolean)`` int64 — raw values for integer columns,
            dictionary codes otherwise.
        encoders: Per boolean dimension, ``None`` for integer columns or
            the ``value -> code`` dictionary.
        live: ``(n,)`` bool — liveness at the snapshot.
    """

    __slots__ = ("schema", "n", "pref", "codes", "encoders", "live")

    def __init__(
        self,
        schema: Schema,
        pref: np.ndarray,
        codes: np.ndarray,
        encoders: tuple[dict[Any, int] | None, ...],
        live: np.ndarray,
    ) -> None:
        self.schema = schema
        self.n = len(pref)
        self.pref = pref
        self.codes = codes
        self.encoders = encoders
        self.live = live

    # ------------------------------------------------------------------ #
    # construction
    # ------------------------------------------------------------------ #

    @classmethod
    def from_rows(
        cls,
        schema: Schema,
        bool_rows: Sequence[tuple],
        pref_rows: Sequence[tuple],
        dead: Sequence[int] = (),
    ) -> "ColumnarProjection":
        """Build from the row store (the lazy rebuild path)."""
        n = len(pref_rows)
        pref = np.array(pref_rows, dtype=np.float64)
        pref = pref.reshape(n, schema.n_preference)
        codes = np.empty((n, schema.n_boolean), dtype=np.int64)
        encoders: list[dict[Any, int] | None] = []
        columns = list(zip(*bool_rows)) if n else [
            () for _ in range(schema.n_boolean)
        ]
        for j in range(schema.n_boolean):
            column = columns[j]
            if _is_int_column(column):
                encoders.append(None)
                codes[:, j] = column
            else:
                mapping: dict[Any, int] = {}
                encoded = np.empty(n, dtype=np.int64)
                for i, value in enumerate(column):
                    code = mapping.get(value)
                    if code is None:
                        code = len(mapping)
                        mapping[value] = code
                    encoded[i] = code
                encoders.append(mapping)
                codes[:, j] = encoded
        live = np.ones(n, dtype=bool)
        dead_in_range = [tid for tid in dead if 0 <= tid < n]
        if dead_in_range:
            live[dead_in_range] = False
        return cls(schema, pref, codes, tuple(encoders), live)

    @classmethod
    def from_matrices(
        cls,
        schema: Schema,
        bool_matrix: np.ndarray,
        pref_matrix: np.ndarray,
    ) -> "ColumnarProjection":
        """Adopt generator output directly (no per-tuple round trip)."""
        pref = np.ascontiguousarray(pref_matrix, dtype=np.float64)
        codes = np.ascontiguousarray(bool_matrix, dtype=np.int64)
        if pref.shape != (len(pref), schema.n_preference):
            raise ValueError("preference matrix width does not match schema")
        if codes.shape != (len(pref), schema.n_boolean):
            raise ValueError("boolean matrix width does not match schema")
        encoders = (None,) * schema.n_boolean
        live = np.ones(len(pref), dtype=bool)
        return cls(schema, pref, codes, encoders, live)

    # ------------------------------------------------------------------ #
    # MVCC: snapshot at an epoch by patching the base projection
    # ------------------------------------------------------------------ #

    def snapshot(
        self,
        n: int,
        resurrect: Sequence[int] = (),
        pref_undo: Mapping[int, Sequence[float]] | None = None,
    ) -> "ColumnarProjection":
        """The projection a view pinned at an epoch sees.

        Args:
            n: Visible row-prefix length at the epoch.
            resurrect: Tids tombstoned *after* the epoch (live in the view).
            pref_undo: Preference rows overwritten after the epoch, mapped
                to the value the pinned reader resolves.
        """
        if not 0 <= n <= self.n:
            raise ValueError(f"snapshot length {n} outside [0, {self.n}]")
        pref = self.pref[:n]
        undo = {
            tid: row
            for tid, row in (pref_undo or {}).items()
            if 0 <= tid < n
        }
        if undo:
            pref = pref.copy()
            for tid, row in undo.items():
                pref[tid] = row
        live = self.live[:n].copy()
        back = [tid for tid in resurrect if 0 <= tid < n]
        if back:
            live[back] = True
        return ColumnarProjection(
            self.schema, pref, self.codes[:n], self.encoders, live
        )

    # ------------------------------------------------------------------ #
    # batch accessors
    # ------------------------------------------------------------------ #

    def encode(self, position: int, value: Any) -> int | None:
        """The code a query value compares against (``None`` = no match)."""
        encoder = self.encoders[position]
        if encoder is not None:
            return encoder.get(value)
        if isinstance(value, bool):
            return int(value)
        if isinstance(value, _NUMERIC):
            as_int = int(value)
            return as_int if as_int == value else None
        return None

    def match_mask(self, conjuncts: Mapping[str, Any]) -> np.ndarray:
        """Rows satisfying every conjunct (liveness *not* applied)."""
        mask = np.ones(self.n, dtype=bool)
        for dim, value in conjuncts.items():
            position = self.schema.boolean_position(dim)
            code = self.encode(position, value)
            if code is None:
                mask = np.zeros(self.n, dtype=bool)
                break
            mask &= self.codes[:, position] == code
        return mask

    def pref_block(self, tids: Sequence[int]) -> np.ndarray:
        """Gather preference rows as a float64 matrix.

        Batch kernels take the matrix directly (same float64 bits, no
        per-row tuples), so a gather feeding ``score_block`` never
        round-trips through Python objects.
        """
        ids = (
            tids
            if isinstance(tids, np.ndarray)
            else np.asarray(tids, dtype=np.int64)
        )
        return self.pref[ids]
