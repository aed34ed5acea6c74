"""Columnar projection of a relation: the numpy arrays batch kernels read.

A :class:`ColumnarProjection` is one snapshot of a
:class:`repro.cube.relation.Relation` — its float64 preference matrix, its
per-dimension boolean code columns and a liveness mask — that the batch
kernels gather from.  It never performs (or replaces) counted page reads:
call sites pay the exact same ``BTABLE``/``DBOOL`` I/O as the scalar path
and use the projection only for the per-tuple CPU work.

Lifecycle: the relation hands out views of its own row arrays, cached per
mutation stamp, and never writes a row such a view shows (an overwrite
copies the array first).  MVCC snapshots are produced by *patching* the
base projection — slicing off rows created after the pinned epoch,
resurrecting rows tombstoned after it, and restoring preference rows from
the undo chains — so views stay cheap when churn is small.

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
