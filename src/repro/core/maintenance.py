"""Incremental maintenance drivers (paper Section IV-B.3).

The R-tree reports exact :class:`PathChange` records for every mutation;
:meth:`PCube.apply_changes` patches the affected cell signatures.  This
module provides the end-to-end drivers the update experiments (Figure 7)
time:

* :func:`insert_tuple` — append a row, insert its point, patch signatures;
* :func:`insert_batch` — same for many rows, with change records merged per
  tuple so each dirty cell is re-stored once (the paper observes batch
  maintenance amortises: 100 inserts averaged ~3× cheaper per tuple than a
  single insert in their 1M-tuple run);
* :func:`delete_tuple` / :func:`update_tuple` — the paper treats these as
  "similar" to insertion; the path-change machinery covers them directly.

Every driver optionally runs under a :class:`~repro.core.wal.MaintenanceWAL`
(pass ``wal=``): the operation's intent is journalled before any structure
is touched, the merged path changes after the relation and R-tree phases,
and each dirty cell's completed rewrite as it commits, so a crash at any
point is recoverable (see :meth:`repro.system.PCubeSystem.recover`).
Without a WAL the drivers behave exactly as before — the fast path the
Figure 7 benchmarks time.
"""

from __future__ import annotations

from operator import index
from typing import Callable, Iterable, Iterator, Sequence

from repro.core.pcube import PCube
from repro.core.wal import MaintenanceWAL
from repro.cube.cuboid import Cell
from repro.cube.relation import Relation
from repro.rtree.rtree import PathChange, RTree


def merge_changes(changes: Iterable[PathChange]) -> list[PathChange]:
    """Collapse a change stream to one record per tuple.

    A tuple touched several times keeps its first ``old_path`` and its last
    ``new_path``; no-op pairs are dropped.
    """
    merged: dict[int, PathChange] = {}
    for change in changes:
        existing = merged.get(change.tid)
        if existing is None:
            merged[change.tid] = change
        else:
            merged[change.tid] = PathChange(
                change.tid, existing.old_path, change.new_path
            )
    return [
        change
        for change in merged.values()
        if change.old_path != change.new_path
    ]


def _journalled(
    pcube: PCube,
    wal: MaintenanceWAL | None,
    op: str,
    intent: dict,
    mutate: Callable[[], Iterable[PathChange]],
) -> set[Cell]:
    """The one journalled write: begin → ``mutate()`` (relation, then
    R-tree) → merge → ``log_changes`` → ``apply_changes`` logging each
    stored cell → ``commit``; returns the dirty cells."""
    if wal is None:
        return pcube.apply_changes(merge_changes(mutate()))
    op_id = wal.begin(op, **intent)
    changes = merge_changes(mutate())
    wal.log_changes(op_id, changes)
    dirty = pcube.apply_changes(
        changes,
        on_cell_stored=lambda cell: wal.log_cell_stored(op_id, cell.cell_id),
    )
    wal.commit(op_id)
    return dirty


def _insert_rows(
    relation: Relation, rtree: RTree, pcube: PCube,
    rows: Sequence[tuple[tuple, tuple]], wal: MaintenanceWAL | None, op: str,
) -> tuple[list[int], set[Cell]]:
    """Append and index ``rows`` as one journalled op named ``op``.  Every
    row is checked before the intent is journalled: a row the relation
    would refuse fails the call and leaves no pending operation."""
    tids: list[int] = []
    logged = [relation.check_row(b, p) for b, p in rows]

    def mutate() -> Iterator[PathChange]:
        for bool_row, pref_row in logged:
            tids.append(relation.append(bool_row, pref_row))
            yield from rtree.insert(tids[-1], pref_row)

    intent = dict(base=len(relation), rows=logged)
    dirty = _journalled(pcube, wal, op, intent, mutate)
    return tids, dirty


def insert_tuple(
    relation: Relation,
    rtree: RTree,
    pcube: PCube,
    bool_row: tuple,
    pref_row: tuple,
    wal: MaintenanceWAL | None = None,
) -> tuple[int, set[Cell]]:
    """Insert one tuple end to end; returns (tid, dirty cells).  A batch of
    one row, journalled as ``"insert"``."""
    row = [(bool_row, pref_row)]
    tids, dirty = _insert_rows(relation, rtree, pcube, row, wal, "insert")
    return tids[0], dirty


def insert_batch(
    relation: Relation,
    rtree: RTree,
    pcube: PCube,
    rows: Sequence[tuple[tuple, tuple]],
    wal: MaintenanceWAL | None = None,
) -> tuple[list[int], set[Cell]]:
    """Insert many tuples, patching signatures once at the end."""
    return _insert_rows(relation, rtree, pcube, rows, wal, "insert_batch")


def delete_tuple(
    relation: Relation,
    rtree: RTree,
    pcube: PCube,
    tid: int,
    wal: MaintenanceWAL | None = None,
) -> set[Cell]:
    """Delete a tuple from the index and patch signatures.

    The relation keeps the row as a tombstone (its cell membership is still
    needed to patch the right signatures) but drops it from every live-row
    access path; the R-tree and every signature stop referencing it.
    A tid that is not an integer raises ``TypeError``, an out-of-range one
    ``IndexError``, a deleted one ``KeyError``, before anything is
    journalled.
    """
    tid = index(tid)
    if not 0 <= tid < len(relation):
        raise IndexError(f"tid {tid} out of range")
    if not relation.is_live(tid):
        raise KeyError(f"tid {tid} is not live")

    def mutate() -> list[PathChange]:
        relation.tombstone(tid)
        return rtree.delete(tid)

    return _journalled(pcube, wal, "delete", dict(tid=tid), mutate)


def update_tuple(
    relation: Relation,
    rtree: RTree,
    pcube: PCube,
    tid: int,
    new_pref_row: tuple,
    wal: MaintenanceWAL | None = None,
) -> set[Cell]:
    """Move a tuple in preference space and patch signatures.

    The relation is written *before* the R-tree is touched: overwriting a
    preference row is pure memory (it cannot fail), so an exception inside
    the R-tree mutation can no longer leave the index describing a point
    the relation never adopted.  A tid that is not an integer raises
    ``TypeError``, one that is not live ``KeyError``, before anything is
    journalled.
    """
    tid = index(tid)
    if not relation.is_live(tid):
        raise KeyError(f"tid {tid} is not live")
    pref_row = relation.check_pref(new_pref_row)

    def mutate() -> list[PathChange]:
        relation.overwrite_pref(tid, pref_row)
        return rtree.update(tid, pref_row)

    intent = dict(tid=tid, pref_row=pref_row)
    return _journalled(pcube, wal, "update", intent, mutate)
