"""Online fuzzy checkpoints and point-in-time restore.

Without checkpoints, restoring a P-Cube from its disk means replaying the
*entire* committed WAL archive — recovery time grows linearly with history.
A checkpoint bounds that: it captures the base relation (the system's
ground truth — every index structure is a deterministic function of it and
the build configuration) at a known LSN watermark, so restore loads the
newest checkpoint at or below the target and replays only the archive
segments past its watermark.  With the WAL's sealed-segment directory
(:meth:`~repro.core.wal.MaintenanceWAL.read_committed` skips a sealed
segment for the price of one seal-page read), restore I/O stays roughly
flat in total WAL length.

**Online and fuzzy, but consistent.**  :meth:`CheckpointManager.create`
runs under :meth:`EpochManager.exclusive ` — the writer lock *without* a
building epoch — so no maintenance operation can interleave with the copy,
while readers keep serving the published snapshot untouched (the
checkpointer is just another reader of quiescent structures).  A pending
WAL operation refuses the checkpoint outright: a checkpoint must capture a
committed state.

**Commit point.**  Row chunk pages (``ckpt:c<N>:rows``) are written
first, the manifest page (``ckpt:c<N>:manifest``) last — the ``ckpt``
prefix is the module constant :data:`CHECKPOINT_TAG`.  A crash anywhere
in between leaves orphan row pages and no manifest, which
:meth:`CheckpointManager.catalog` never lists and
:meth:`CheckpointManager.gc_orphans` reclaims.  Every page carries the
WAL's record CRC, so a torn manifest or chunk is detected at read time and
restore falls back to the next older checkpoint.

**Restore semantics.**  :func:`restore_system` rebuilds onto a *fresh*
disk: relation from the checkpoint image, committed operations with
``watermark ≤ commit_lsn ≤ to_lsn`` re-applied at the relation level, then
R-tree and signatures rebuilt deterministically via
:func:`~repro.system.build_system` with the manifest's recorded
configuration (fanout, codec and page size).  Operations uncommitted at
the crash (or past ``--to-lsn``) never happened: restore keeps the
committed prefix.  :meth:`~repro.system.PCubeSystem.recover` keeps more —
in place, it rolls a pending operation's intent forward — so the two
differ by exactly that operation (DESIGN.md §11).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

from repro.core.wal import (
    MaintenanceWAL,
    WalCorruptionError,
    apply_committed_op,
    seal_record,
    verify_record,
)
from repro.cube.relation import Relation
from repro.cube.schema import Schema
from repro.storage.disk import SimulatedDisk
from repro.storage.errors import CorruptPageError
from repro.storage.page import DEFAULT_PAGE_SIZE, Page

if TYPE_CHECKING:  # pragma: no cover
    from repro.system import PCubeSystem

#: Rows per checkpoint chunk page (the simulator accounts logical sizes,
#: so this mirrors the heap's own packing closely enough).
_ROW_HEADER_BYTES = 4
_VALUE_BYTES = 8
_MANIFEST_BYTES = 64

#: Page-tag prefix of every checkpoint page: checkpoint ``N`` writes
#: ``ckpt:cN:rows`` chunks and one ``ckpt:cN:manifest`` commit page.
CHECKPOINT_TAG = "ckpt"
#: The I/O category restore's checkpoint reads are accounted under.
CHECKPOINT_CATEGORY = "ckpt"


class CheckpointError(RuntimeError):
    """Checkpoint creation or restore could not proceed."""


@dataclass(frozen=True)
class CheckpointInfo:
    """One valid checkpoint, as the catalog lists it."""

    checkpoint_id: int
    epoch: int
    watermark_lsn: int
    n_rows: int
    n_tombstones: int
    row_pages: tuple[int, ...]
    manifest_page: int

    @classmethod
    def of(cls, manifest: dict[str, Any], manifest_page: int) -> CheckpointInfo:
        """The catalog entry a manifest describes."""
        return cls(
            checkpoint_id=manifest["checkpoint_id"],
            epoch=manifest["epoch"],
            watermark_lsn=manifest["watermark_lsn"],
            n_rows=manifest["n_rows"],
            n_tombstones=len(manifest["tombstones"]),
            row_pages=tuple(manifest["row_pages"]),
            manifest_page=manifest_page,
        )


@dataclass
class RestoreResult:
    """What :func:`restore_system` produced and what it cost."""

    system: "PCubeSystem"
    checkpoint: CheckpointInfo
    ops_replayed: int
    row_pages_read: int = 0
    fallbacks: int = 0
    wal_metrics: dict[str, int] = field(default_factory=dict)


class CheckpointManager:
    """Creates and catalogs checkpoints on a system's own disk.

    Args:
        system: The live system (its disk hosts the checkpoint pages,
            tagged under :data:`CHECKPOINT_TAG`).
    """

    def __init__(self, system: "PCubeSystem") -> None:
        self.system = system

    # ------------------------------------------------------------------ #
    # create
    # ------------------------------------------------------------------ #

    def create(self) -> CheckpointInfo:
        """Capture a consistent checkpoint; returns its catalog entry.

        Raises:
            CheckpointError: while the WAL holds an uncommitted operation
                (recover first — a checkpoint captures committed state
                only).
        """
        system = self.system
        with system.epochs.exclusive():
            if system.wal.pending() is not None:
                raise CheckpointError(
                    "the WAL holds an uncommitted operation; run recover() "
                    "before checkpointing"
                )
            return self._create_locked()

    def _create_locked(self) -> CheckpointInfo:
        system = self.system
        relation = system.relation
        disk = system.disk
        checkpoint_id = self._next_id()
        watermark = system.wal.next_lsn
        epoch = system.epochs.current_epoch
        schema = relation.schema
        row_bytes = _ROW_HEADER_BYTES + _VALUE_BYTES * (
            schema.n_boolean + schema.n_preference
        )
        rows_per_chunk = max(1, disk.page_size // row_bytes)
        n_rows = len(relation)
        row_pages: list[int] = []
        for start in range(0, max(n_rows, 1), rows_per_chunk):
            tids = range(start, min(start + rows_per_chunk, n_rows))
            chunk = {
                "kind": "rows",
                "checkpoint_id": checkpoint_id,
                "start": start,
                "bools": [relation.bool_row(tid) for tid in tids],
                "prefs": [relation.pref_point(tid) for tid in tids],
            }
            row_pages.append(
                disk.allocate(
                    f"{CHECKPOINT_TAG}:c{checkpoint_id}:rows",
                    size=max(1, len(tids)) * row_bytes,
                    payload=seal_record(chunk),
                )
            )
        tombstones = sorted(
            tid for tid in relation.tids() if not relation.is_live(tid)
        )
        manifest = {
            "kind": "manifest",
            "checkpoint_id": checkpoint_id,
            "epoch": epoch,
            "watermark_lsn": watermark,
            "n_rows": n_rows,
            "tombstones": tombstones,
            "row_pages": row_pages,
            "schema": {
                "boolean_dims": list(schema.boolean_dims),
                "preference_dims": list(schema.preference_dims),
            },
            "config": {
                "fanout": system.pcube.fanout,
                "codec": system.pcube.store.codec,
                "page_size": disk.page_size,
            },
            # Informational: the derived-structure inventory at the
            # watermark (restore rebuilds these, it does not read them).
            "signature_cells": sorted(system.pcube.store.cells()),
            "rtree_size": len(system.rtree),
        }
        manifest_page = disk.allocate(
            f"{CHECKPOINT_TAG}:c{checkpoint_id}:manifest",
            size=_MANIFEST_BYTES + _VALUE_BYTES * len(tombstones),
            payload=seal_record(manifest),
        )
        return CheckpointInfo.of(manifest, manifest_page)

    def _next_id(self) -> int:
        ids = [cid for _, cid in self._claims() if isinstance(cid, int)]
        return max(ids, default=-1) + 1

    def _claims(self) -> list[tuple[Page, Any]]:
        """(page, the checkpoint id it claims) for every checkpoint page
        holding a dict — valid or not."""
        return [
            (page, page.payload.get("checkpoint_id"))
            for page in self.system.disk.pages(f"{CHECKPOINT_TAG}:c")
            if isinstance(page.payload, dict)
        ]

    # ------------------------------------------------------------------ #
    # catalog & housekeeping
    # ------------------------------------------------------------------ #

    def catalog(self) -> list[CheckpointInfo]:
        return catalog_checkpoints(self.system.disk)

    def gc_orphans(self) -> int:
        """Free row chunks of checkpoints that never got a valid manifest
        (the residue of a crash mid-create); returns pages freed."""
        disk = self.system.disk
        valid_ids = {info.checkpoint_id for info in self.catalog()}
        freed = 0
        for page, cid in self._claims():
            if cid not in valid_ids:
                disk.free(page.page_id)
                freed += 1
        return freed

    def prune(self, keep: int) -> int:
        """Drop all but the newest ``keep`` checkpoints; returns pages
        freed.  The newest checkpoints stay so restore retains fallbacks."""
        if keep < 1:
            raise ValueError("keep must be >= 1")
        disk = self.system.disk
        freed = 0
        for info in self.catalog()[:-keep]:
            for page_id in (*info.row_pages, info.manifest_page):
                if disk.exists(page_id):
                    disk.free(page_id)
                    freed += 1
        return freed


def catalog_checkpoints(disk: SimulatedDisk) -> list[CheckpointInfo]:
    """Valid checkpoints on a disk, oldest first.

    Validity is the manifest's page checksum plus its record CRC; row
    chunks are *not* read here (restore verifies them and falls back on
    damage).  Works on a crashed disk image — no live system needed.
    """
    infos: list[CheckpointInfo] = []
    for page in disk.pages(f"{CHECKPOINT_TAG}:c"):
        if not page.tag.endswith(":manifest"):
            continue
        manifest = verify_record(page)
        if manifest is None:
            continue
        infos.append(CheckpointInfo.of(manifest, page.page_id))
    infos.sort(key=lambda info: info.checkpoint_id)
    return infos


def restore_system(
    source_disk: SimulatedDisk,
    to_lsn: int | None = None,
) -> RestoreResult:
    """Rebuild a system from a disk image's checkpoints + WAL archive.

    Picks the newest checkpoint whose watermark does not exceed ``to_lsn``
    (newest overall when ``to_lsn`` is ``None``), loads its relation image,
    replays the committed archive window behind it, and rebuilds every
    derived structure deterministically.  A checkpoint whose chunks fail
    verification is skipped in favour of the next older one
    (``fallbacks`` counts these).

    All checkpoint reads are accounted under :data:`CHECKPOINT_CATEGORY`
    and the WAL replay under :data:`~repro.core.wal.WAL_CATEGORY` — the
    recovery-I/O numbers the durability benchmark gates.
    """
    candidates = [
        info
        for info in catalog_checkpoints(source_disk)
        if to_lsn is None or info.watermark_lsn - 1 <= to_lsn
    ]
    if not candidates:
        raise CheckpointError(
            "no usable checkpoint on this disk"
            + (f" at or below lsn {to_lsn}" if to_lsn is not None else "")
        )
    fallbacks = 0
    last_error: Exception | None = None
    for info in reversed(candidates):
        try:
            result = _restore_from(source_disk, info, to_lsn)
            result.fallbacks = fallbacks
            return result
        except (CorruptPageError, CheckpointError, WalCorruptionError) as exc:
            fallbacks += 1
            last_error = exc
    raise CheckpointError(
        f"every candidate checkpoint failed verification: {last_error!r}"
    )


def _restore_from(
    source_disk: SimulatedDisk,
    info: CheckpointInfo,
    to_lsn: int | None,
) -> RestoreResult:
    from repro.system import build_system

    source_disk.read(info.manifest_page, CHECKPOINT_CATEGORY)
    manifest = verify_record(source_disk.peek(info.manifest_page))
    if manifest is None:
        raise CheckpointError(
            f"checkpoint {info.checkpoint_id}: manifest fails its CRC"
        )
    bools: list[tuple] = []
    prefs: list[tuple] = []
    for page_id in manifest["row_pages"]:
        source_disk.read(page_id, CHECKPOINT_CATEGORY)
        chunk = verify_record(source_disk.peek(page_id))
        if (
            chunk is None
            or chunk.get("checkpoint_id") != info.checkpoint_id
            or chunk.get("start") != len(bools)
        ):
            raise CheckpointError(
                f"checkpoint {info.checkpoint_id}: row chunk page "
                f"{page_id} fails verification"
            )
        bools.extend(tuple(row) for row in chunk["bools"])
        prefs.extend(tuple(row) for row in chunk["prefs"])
    if len(bools) != manifest["n_rows"]:
        raise CheckpointError(
            f"checkpoint {info.checkpoint_id}: row image incomplete "
            f"({len(bools)} of {manifest['n_rows']} rows)"
        )
    schema = Schema(
        boolean_dims=tuple(manifest["schema"]["boolean_dims"]),
        preference_dims=tuple(manifest["schema"]["preference_dims"]),
    )
    config = manifest["config"]
    # A manifest written before the page size was recorded restores onto
    # the default page; a field no build reads (older manifests say whether
    # the build made B+-trees) is ignored.
    page_size = config.get("page_size", DEFAULT_PAGE_SIZE)
    relation = Relation(
        schema, bools, prefs, disk=SimulatedDisk(page_size=page_size)
    )
    for tid in manifest["tombstones"]:
        relation.tombstone(tid)
    ops, wal_metrics = MaintenanceWAL.read_committed(
        source_disk,
        after_lsn=info.watermark_lsn - 1,
        upto_lsn=to_lsn,
    )
    for op in ops:
        apply_committed_op(relation, op)
    system = build_system(
        relation, fanout=config["fanout"], codec=config["codec"]
    )
    return RestoreResult(
        system=system,
        checkpoint=info,
        ops_replayed=len(ops),
        row_pages_read=len(manifest["row_pages"]),
        wal_metrics=wal_metrics,
    )


__all__ = [
    "CHECKPOINT_CATEGORY",
    "CHECKPOINT_TAG",
    "CheckpointError",
    "CheckpointInfo",
    "CheckpointManager",
    "RestoreResult",
    "catalog_checkpoints",
    "restore_system",
]
