"""The maintenance write-ahead log: checksummed, segmented, archived.

Incremental maintenance (paper Section IV-B.3) mutates three structures —
the base relation's heap, the R-tree and the per-cell signatures — and
PR 1's read-path contract (signatures are stale-but-rebuildable, never
silently wrong) only holds if a crash between those mutations is
recoverable.  This module journals every maintenance operation so that
:meth:`repro.system.PCubeSystem.recover` can redo whatever a crash
interrupted, and retains the committed history as a segmented archive that
checkpoint-based point-in-time restore (:mod:`repro.core.checkpoint`)
replays.

Record protocol — one disk page per record, tag ``wal:rec:s<segment>``
(the tags are module constants, :data:`RECORD_TAG` and :data:`SEAL_TAG`).
An operation writes two records:

1. ``intent`` — written by :meth:`MaintenanceWAL.begin` *before any other
   page is touched*.  Carries the operation name and everything needed to
   re-apply its relation-level effect: the rows (and the pre-operation
   relation length, so replay knows which appends already happened) for
   inserts, the tid for deletes, the tid and new preference row for
   updates.  :func:`replay_intent` is that re-apply, for recovery and
   restore alike.  Everything above the relation — the R-tree and every
   cell signature — is a function of the relation, so an intent without a
   commit is redone by replaying it and rebuilding those as the build does.
2. ``commit`` — the operation's happy ending.  A single record append is
   atomic at page granularity, so the operation is observably either
   committed or not; its records are *retained* (they are the archive
   point-in-time restore consumes) instead of freed.

Every durable dict record — WAL records, segment seals, checkpoint
manifests and row chunks — is stamped by :func:`seal_record` with a CRC32
over its canonical text (``"crc"``: the C JSON encoder's, keys sorted, a
tuple written as a list, :func:`record_crc`) and read back through
:func:`verify_record`, which recomputes it from the record's content.
Page checksums fingerprint a dict payload by type only (structural
payloads are legitimately mutated in place elsewhere), so without the
per-record CRC a torn or bit-flipped record tail would be
indistinguishable from a valid record.  Replay classifies damage by LSN
position:

* **tail** damage (every unreadable record sits above the highest valid
  LSN) is the signature of a torn final write — :meth:`repair_tail`
  truncates it and recovery proceeds as if the crash preceded the torn
  records;
* **interior** damage (an unreadable record below valid ones, or a gap in
  the LSN sequence) cannot be explained by a crash and is fail-stop:
  :class:`WalCorruptionError` with ``truncatable=False``.

Segmentation: records append to the *active* segment; when a commit pushes
the segment's logical size past :attr:`MaintenanceWAL.segment_bytes`, the
segment is *sealed* — a small directory page (tag ``wal:seal``) records its
``[first_lsn, last_lsn]`` range — and a fresh segment becomes active.
Rotation happens only at commit boundaries, so one operation's records
never span segments; restore can therefore skip a whole sealed segment
(reading only its one seal page) when its range falls at or below a
checkpoint watermark.  :meth:`prune_upto` drops sealed segments a
checkpoint has made redundant.

Exactly one operation may be in flight; :meth:`MaintenanceWAL.begin` raises
while a pending operation exists, forcing recovery before new work — the
same discipline a single-writer maintenance thread would enforce.

The *disk pages* are the WAL's source of truth: :meth:`MaintenanceWAL
.pending` reconstructs the in-flight operation from whatever record pages
survived, in LSN order, precisely because a crash leaves the in-memory
bookkeeping untrustworthy.
"""

from __future__ import annotations

import json
import time
import zlib
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Sequence

from repro.query.stats import MaintenanceStats
from repro.storage.disk import SimulatedDisk
from repro.storage.errors import CorruptPageError
from repro.storage.page import Page

#: Nominal on-disk sizes (the simulator accounts space, not bytes-exact
#: encodings): a fixed record header plus per-item costs.
_RECORD_HEADER_BYTES = 24
_VALUE_BYTES = 8

#: Default segment-rotation threshold: logical record bytes per segment.
DEFAULT_SEGMENT_BYTES = 4096

#: Page-tag prefix of every record page (segment ``N``'s records are tagged
#: ``wal:rec:sN``) and the tag of every segment seal.
RECORD_TAG = "wal:rec"
SEAL_TAG = "wal:seal"
#: The I/O category restore's archive reads are accounted under.
WAL_CATEGORY = "wal"

#: The op names whose intent appends rows (``base`` + ``rows``).
_INSERTS = ("insert", "insert_batch")

#: The one canonical text form a record CRC covers (:func:`record_crc`).
_CANONICAL = json.JSONEncoder(sort_keys=True, separators=(",", ":"), default=repr)


class WalCorruptionError(RuntimeError):
    """The WAL holds records that fail their checksums.

    Attributes:
        truncatable: ``True`` when every damaged record sits strictly above
            the highest valid LSN — the torn-tail case
            :meth:`MaintenanceWAL.repair_tail` truncates.  ``False`` means
            interior corruption: valid records exist above the damage, so
            truncating would silently drop committed history — fail-stop.
        pages: The damaged page ids.
    """

    def __init__(
        self, message: str, pages: Sequence[int] = (), truncatable: bool = False
    ) -> None:
        super().__init__(message)
        self.pages = list(pages)
        self.truncatable = truncatable


def _repr_keys(value: Any) -> Any:
    """``value`` with every dict key replaced by its ``repr`` — a record
    whose keys do not sort against each other (``1`` and ``"a"``), or are
    no JSON keys at all, is encoded through this copy."""
    if isinstance(value, dict):
        return {repr(key): _repr_keys(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_repr_keys(item) for item in value]
    return value


def record_crc(record: dict[str, Any]) -> int:
    """CRC32 over every field of a record except ``"crc"`` itself.

    The content is encoded canonically by the C JSON encoder — keys
    sorted, a tuple written as a list (records round-trip as live Python
    objects), floats by ``repr``, anything else JSON cannot hold by
    ``repr`` — so the CRC depends on the values, never on dict order.
    """
    content = {k: v for k, v in record.items() if k != "crc"}
    try:
        text = _CANONICAL.encode(content)
    except TypeError:
        text = _CANONICAL.encode(_repr_keys(content))
    return zlib.crc32(text.encode())


def seal_record(record: dict[str, Any]) -> dict[str, Any]:
    """Stamp a durable dict record with its CRC; returns the record."""
    record["crc"] = record_crc(record)
    return record


def verify_record(page: Page) -> dict[str, Any] | None:
    """The sealed dict record a page holds, or ``None`` if it is damaged.

    Checks both the page checksum (catches a payload replaced wholesale)
    and the record CRC (catches content tampered in place, which the
    type-based page fingerprint of a dict payload cannot see).
    """
    try:
        page.verify()
    except CorruptPageError:
        return None
    record = page.payload
    if isinstance(record, dict) and record.get("crc") == record_crc(record):
        return record
    return None


#: A page -> record verdict: :func:`verify_record`, or a counted read of it.
_Verify = Callable[[Page], "dict[str, Any] | None"]


@dataclass(frozen=True)
class PendingOp:
    """One interrupted maintenance operation — an intent without a commit —
    reconstructed from disk."""

    op_id: int
    op: str
    payload: dict[str, Any]


@dataclass(frozen=True)
class CommittedOp:
    """One committed operation from the archive, as restore replays it."""

    op_id: int
    op: str
    payload: dict[str, Any]
    commit_lsn: int


@dataclass
class SegmentInfo:
    """Catalog entry for one WAL segment (live or sealed)."""

    segment: int
    records: int
    first_lsn: int
    last_lsn: int
    bytes: int
    sealed: bool


@dataclass
class _Journal:
    """What one scan of record pages says: the valid records (LSN order),
    the damaged page ids, the operations by op id (from their intents),
    op id -> commit LSN, and each segment's catalog entry (``sealed`` left
    to the seal pages)."""

    records: list[dict[str, Any]] = field(default_factory=list)
    damaged: list[int] = field(default_factory=list)
    ops: dict[int, PendingOp] = field(default_factory=dict)
    commits: dict[int, int] = field(default_factory=dict)
    segments: dict[int, SegmentInfo] = field(default_factory=dict)


def _classify(pages: Iterable[Page], verify: _Verify = verify_record) -> _Journal:
    """Group verified record pages into operations — the one classifier.

    A record ``verify`` rejects, or one without an integer LSN, is damaged.
    """
    journal = _Journal()
    valid = []
    for page in pages:
        record = verify(page)
        if record is None or not isinstance(record.get("lsn"), int):
            journal.damaged.append(page.page_id)
        else:
            valid.append((page, record))
    valid.sort(key=lambda item: item[1]["lsn"])
    for page, record in valid:
        journal.records.append(record)
        op_id, kind, lsn = record["op_id"], record["kind"], record["lsn"]
        info = journal.segments.setdefault(
            record["segment"], SegmentInfo(record["segment"], 0, lsn, lsn, 0, False)
        )
        info.records += 1
        info.last_lsn = lsn
        info.bytes += page.size
        if kind == "intent":
            journal.ops[op_id] = PendingOp(
                op_id=op_id, op=record["op"], payload=dict(record["payload"])
            )
        elif kind == "commit":
            journal.commits[op_id] = lsn
    return journal


def _seal_pages(
    pages: Iterable[Page], verify: _Verify = verify_record
) -> tuple[dict[int, dict[str, Any]], list[tuple[int, int | None]]]:
    """(segment -> valid seal record, damaged ``(page_id, claimed)``).

    A damaged seal's ``segment`` field is reported when still readable:
    it cannot be *trusted* (restore never skips on it) but it is
    evidence the segment was once sealed, which reopen uses to keep
    appending past it rather than into it.
    """
    seals: dict[int, dict[str, Any]] = {}
    damaged: list[tuple[int, int | None]] = []
    for page in pages:
        seal = verify(page)
        if seal is not None:
            seals[seal["segment"]] = seal
            continue
        claimed = (
            page.payload.get("segment")
            if isinstance(page.payload, dict)
            else None
        )
        damaged.append(
            (page.page_id, claimed if isinstance(claimed, int) else None)
        )
    return seals, damaged


def _segment_tag(segment: int) -> str:
    return f"{RECORD_TAG}:s{segment}"


def replay_intent(relation, op: PendingOp | CommittedOp) -> None:
    """Re-apply an intent's relation-level effect (recovery and restore).

    Idempotent: an insert appends only the rows past the
    ``len(relation) - base`` already in (a crash may have let some in), and
    a tombstone or a preference overwrite may be repeated.
    """
    payload = op.payload
    if op.op in _INSERTS:
        appended = len(relation) - payload["base"]
        for bool_row, pref_row in payload["rows"][appended:]:
            relation.append(tuple(bool_row), tuple(pref_row))
    elif op.op == "delete":
        relation.tombstone(payload["tid"])
    elif op.op == "update":
        relation.overwrite_pref(payload["tid"], tuple(payload["pref_row"]))
    else:  # pragma: no cover - begin() only journals the four ops
        raise WalCorruptionError(
            f"unknown journalled op {op.op!r}", truncatable=False
        )


class MaintenanceWAL:
    """Intent journal for the incremental-maintenance drivers.

    Args:
        disk: The system disk (records live beside the structures they
            protect, under :data:`RECORD_TAG` and :data:`SEAL_TAG`).
        stats: Shared maintenance tallies (record/commit counts).
        segment_bytes: Rotation threshold — once a commit pushes the
            active segment's logical record bytes to or past this, the
            segment is sealed and a new one opened.
    """

    def __init__(
        self,
        disk: SimulatedDisk,
        stats: MaintenanceStats | None = None,
        segment_bytes: int = DEFAULT_SEGMENT_BYTES,
    ) -> None:
        if segment_bytes <= 0:
            raise ValueError("segment_bytes must be positive")
        self.disk = disk
        self.stats = stats if stats is not None else MaintenanceStats()
        self.segment_bytes = segment_bytes
        self._reopen()

    # ------------------------------------------------------------------ #
    # the record pages
    # ------------------------------------------------------------------ #

    @property
    def next_lsn(self) -> int:
        """The LSN the next record will take (the checkpoint watermark)."""
        return self._next_lsn

    def _scan(self) -> _Journal:
        """Every record page on the disk, classified."""
        return _classify(self.disk.pages(RECORD_TAG))

    def _reopen(self) -> None:
        """Rebuild counters and segment state from surviving pages.

        "Reopen" semantics: a WAL constructed over a disk with live records
        must not reuse their LSNs or op ids, must resume the correct active
        segment, and must notice an uncommitted operation (which blocks new
        maintenance until :meth:`repro.system.PCubeSystem.recover` runs).
        Damaged records do not fail construction — they block :meth:`begin`
        until :meth:`repair_tail` classifies and clears them.
        """
        record_pages = list(self.disk.pages(RECORD_TAG))
        journal = _classify(record_pages)
        seals, damaged_seals = _seal_pages(self.disk.pages(SEAL_TAG))
        records = journal.records
        self._has_damage = bool(journal.damaged or damaged_seals)
        self._next_lsn = records[-1]["lsn"] + 1 if records else 0
        self._next_op_id = max((r["op_id"] for r in records), default=-1) + 1
        self.last_commit_lsn: int | None = max(
            journal.commits.values(), default=None
        )
        # begin() forbids more than one open op; tolerate what the disk says.
        open_ops = set(journal.ops) - set(journal.commits)
        #: The op currently open (begin succeeded, commit not yet) — the
        #: in-memory fast path behind :meth:`begin`'s one-in-flight rule.
        self._open_op: int | None = max(open_ops, default=None)
        #: Wall-clock (monotonic) moment the in-flight op journalled its
        #: intent; ``None`` when no op is open.  The serving supervisor
        #: uses it to flag stalled maintenance.
        self.pending_since: float | None = (
            time.monotonic() if open_ops else None
        )
        # Append past every sealed segment, even one whose seal is damaged.
        sealed = [*seals, *(claim for _, claim in damaged_seals if claim is not None)]
        self._active_segment = max([0, *journal.segments, *(s + 1 for s in sealed)])
        active = journal.segments.get(self._active_segment)
        self._active_bytes = (
            active.bytes - _RECORD_HEADER_BYTES * active.records if active else 0
        )
        #: The active segment's record page ids, in allocation order: what
        #: a seal classifies, instead of scanning every page on the disk.
        active_tag = _segment_tag(self._active_segment)
        self._active_pages = [
            page.page_id for page in record_pages if page.tag == active_tag
        ]

    def _append(self, record: dict[str, Any], size: int) -> int:
        record["lsn"] = self._next_lsn
        record["segment"] = self._active_segment
        seal_record(record)
        self._next_lsn += 1
        page_id = self.disk.allocate(
            _segment_tag(record["segment"]),
            size=_RECORD_HEADER_BYTES + size,
            payload=record,
        )
        self._active_pages.append(page_id)
        self._active_bytes += size
        self.stats.bump(wal_records=1)
        return record["lsn"]

    def _write_seal(self, info: SegmentInfo) -> None:
        """Write a segment's seal page: its directory entry, which restore
        reads (one page) to learn the segment's LSN range and skip the
        whole segment when it falls below a checkpoint watermark."""
        seal = {
            "kind": "seal",
            "segment": info.segment,
            "first_lsn": info.first_lsn,
            "last_lsn": info.last_lsn,
            "records": info.records,
        }
        self.disk.allocate(
            SEAL_TAG, size=_RECORD_HEADER_BYTES, payload=seal_record(seal)
        )

    # ------------------------------------------------------------------ #
    # the journalling protocol
    # ------------------------------------------------------------------ #

    def begin(self, op: str, **payload: Any) -> int:
        """Journal an operation's intent; returns its op id.

        Raises:
            RuntimeError: while a previous operation's records survive, or
                while damaged records await :meth:`repair_tail` — recovery
                must run before new maintenance starts.
        """
        if self._open_op is not None or self._has_damage:
            raise RuntimeError(
                "the WAL holds an interrupted maintenance operation; "
                "run recover() before starting new maintenance"
            )
        op_id = self._next_op_id
        self._next_op_id += 1
        size = _VALUE_BYTES * (
            1 + sum(len(str(value)) for value in payload.values())
        )
        self._append(
            {"op_id": op_id, "kind": "intent", "op": op, "payload": payload},
            size=size,
        )
        # Only after the intent is durable: a crash inside the append means
        # the operation never happened and nothing is pending.
        self._open_op = op_id
        self.pending_since = time.monotonic()
        return op_id

    def log_changes(self, op_id: int, changes: Sequence[tuple]) -> None:
        """Journal merged path changes — called by nothing.

        It and :meth:`log_cell_stored` fed a recovery arm that finished an
        interrupted store phase in place; recovery now rebuilds, and
        :func:`_classify` reads neither record kind.  Both stay only
        because the frozen e2e recorder (``benchmarks/e2e/tracing.py``)
        names them as targets.
        """
        self._append(
            {"op_id": op_id, "kind": "changes", "changes": list(changes)},
            size=_VALUE_BYTES * len(changes),
        )

    def log_cell_stored(self, op_id: int, cell_id: str) -> None:
        """Journal one stored cell — called by nothing (see
        :meth:`log_changes`)."""
        self._append(
            {"op_id": op_id, "kind": "cell", "cell_id": cell_id},
            size=len(cell_id),
        )

    def commit(self, op_id: int) -> None:
        """Append the commit record — the atomic happy ending.

        A single page allocation either lands or it does not; once it has,
        the operation is durably committed and its records join the
        archive.  If the commit pushed the active segment past
        :attr:`segment_bytes`, the segment is sealed and rotated (a crash
        between commit and seal merely defers the seal to the next commit).
        """
        self.last_commit_lsn = self._append(
            {"op_id": op_id, "kind": "commit"}, size=0
        )
        self.stats.bump(wal_commits=1)
        if self._open_op == op_id:
            self._open_op = None
            self.pending_since = None
        if self._active_bytes >= self.segment_bytes:
            self._seal_active()

    def _seal_active(self) -> None:
        """Seal the active segment and open the next one."""
        segment = self._active_segment
        pages = map(self.disk.peek, self._active_pages)
        info = _classify(pages).segments.get(segment)
        if info is None:  # pragma: no cover - commit just wrote a record
            return
        self._write_seal(info)
        self._active_segment = segment + 1
        self._active_bytes = 0
        self._active_pages = []
        self.stats.bump(wal_segments_sealed=1)

    # ------------------------------------------------------------------ #
    # recovery-side view
    # ------------------------------------------------------------------ #

    def repair_tail(self) -> int:
        """Truncate torn/corrupt tail records; returns pages freed.

        Damage is *tail* exactly when the surviving valid records form a
        contiguous LSN run and every unreadable record page can only sit
        above it — the footprint of a write torn by the crash.  Valid
        records above an unreadable one (an LSN gap, or a damaged record
        whose LSN is still readable below the maximum) mean interior
        corruption, which truncation cannot explain away; that is
        fail-stop.

        A damaged *seal* page is rebuilt from its segment's surviving
        records (the seal is derived metadata, never the only copy).
        """
        journal = self._scan()
        seals, damaged_seals = _seal_pages(self.disk.pages(SEAL_TAG))
        damaged = journal.damaged
        lsns = [record["lsn"] for record in journal.records]
        if lsns and lsns[-1] - lsns[0] + 1 != len(lsns):
            raise WalCorruptionError(
                "WAL interior corruption: the surviving records leave gaps "
                f"in the LSN sequence ({len(lsns)} records spanning "
                f"[{lsns[0]}, {lsns[-1]}])",
                pages=damaged,
                truncatable=False,
            )
        max_valid = lsns[-1] if lsns else -1
        for page_id in damaged:
            payload = self.disk.peek(page_id).payload
            claimed = (
                payload.get("lsn") if isinstance(payload, dict) else None
            )
            if isinstance(claimed, int) and claimed < max_valid:
                raise WalCorruptionError(
                    f"WAL interior corruption: record page {page_id} "
                    f"(lsn {claimed}) is damaged but valid records exist "
                    f"above it",
                    pages=[page_id],
                    truncatable=False,
                )
        doomed = [*damaged, *(page_id for page_id, _ in damaged_seals)]
        for page_id in doomed:
            self.disk.free(page_id)
        freed = len(doomed)
        if damaged_seals:
            # Re-derive the lost seals for segments that still hold records
            # below the active segment.
            for segment, info in journal.segments.items():
                if segment < self._active_segment and segment not in seals:
                    self._write_seal(info)
        self._has_damage = False
        if freed:
            self.stats.bump(wal_tail_truncated=freed)
            # Truncation may have removed the only trace of the open op
            # (or its later records); resync the in-memory view from disk.
            self._reopen()
        return freed

    def pending(self) -> PendingOp | None:
        """The interrupted operation the disk records describe, if any.

        Raises :class:`WalCorruptionError` while damaged records survive —
        :meth:`repair_tail` must classify them first (recovery does).
        """
        journal = self._scan()
        if journal.damaged:
            raise WalCorruptionError(
                f"{len(journal.damaged)} WAL record page(s) fail their "
                "checksums; run repair_tail() (recover() does) before "
                "reading the WAL",
                pages=journal.damaged,
                truncatable=True,
            )
        open_ops = [
            pending
            for op_id, pending in journal.ops.items()
            if op_id not in journal.commits
        ]
        if not open_ops:
            return None
        if len(open_ops) != 1:  # pragma: no cover - begin() forbids this
            raise RuntimeError(
                f"WAL holds {len(open_ops)} uncommitted operations; expected 1"
            )
        return open_ops[0]

    def is_empty(self) -> bool:
        """No uncommitted operation (committed archive records may remain)."""
        return self.pending() is None

    # ------------------------------------------------------------------ #
    # the archive
    # ------------------------------------------------------------------ #

    def segments(self) -> list[SegmentInfo]:
        """Catalog of surviving segments, oldest first (tools/CLI view)."""
        seals, _ = _seal_pages(self.disk.pages(SEAL_TAG))
        catalog = self._scan().segments
        for segment in seals:
            empty = SegmentInfo(segment, 0, -1, -1, 0, sealed=True)
            catalog.setdefault(segment, empty).sealed = True
        return [catalog[segment] for segment in sorted(catalog)]

    def prune_upto(self, lsn: int) -> int:
        """Drop sealed segments whose entire range is ``<= lsn``.

        Called after a checkpoint makes the history up to its watermark
        redundant.  Only whole sealed segments go (the active segment and
        any segment straddling ``lsn`` stay), preserving the contiguity of
        the surviving LSN run that :meth:`repair_tail` relies on — pruning
        always removes a prefix of the archive.
        """
        seals, _ = _seal_pages(self.disk.pages(SEAL_TAG))
        freed = 0
        # Oldest-first, stopping at the first segment that must stay: a
        # later prunable segment behind a kept one would break contiguity.
        for segment in sorted(seals):
            if seals[segment]["last_lsn"] > lsn:
                break
            tag = _segment_tag(segment)
            for page in list(self.disk.pages(tag)):
                if page.tag == tag:  # not segment 10's pages when pruning 1
                    self.disk.free(page.page_id)
                    freed += 1
            for page in list(self.disk.pages(SEAL_TAG)):
                if page.payload.get("segment") == segment:
                    self.disk.free(page.page_id)
            self.stats.bump(wal_segments_pruned=1)
        return freed

    @classmethod
    def read_committed(
        cls,
        disk: SimulatedDisk,
        after_lsn: int = -1,
        upto_lsn: int | None = None,
    ) -> tuple[list[CommittedOp], dict[str, int]]:
        """Committed operations with ``after_lsn < commit_lsn <= upto_lsn``.

        The restore-side read path: seal pages are read first (one page per
        sealed segment) and any sealed segment whose ``last_lsn`` falls at
        or below ``after_lsn`` is skipped *without reading its records* —
        this is what keeps checkpointed recovery flat in total WAL length.
        All reads are accounted under :data:`WAL_CATEGORY` so recovery I/O
        is measurable.

        Damaged records that belong to no committed operation are ignored
        (a torn tail); a committed operation whose intent is unreadable is
        interior corruption and raises :class:`WalCorruptionError`.
        """

        def read(page: Page) -> dict[str, Any] | None:
            try:
                disk.read(page.page_id, WAL_CATEGORY)
            except CorruptPageError:
                pass  # verify_record sees the same damage
            return verify_record(page)

        seal_pages = list(disk.pages(SEAL_TAG))
        seals, _ = _seal_pages(seal_pages, read)
        # Record pages are in allocation (= LSN, = segment) order.
        record_pages = list(disk.pages(RECORD_TAG))
        below = {
            _segment_tag(segment)
            for segment, seal in seals.items()
            if seal["last_lsn"] <= after_lsn
        }
        scanned = [page for page in record_pages if page.tag not in below]
        journal = _classify(scanned, read)
        ops: list[CommittedOp] = []
        for op_id, lsn in sorted(journal.commits.items(), key=lambda kv: kv[1]):
            if lsn <= after_lsn or (upto_lsn is not None and lsn > upto_lsn):
                continue
            intent = journal.ops.get(op_id)
            if intent is None:
                raise WalCorruptionError(
                    f"WAL interior corruption: operation {op_id} committed "
                    f"at lsn {lsn} but its intent record is missing "
                    f"or unreadable",
                    truncatable=False,
                )
            ops.append(CommittedOp(op_id, intent.op, intent.payload, lsn))
        tags = {page.tag for page in record_pages}
        metrics = {
            "seal_reads": len(seal_pages),
            "record_reads": len(scanned),
            "segments_skipped": len(tags & below),
            "segments_scanned": len(tags - below),
            "damaged_ignored": len(journal.damaged),
        }
        return ops, metrics


def apply_committed_op(relation, op: CommittedOp) -> None:
    """Re-apply one archived operation's relation-level effect (restore).

    In commit order an insert finds ``len(relation) == base``; anything else
    is an out-of-order archive.  The index structures are rebuilt
    deterministically afterwards, so only the base-relation effect replays.
    """
    if op.op in _INSERTS and op.payload["base"] != len(relation):
        raise WalCorruptionError(
            f"archive replay out of order: op {op.op_id} expects "
            f"relation length {op.payload['base']}, found {len(relation)}",
            truncatable=False,
        )
    replay_intent(relation, op)


__all__ = [
    "CommittedOp",
    "MaintenanceWAL",
    "PendingOp",
    "RECORD_TAG",
    "SEAL_TAG",
    "SegmentInfo",
    "WAL_CATEGORY",
    "WalCorruptionError",
    "apply_committed_op",
    "record_crc",
    "replay_intent",
    "seal_record",
    "verify_record",
]
