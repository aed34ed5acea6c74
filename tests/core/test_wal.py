"""Unit tests for the maintenance write-ahead log."""

import pytest

from repro.core.checkpoint import CheckpointManager
from repro.core.wal import (
    RECORD_TAG,
    SEAL_TAG,
    CommittedOp,
    MaintenanceWAL,
    WalCorruptionError,
    record_crc,
    seal_record,
    verify_record,
)
from repro.data.synthetic import SyntheticConfig, generate_relation
from repro.query.stats import MaintenanceStats
from repro.storage.disk import SimulatedDisk
from repro.storage.page import Page
from repro.system import build_system


@pytest.fixture
def disk():
    return SimulatedDisk()


@pytest.fixture
def wal(disk):
    return MaintenanceWAL(disk)


def _run_op(wal, op_id=None, **payload):
    """One complete journalled operation (begin → commit)."""
    payload = payload or {"base": 0, "rows": []}
    op_id = wal.begin("insert", **payload)
    wal.commit(op_id)
    return op_id


def _record_pages(disk):
    return sorted(disk.pages(RECORD_TAG), key=lambda p: p.page_id)


def test_fresh_wal_is_empty(wal):
    assert wal.is_empty()
    assert wal.pending() is None


def test_begin_journals_a_durable_intent(wal, disk):
    op_id = wal.begin("insert", base=3, rows=[(("a",), (0.1, 0.2))])
    assert not wal.is_empty()
    pending = wal.pending()
    assert pending.op_id == op_id
    assert pending.op == "insert"
    assert pending.payload == {"base": 3, "rows": [(("a",), (0.1, 0.2))]}
    assert len(list(disk.pages("wal:rec"))) == 1


def test_commit_retains_the_archive(wal, disk):
    """Commit appends a commit record instead of freeing the op's pages —
    the committed history is the archive point-in-time restore replays."""
    op_id = wal.begin("update", tid=1, pref_row=(0.5, 0.5))
    wal.commit(op_id)
    assert wal.is_empty()
    assert wal.pending() is None
    # intent + commit, both retained.
    assert len(list(disk.pages("wal:rec"))) == 2
    ops, _ = MaintenanceWAL.read_committed(disk)
    assert [op.op for op in ops] == ["update"]
    assert ops[0].payload == {"tid": 1, "pref_row": (0.5, 0.5)}


def test_begin_refuses_while_an_op_is_pending(wal):
    wal.begin("insert", base=0, rows=[])
    with pytest.raises(RuntimeError, match="recover"):
        wal.begin("insert", base=0, rows=[])


def test_reopen_resumes_lsn_and_op_counters(disk):
    first = MaintenanceWAL(disk)
    op_id = first.begin("delete", tid=2)
    # A "reopened" WAL over the same disk sees the surviving records and
    # must not reuse their ids.
    second = MaintenanceWAL(disk)
    pending = second.pending()
    assert pending.op_id == op_id
    assert pending.payload == {"tid": 2}
    second.commit(pending.op_id)
    assert second.begin("insert", base=0, rows=[]) > op_id


def test_reopen_refuses_new_work_while_an_op_is_pending(disk):
    first = MaintenanceWAL(disk)
    first.begin("delete", tid=2)
    second = MaintenanceWAL(disk)
    with pytest.raises(RuntimeError, match="recover"):
        second.begin("insert", base=0, rows=[])


def test_stats_count_records_and_commits(disk):
    stats = MaintenanceStats()
    wal = MaintenanceWAL(disk, stats=stats)
    op_id = wal.begin("insert", base=0, rows=[])
    wal.commit(op_id)
    # intent + commit: the commit record counts too.
    assert stats.wal_records == 2
    assert stats.wal_commits == 1


# --------------------------------------------------------------------- #
# per-record CRCs
# --------------------------------------------------------------------- #


def test_record_crc_catches_in_place_tampering(wal, disk):
    """Page checksums fingerprint dict payloads by type only, so content
    tampered in place passes ``page.verify()``; the per-record CRC is what
    actually protects the record."""
    wal.begin("delete", tid=7)
    page = _record_pages(disk)[-1]
    page.payload["payload"]["tid"] = 8  # flip a field in place
    page.verify()  # the page checksum is blind to this
    with pytest.raises(WalCorruptionError):
        wal.pending()


def _leaf_paths(value, path=()):
    """The path of every scalar in a record (the ``crc`` field aside)."""
    if isinstance(value, dict):
        for key, item in value.items():
            if path or key != "crc":
                yield from _leaf_paths(item, (*path, key))
    elif isinstance(value, (list, tuple)):
        for index, item in enumerate(value):
            yield from _leaf_paths(item, (*path, index))
    else:
        yield path


def _edited(value, path):
    """A copy of ``value`` with the scalar at ``path`` changed."""
    if not path:
        if isinstance(value, bool):
            return not value
        if isinstance(value, (int, float)):
            return value + 1
        return "x" if value is None else value + "x"
    head, rest = path[0], path[1:]
    if isinstance(value, dict):
        return {**value, head: _edited(value[head], rest)}
    items = list(value)
    items[head] = _edited(items[head], rest)
    return type(value)(items)


def _reshaped(value):
    """The same content with every dict's keys reversed and every tuple a
    list (and every list a tuple)."""
    if isinstance(value, dict):
        return {key: _reshaped(item) for key, item in reversed(value.items())}
    if isinstance(value, tuple):
        return [_reshaped(item) for item in value]
    if isinstance(value, list):
        return tuple(_reshaped(item) for item in value)
    return value


def _every_record_kind():
    """kind -> one sealed page of each record kind the WAL and checkpoints
    write (an intent per op), from a small system's disk."""
    relation = generate_relation(
        SyntheticConfig(
            n_tuples=60, n_boolean=2, cardinality=3, n_preference=2, seed=3
        )
    )
    system = build_system(relation, fanout=4, wal_segment_bytes=64)
    row = (relation.bool_row(0), relation.pref_point(0))
    system.insert(*row)
    system.insert_batch([row, row])
    system.delete(1)
    system.update(2, (0.25, 0.75))
    CheckpointManager(system).create()
    kinds = {}
    for page in system.disk.pages():
        record = page.payload
        if isinstance(record, dict) and "crc" in record:
            kind = record["kind"]
            if kind == "intent":
                kind = f"intent:{record['op']}"
            kinds.setdefault(kind, page)
    return kinds


def _assert_crc_is_of_content(page):
    """The record's CRC ignores dict order and tuple-versus-list, and every
    in-place edit of a field — a changed scalar or a dropped key — makes
    :func:`verify_record` reject the record, while the page checksum (a
    dict's type) still passes."""
    record = page.payload
    original = dict(record)
    assert verify_record(page) is record
    assert record_crc(_reshaped(record)) == record["crc"]
    edits = [_edited(original, path) for path in _leaf_paths(original)]
    edits += [
        {k: v for k, v in original.items() if k != key}
        for key in original
        if key != "crc"
    ]
    for edit in edits:
        record.clear()
        record.update(edit)
        page.verify()
        assert verify_record(page) is None, edit
    record.clear()
    record.update(original)
    assert verify_record(page) is record


def test_every_record_kind_has_a_crc_of_its_content():
    kinds = _every_record_kind()
    assert sorted(kinds) == [
        "commit",
        "intent:delete",
        "intent:insert",
        "intent:insert_batch",
        "intent:update",
        "manifest",
        "rows",
        "seal",
    ]
    for page in kinds.values():
        _assert_crc_is_of_content(page)


def test_a_record_whose_keys_do_not_sort_has_a_crc_of_its_content():
    """Keys of mixed types (or no JSON key type at all) still give one
    CRC for one content."""
    record = seal_record(
        {"kind": "probe", "payload": {1: "a", "b": (2, 3.5), (4, 5): None}}
    )
    page = Page(page_id=0, tag=RECORD_TAG, size=24, payload=record)
    page.seal()
    _assert_crc_is_of_content(page)


def test_torn_tail_is_truncated(disk):
    """A corrupt record above the last valid LSN is a torn write: repair
    truncates it and the WAL reopens clean."""
    wal = MaintenanceWAL(disk)
    _run_op(wal)
    op_id = wal.begin("delete", tid=1)
    tail = _record_pages(disk)[-1]
    tail.payload.clear()
    tail.payload["garbage"] = True
    with pytest.raises(WalCorruptionError) as excinfo:
        wal.pending()
    assert excinfo.value.truncatable
    freed = wal.repair_tail()
    assert freed == 1
    assert not disk.exists(tail.page_id)
    # The torn intent is gone entirely: nothing pending, and new work may
    # start (with a fresh op id — LSNs/op ids never rewind past valid
    # records).
    assert wal.is_empty()
    assert wal.begin("insert", base=0, rows=[]) >= op_id


def test_interior_corruption_is_fail_stop(disk):
    """Damage *below* valid records cannot be a torn tail — committed
    history would be silently lost, so repair refuses."""
    wal = MaintenanceWAL(disk)
    _run_op(wal)
    _run_op(wal)
    first = _record_pages(disk)[0]
    first.payload["kind"] = "garbage"  # still claims its (low) lsn
    with pytest.raises(WalCorruptionError) as excinfo:
        wal.repair_tail()
    assert not excinfo.value.truncatable
    assert first.page_id in excinfo.value.pages


def test_tail_truncation_is_counted(disk):
    stats = MaintenanceStats()
    wal = MaintenanceWAL(disk, stats=stats)
    wal.begin("delete", tid=0)
    _record_pages(disk)[-1].payload["kind"] = "garbage"
    wal.repair_tail()
    assert stats.wal_tail_truncated == 1


# --------------------------------------------------------------------- #
# segmentation & the archive
# --------------------------------------------------------------------- #


def test_rotation_seals_segments_at_commit_boundaries(disk):
    wal = MaintenanceWAL(disk, segment_bytes=1)  # every commit rotates
    for tid in range(3):
        op_id = wal.begin("delete", tid=tid)
        wal.commit(op_id)
    catalog = wal.segments()
    sealed = [info for info in catalog if info.sealed]
    assert len(sealed) == 3
    # Segments partition the LSN sequence contiguously, and no operation
    # spans two segments (rotation only happens after a commit record).
    assert [info.segment for info in sealed] == [0, 1, 2]
    for earlier, later in zip(sealed, sealed[1:]):
        assert later.first_lsn == earlier.last_lsn + 1
    assert all(info.records == 2 for info in sealed)
    assert wal.stats.wal_segments_sealed == 3


class CountingDisk(SimulatedDisk):
    """Counts the pages a WAL looks at: every page a tag-prefix scan
    filters, and every page peeked by id."""

    visited = 0

    def pages(self, tag_prefix=""):
        self.visited += len(self._pages)
        return super().pages(tag_prefix)

    def peek(self, page_id):
        self.visited += 1
        return super().peek(page_id)


def test_a_seal_visits_only_its_own_segment():
    disk = CountingDisk()
    for _ in range(200):
        disk.allocate("rtree", size=64)
    wal = MaintenanceWAL(disk, segment_bytes=1)  # every commit seals
    for tid in range(3):
        op_id = wal.begin("delete", tid=tid)
        disk.visited = 0
        wal.commit(op_id)
        # The intent and commit records of the segment, nothing else.
        assert disk.visited == 2
    assert wal.stats.wal_segments_sealed == 3
    # Reopening scans every record and reads back the same catalog.
    assert MaintenanceWAL(disk, segment_bytes=1).segments() == wal.segments()
    assert [info.records for info in wal.segments()] == [2, 2, 2]


def test_reopen_resumes_the_active_segment(disk):
    first = MaintenanceWAL(disk, segment_bytes=1)
    _run_op(first)
    _run_op(first)
    second = MaintenanceWAL(disk, segment_bytes=1)
    _run_op(second)
    segments = [info.segment for info in second.segments() if info.sealed]
    assert segments == [0, 1, 2]


def test_read_committed_skips_sealed_segments_below_the_watermark(disk):
    wal = MaintenanceWAL(disk, segment_bytes=1)
    for tid in range(4):
        op_id = wal.begin("delete", tid=tid)
        wal.commit(op_id)
    watermark = wal.segments()[1].last_lsn  # first two segments are history
    ops, metrics = MaintenanceWAL.read_committed(disk, after_lsn=watermark)
    assert [op.payload["tid"] for op in ops] == [2, 3]
    assert isinstance(ops[0], CommittedOp)
    assert metrics["segments_skipped"] == 2
    # Skipped segments cost one seal-page read each, zero record reads.
    assert metrics["record_reads"] == 2 * 2  # intent + commit, 2 segments
    assert metrics["seal_reads"] == 4


def test_read_committed_respects_upto_lsn(disk):
    wal = MaintenanceWAL(disk)
    lsn_after_two = None
    for tid in range(4):
        op_id = wal.begin("delete", tid=tid)
        wal.commit(op_id)
        if tid == 1:
            lsn_after_two = wal.last_commit_lsn
    ops, _ = MaintenanceWAL.read_committed(disk, upto_lsn=lsn_after_two)
    assert [op.payload["tid"] for op in ops] == [0, 1]


def test_read_committed_ignores_an_uncommitted_tail(disk):
    wal = MaintenanceWAL(disk)
    _run_op(wal)
    wal.begin("delete", tid=9)  # never commits
    ops, metrics = MaintenanceWAL.read_committed(disk)
    assert len(ops) == 1
    assert metrics["damaged_ignored"] == 0


def test_read_committed_fails_on_a_missing_intent(disk):
    wal = MaintenanceWAL(disk)
    op_id = wal.begin("delete", tid=3)
    wal.commit(op_id)
    intent = _record_pages(disk)[0]
    intent.payload["kind"] = "garbage"
    with pytest.raises(WalCorruptionError):
        MaintenanceWAL.read_committed(disk)


def test_prune_drops_only_whole_sealed_prefixes(disk):
    wal = MaintenanceWAL(disk, segment_bytes=1)
    for tid in range(3):
        op_id = wal.begin("delete", tid=tid)
        wal.commit(op_id)
    catalog = wal.segments()
    freed = wal.prune_upto(catalog[0].last_lsn)
    assert freed == catalog[0].records
    remaining = [info.segment for info in wal.segments()]
    assert remaining == [1, 2]
    # Pruning below the oldest surviving segment is a no-op.
    assert wal.prune_upto(catalog[0].last_lsn) == 0
    # The pruned WAL still reopens and replays cleanly.
    ops, _ = MaintenanceWAL.read_committed(disk)
    assert [op.payload["tid"] for op in ops] == [1, 2]


def test_prune_leaves_segments_whose_tag_extends_the_pruned_one(disk):
    """Pruning segment 1 must not touch segment 10's records: ``wal:rec:s1``
    is a prefix of ``wal:rec:s10``."""
    wal = MaintenanceWAL(disk, segment_bytes=1)
    for tid in range(12):
        wal.commit(wal.begin("delete", tid=tid))
    wal.prune_upto(wal.segments()[1].last_lsn)
    assert [info.records for info in wal.segments()] == [2] * 10
    ops, _ = MaintenanceWAL.read_committed(disk)
    assert [op.payload["tid"] for op in ops] == list(range(2, 12))


def test_seal_crc_guards_the_segment_directory(disk):
    wal = MaintenanceWAL(disk, segment_bytes=1)
    _run_op(wal)
    seal = next(iter(disk.pages(SEAL_TAG)))
    assert seal.payload["crc"] == record_crc(seal.payload)
    seal.payload["last_lsn"] = 999  # tamper: crc now mismatches
    # A bogus seal is ignored rather than trusted for skipping.
    _, metrics = MaintenanceWAL.read_committed(disk, after_lsn=10**6)
    assert metrics["segments_skipped"] == 0
    # repair_tail rebuilds the damaged seal from the surviving records.
    wal2 = MaintenanceWAL(disk, segment_bytes=1)
    wal2.repair_tail()
    seals = list(disk.pages(SEAL_TAG))
    assert len(seals) == 1
    assert seals[0].payload["crc"] == record_crc(seals[0].payload)
    assert seals[0].payload["last_lsn"] != 999
