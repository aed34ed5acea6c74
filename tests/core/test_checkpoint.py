"""Online fuzzy checkpoints + point-in-time restore (core/checkpoint.py).

The contract under test: ``create()`` captures a committed state without
disturbing readers, the manifest page is the atomic commit point (orphan
row chunks are invisible and reclaimable), and ``restore_system`` rebuilds
a byte-identical system from the newest usable checkpoint plus the
committed WAL window — falling back to older checkpoints when a chunk
fails verification.
"""

import pytest

from repro.backup import answer_fingerprint
from repro.baselines.naive import naive_skyline, naive_topk
from repro.core.checkpoint import (
    CheckpointError,
    CheckpointManager,
    catalog_checkpoints,
    restore_system,
)
from repro.core.wal import (
    MaintenanceWAL,
    WalCorruptionError,
    apply_committed_op,
    seal_record,
    verify_record,
)
from repro.data.synthetic import SyntheticConfig, generate_relation
from repro.query.predicates import BooleanPredicate
from repro.query.ranking import LinearFunction
from repro.query.session import QuerySession
from repro.storage.disk import SimulatedDisk
from repro.storage.errors import CorruptPageError
from repro.storage.faults import (
    FaultPlan,
    FaultRule,
    FaultyDisk,
    SimulatedCrash,
)
from repro.storage.page import DEFAULT_PAGE_SIZE
from repro.system import build_system

CONFIG = dict(
    n_tuples=113, n_boolean=2, cardinality=3, n_preference=2, seed=13
)


def make_system(disk=None, **kwargs):
    disk = disk if disk is not None else SimulatedDisk()
    relation = generate_relation(SyntheticConfig(**CONFIG), disk=disk)
    kwargs.setdefault("fanout", 5)
    kwargs.setdefault("wal_segment_bytes", 512)
    return build_system(relation, **kwargs)


def mutate(system, seed_offset=0):
    """A small deterministic maintenance batch; returns its commit LSN."""
    system.insert(system.relation.bool_row(0), (0.41 + seed_offset / 100, 0.2))
    system.delete(5 + seed_offset)
    system.update(11, (0.9, 0.05 + seed_offset / 100))
    return system.wal.last_commit_lsn


def test_create_and_catalog():
    system = make_system()
    manager = CheckpointManager(system)
    first = manager.create()
    mutate(system)
    second = manager.create()
    assert [info.checkpoint_id for info in manager.catalog()] == [0, 1]
    assert first.watermark_lsn == 0
    assert second.watermark_lsn > first.watermark_lsn
    assert second.n_rows == len(system.relation)
    assert second.n_tombstones == 1
    # The catalog is readable from the bare disk (no live system).
    assert [
        info.checkpoint_id for info in catalog_checkpoints(system.disk)
    ] == [0, 1]


def test_create_refuses_a_pending_wal():
    disk = FaultyDisk(SimulatedDisk())
    system = make_system(disk=disk)
    disk.plan = FaultPlan(
        [FaultRule(kind="crash", op="write", tag="rtree", count=1)]
    )
    with pytest.raises(SimulatedCrash):
        mutate(system)
    disk.plan = FaultPlan()
    with pytest.raises(CheckpointError, match="uncommitted"):
        CheckpointManager(system).create()
    system.recover()
    CheckpointManager(system).create()  # clean again


def test_checkpoint_is_online_under_epochs():
    """Readers pinned before the checkpoint stay untouched by it."""
    system = make_system()
    pinned = system.pin_snapshot()
    before = QuerySession.for_snapshot(pinned).skyline()
    info = CheckpointManager(system).create()
    assert info.epoch == pinned.epoch
    after = QuerySession.for_snapshot(pinned).skyline()
    assert before.tids == after.tids
    system.unpin_snapshot(pinned)


def test_restore_latest_matches_the_live_system():
    system = make_system()
    manager = CheckpointManager(system)
    manager.create()
    mutate(system)
    manager.create()
    mutate(system, seed_offset=1)  # a post-checkpoint tail to replay
    result = restore_system(system.disk)
    assert result.checkpoint.checkpoint_id == 1
    assert result.ops_replayed == 3
    assert result.fallbacks == 0
    assert answer_fingerprint(result.system) == answer_fingerprint(system)


def test_restore_reads_a_manifest_that_still_names_maintainable():
    """A manifest written while ``build_system`` still took ``maintainable``
    carries it in its config; restore ignores the key."""
    system = make_system()
    info = CheckpointManager(system).create()
    mutate(system)
    page = system.disk.peek(info.manifest_page)
    manifest = verify_record(page)
    manifest["config"]["maintainable"] = True
    page.payload = seal_record(manifest)
    page.seal()
    result = restore_system(system.disk)
    assert result.checkpoint.checkpoint_id == 0
    assert result.fallbacks == 0
    assert answer_fingerprint(result.system) == answer_fingerprint(system)


def test_restore_reads_a_manifest_that_still_carries_the_btree_flag():
    """A manifest written while the served build still made B+-trees says
    ``with_indexes`` and records no page size: restore ignores the flag,
    builds on the default page, makes no B+-tree, and answers what naive
    answers over the restored rows."""
    system = make_system()
    info = CheckpointManager(system).create()
    mutate(system)
    page = system.disk.peek(info.manifest_page)
    manifest = verify_record(page)
    del manifest["config"]["page_size"]
    manifest["config"]["with_indexes"] = True
    page.payload = seal_record(manifest)
    page.seal()
    result = restore_system(system.disk)
    restored = result.system
    assert result.fallbacks == 0
    assert restored.disk.page_size == DEFAULT_PAGE_SIZE
    assert restored.disk.size_bytes("btree") == 0
    relation = restored.relation
    dim = relation.schema.boolean_dims[0]
    fn = LinearFunction((0.6, 0.4))
    for predicate in (
        BooleanPredicate(),
        BooleanPredicate({dim: relation.bool_value(0, dim)}),
    ):
        truth = [
            (tid, relation.pref_point(tid))
            for tid in relation.live_tids()
            if predicate.matches(relation, tid)
        ]
        engine = restored.engine
        assert sorted(engine.skyline(predicate).tids) == sorted(
            naive_skyline(truth)
        )
        top = engine.topk(fn, 5, predicate)
        assert [round(s, 9) for s in top.scores] == [
            round(s, 9) for _, s in naive_topk(truth, fn, 5)
        ]
    assert answer_fingerprint(restored) == answer_fingerprint(system)


def test_restore_keeps_the_source_page_size():
    """The manifest records the page size and restore builds on it, so the
    restored store splits its partials as the source's did, to the byte."""
    disk = SimulatedDisk(page_size=256)
    relation = generate_relation(
        SyntheticConfig(
            n_tuples=1500, n_boolean=2, cardinality=8, n_preference=2, seed=13
        ),
        disk=disk,
    )
    system = build_system(relation, fanout=8)
    CheckpointManager(system).create()
    restored = restore_system(disk).system
    assert restored.disk.page_size == 256
    assert restored.disk.size_bytes("pcube") == disk.size_bytes("pcube")
    assert answer_fingerprint(restored) == answer_fingerprint(system)


def test_restore_to_lsn_reproduces_history():
    system = make_system()
    manager = CheckpointManager(system)
    manager.create()
    system.insert(system.relation.bool_row(0), (0.41, 0.2))
    lsn_mid = system.wal.last_commit_lsn
    system.delete(5)
    system.update(11, (0.9, 0.05))
    manager.create()
    mutate(system, seed_offset=1)

    reference = make_system()
    reference.insert(reference.relation.bool_row(0), (0.41, 0.2))
    result = restore_system(system.disk, to_lsn=lsn_mid)
    # The mid-history target predates checkpoint 1's watermark, so the
    # restore must come from checkpoint 0 and replay forward to lsn_mid.
    assert result.checkpoint.checkpoint_id == 0
    assert result.ops_replayed == 1
    assert answer_fingerprint(result.system) == answer_fingerprint(reference)


def test_restore_falls_back_on_a_corrupted_row_chunk():
    system = make_system()
    manager = CheckpointManager(system)
    manager.create()
    mutate(system)
    newest = manager.create()
    page = system.disk.peek(newest.row_pages[0])
    page.payload["bools"] = [(9, 9)] * len(page.payload["bools"])
    result = restore_system(system.disk)
    assert result.checkpoint.checkpoint_id == 0
    assert result.fallbacks == 1
    assert result.ops_replayed == 3  # the full history, from the base image
    assert answer_fingerprint(result.system) == answer_fingerprint(system)


def test_restore_without_any_checkpoint_raises():
    system = make_system()
    with pytest.raises(CheckpointError, match="no usable checkpoint"):
        restore_system(system.disk)


def test_orphan_row_chunks_are_invisible_and_reclaimable():
    """A crash between chunk writes and the manifest leaves no catalog
    entry; ``gc_orphans`` frees the residue."""
    disk = FaultyDisk(SimulatedDisk())
    system = make_system(disk=disk)
    manager = CheckpointManager(system)
    manager.create()
    mutate(system)
    disk.plan = FaultPlan(
        [
            FaultRule(
                kind="crash", op="allocate", tag="ckpt", after=1, count=1
            )
        ]
    )
    with pytest.raises(SimulatedCrash):
        manager.create()
    disk.plan = FaultPlan()
    assert [info.checkpoint_id for info in manager.catalog()] == [0]
    freed = manager.gc_orphans()
    assert freed >= 1
    assert len(list(disk.pages("ckpt:c1"))) == 0
    # The surviving checkpoint still restores.
    result = restore_system(system.disk)
    assert result.checkpoint.checkpoint_id == 0
    assert answer_fingerprint(result.system) == answer_fingerprint(system)


def test_prune_keeps_the_newest_checkpoints():
    system = make_system()
    manager = CheckpointManager(system)
    for offset in range(3):
        manager.create()
        mutate(system, seed_offset=offset)
    manager.create()
    assert len(manager.catalog()) == 4
    freed = manager.prune(keep=2)
    assert freed >= 2
    assert [info.checkpoint_id for info in manager.catalog()] == [2, 3]
    result = restore_system(system.disk)
    assert result.checkpoint.checkpoint_id == 3
    assert answer_fingerprint(result.system) == answer_fingerprint(system)
    with pytest.raises(ValueError):
        manager.prune(keep=0)


def test_restore_skips_checkpoints_past_the_target_lsn():
    system = make_system()
    manager = CheckpointManager(system)
    manager.create()
    mutate(system)
    manager.create()
    # A target before any commit: only the base checkpoint qualifies.
    result = restore_system(system.disk, to_lsn=0)
    assert result.checkpoint.checkpoint_id == 0
    assert result.ops_replayed == 0
    reference = make_system()
    assert answer_fingerprint(result.system) == answer_fingerprint(reference)


def test_restore_refuses_an_insert_replayed_out_of_order():
    """An insert intent whose ``base`` is not the relation length restore
    has reached is an out-of-order archive: replaying it would append at
    the wrong tids.  The intent below is re-sealed, so only the order
    check can catch it."""
    system = make_system()
    CheckpointManager(system).create()
    system.insert(system.relation.bool_row(0), (0.41, 0.2))
    intent = next(
        page.payload
        for page in system.disk.pages("wal:rec")
        if page.payload["kind"] == "intent"
    )
    intent["payload"]["base"] += 1
    seal_record(intent)
    (op,), _ = MaintenanceWAL.read_committed(system.disk)
    relation = make_system().relation  # the checkpointed image: base rows
    with pytest.raises(WalCorruptionError, match="out of order"):
        apply_committed_op(relation, op)
    with pytest.raises(CheckpointError, match="out of order"):
        restore_system(system.disk)
