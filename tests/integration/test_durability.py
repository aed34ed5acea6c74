"""Acceptance: durability machinery survives a crash at every disk access.

Extends the PR-2 crash sweep (tests/integration/test_crash_recovery.py)
across the three new durability paths:

* **checkpoint create** — a crash at any checkpoint-page allocation leaves
  the catalog unchanged (the manifest is the commit point), the orphans
  reclaimable, and the next checkpoint + restore byte-identical;
* **WAL rotation** — with one-byte segments every commit seals, so a crash
  at any WAL allocation during maintenance lands around segment seals too;
  recovery must hold the same byte-identity contract as the PR-2 sweep;
* **restore** — a crash at any accounted read during ``restore_system``
  is harmless: restore is a read-only function of the disk image, so the
  retry must succeed and verify byte-identical.

Plus the torn-tail regression (satellite): ``recover()`` truncates tail
damage by default and is fail-stop only on interior corruption.
"""

import random

import pytest

from repro.backup import answer_fingerprint
from repro.core.checkpoint import CheckpointManager, restore_system
from repro.core.wal import WalCorruptionError
from repro.data.synthetic import SyntheticConfig, generate_relation
from repro.query.predicates import BooleanPredicate
from repro.storage.disk import SimulatedDisk
from repro.storage.faults import (
    FaultPlan,
    FaultRule,
    FaultyDisk,
    SimulatedCrash,
)
from repro.system import build_system

pytestmark = [pytest.mark.durability, pytest.mark.crash]

CONFIG = dict(
    n_tuples=113, n_boolean=2, cardinality=3, n_preference=2, seed=13
)


def make_system(wal_segment_bytes=512):
    disk = FaultyDisk(SimulatedDisk())
    relation = generate_relation(SyntheticConfig(**CONFIG), disk=disk)
    return disk, build_system(
        relation, fanout=5, wal_segment_bytes=wal_segment_bytes
    )


def mutate(system, rng):
    system.insert(
        system.relation.bool_row(0), (rng.random(), rng.random())
    )
    system.delete(rng.randrange(20))
    system.update(30 + rng.randrange(20), (rng.random(), rng.random()))


def count_accesses(run, disk, sites):
    """Access counts per (op, tag) site for one callable (never fires)."""
    rules = [
        FaultRule(kind="crash", op=op, tag=tag, probability=0.0, count=None)
        for op, tag in sites
    ]
    disk.plan = FaultPlan(rules)
    run()
    disk.plan = FaultPlan()
    return {site: rule.seen for site, rule in zip(sites, rules)}


def test_crash_sweep_checkpoint_create():
    """Crash at every page allocation during create: the manifest commit
    point holds, orphans reclaim, and restore stays byte-identical."""
    rng = random.Random(41)
    disk, probe = make_system()
    mutate(probe, rng)
    counts = count_accesses(
        lambda: CheckpointManager(probe).create(),
        disk,
        [("allocate", "ckpt")],
    )
    n_points = counts[("allocate", "ckpt")]
    assert n_points >= 2  # at least one row chunk + the manifest

    for k in range(n_points):
        rng = random.Random(41)
        disk, system = make_system()
        mutate(system, rng)
        manager = CheckpointManager(system)
        baseline = manager.create()
        mutate(system, rng)
        disk.plan = FaultPlan(
            [
                FaultRule(
                    kind="crash", op="allocate", tag="ckpt", after=k, count=1
                )
            ]
        )
        with pytest.raises(SimulatedCrash):
            manager.create()
        disk.plan = FaultPlan()
        # The crashed checkpoint never entered the catalog.
        assert [info.checkpoint_id for info in manager.catalog()] == [
            baseline.checkpoint_id
        ]
        manager.gc_orphans()
        retried = manager.create()
        assert retried.checkpoint_id > baseline.checkpoint_id
        result = restore_system(system.disk)
        assert result.checkpoint.checkpoint_id == retried.checkpoint_id
        assert answer_fingerprint(result.system) == answer_fingerprint(
            system
        ), k


def test_crash_sweep_wal_rotation():
    """One-byte segments seal on every commit; the PR-2 recovery contract
    must hold with the seal allocations in the crash surface."""
    def op(system):
        system.insert(system.relation.bool_row(0), (0.42, 0.17))

    _, crash_free = make_system(wal_segment_bytes=1)
    op(crash_free)
    assert crash_free.verify_consistency().ok
    expected = answer_fingerprint(crash_free)
    assert crash_free.wal.segments()[0].sealed  # rotation actually fires

    disk, probe = make_system(wal_segment_bytes=1)
    counts = count_accesses(lambda: op(probe), disk, [("allocate", "wal")])
    n_points = counts[("allocate", "wal")]
    assert n_points >= 3  # intent, commit, seal at least

    for k in range(n_points):
        disk, system = make_system(wal_segment_bytes=1)
        disk.plan = FaultPlan(
            [
                FaultRule(
                    kind="crash", op="allocate", tag="wal", after=k, count=1
                )
            ]
        )
        with pytest.raises(SimulatedCrash):
            op(system)
        disk.plan = FaultPlan()
        outcome = system.recover()
        assert outcome in ("clean", "reindexed")
        assert system.verify_consistency().ok, (k, outcome)
        if outcome == "clean":
            op(system)
            assert system.verify_consistency().ok
        assert answer_fingerprint(system) == expected, (k, outcome)


def test_crash_sweep_restore():
    """Restore is read-only over the image: a crash at any accounted read
    just means retrying, and the retry verifies byte-identical."""
    rng = random.Random(43)
    disk, system = make_system()
    manager = CheckpointManager(system)
    manager.create()
    mutate(system, rng)
    manager.create()
    mutate(system, rng)  # a committed tail past the newest watermark
    expected = answer_fingerprint(system)

    sites = [("read", "ckpt"), ("read", "wal")]
    counts = count_accesses(
        lambda: restore_system(system.disk), disk, sites
    )
    assert counts[("read", "ckpt")] >= 2
    assert counts[("read", "wal")] >= 1

    swept = 0
    for (op, tag), seen in counts.items():
        for k in range(seen):
            disk.plan = FaultPlan(
                [FaultRule(kind="crash", op=op, tag=tag, after=k, count=1)]
            )
            with pytest.raises(SimulatedCrash):
                restore_system(system.disk)
            disk.plan = FaultPlan()
            result = restore_system(system.disk)
            assert result.checkpoint.checkpoint_id == 1
            assert answer_fingerprint(result.system) == expected, (op, tag, k)
            swept += 1
    assert swept == sum(counts.values())


def test_recovery_replays_only_the_post_watermark_tail():
    """The checkpointed fast path: sealed segments below the watermark are
    skipped for the price of their seal reads."""
    rng = random.Random(47)
    _, system = make_system(wal_segment_bytes=256)
    manager = CheckpointManager(system)
    manager.create()
    for _ in range(4):
        mutate(system, rng)
    manager.create()
    mutate(system, rng)
    result = restore_system(system.disk)
    assert result.checkpoint.checkpoint_id == 1
    assert result.ops_replayed == 3  # only the post-checkpoint mutate
    assert result.wal_metrics["segments_skipped"] >= 1
    assert answer_fingerprint(result.system) == answer_fingerprint(system)


def test_torn_wal_tail_is_truncated_by_default():
    """Satellite regression: tail damage is truncated and recovery
    proceeds; no operator flag needed.

    The torn append is the *commit* record — the last thing the operation
    wrote, so nothing later depends on it.  Truncation turns the state
    into an ordinary mid-operation crash: the intent survives, recovery
    rolls the operation forward, answers match the crash-free run.
    """
    def lsn_of(page):
        return (
            page.payload.get("lsn", -1)
            if isinstance(page.payload, dict)
            else -1
        )

    _, system = make_system()
    system.insert(system.relation.bool_row(0), (0.42, 0.17))
    torn = max(system.disk.pages("wal:rec"), key=lsn_of)
    assert torn.payload["kind"] == "commit"
    torn.payload.clear()
    torn.payload["garbage"] = b"\xff\xff"

    outcome = system.recover()
    assert outcome == "reindexed"
    assert system.maintenance_stats.wal_tail_truncated >= 1
    assert system.verify_consistency().ok

    _, crash_free = make_system()
    crash_free.insert(crash_free.relation.bool_row(0), (0.42, 0.17))
    assert answer_fingerprint(system) == answer_fingerprint(crash_free)
    # Recovery re-committed the operation: new maintenance is accepted.
    system.delete(3)
    assert system.verify_consistency().ok


def test_interior_wal_corruption_is_fail_stop():
    """Damage *behind* intact records is data loss, not a torn tail —
    recovery must refuse rather than silently truncate."""
    disk, system = make_system()
    system.insert(system.relation.bool_row(0), (0.42, 0.17))
    disk.plan = FaultPlan(
        [FaultRule(kind="crash", op="write", tag="rtree", count=1)]
    )
    with pytest.raises(SimulatedCrash):
        system.update(11, (0.9, 0.05))
    disk.plan = FaultPlan()

    def lsn_of(page):
        return (
            page.payload.get("lsn", -1)
            if isinstance(page.payload, dict)
            else -1
        )

    interior = min(
        (p for p in system.disk.pages("wal:rec") if lsn_of(p) >= 0),
        key=lsn_of,
    )
    interior.payload["kind"] = "mangled"
    with pytest.raises(WalCorruptionError):
        system.recover()


def test_recover_rolls_a_pending_insert_forward_and_restore_drops_it():
    """The two recovery contracts of DESIGN.md §11, on one crash: an insert
    after a checkpoint crashes at its R-tree write, with its intent
    journalled and no commit.  Restore from the disk keeps the committed
    prefix, so the row never happened; ``recover()`` in place rolls the
    intent forward, so the row is there and its cell's skyline has it."""
    point = (0.001, 0.001)

    def answers(system):
        relation = system.relation
        cell = BooleanPredicate(
            dict(zip(relation.schema.boolean_dims, relation.bool_row(0)))
        )
        return system.engine.skyline(cell).tids, answer_fingerprint(system)

    _, without = make_system()
    _, with_row = make_system()
    with_row.insert(with_row.relation.bool_row(0), point)
    assert answers(with_row) != answers(without)

    disk, system = make_system()
    CheckpointManager(system).create()
    n_rows = len(system.relation)
    disk.plan = FaultPlan([FaultRule(kind="crash", op="write", tag="rtree", count=1)])
    with pytest.raises(SimulatedCrash):
        system.insert(system.relation.bool_row(0), point)
    disk.plan = FaultPlan()
    assert not system.wal.is_empty()

    restored = restore_system(disk)
    assert restored.ops_replayed == 0
    assert len(restored.system.relation) == n_rows
    assert answers(restored.system) == answers(without)

    assert system.recover() == "reindexed"
    assert system.relation.is_live(n_rows)
    assert system.verify_consistency().ok
    assert answers(system) == answers(with_row)
