"""PredicateStats keeps up by folding changes, never by guessing.

After the first refresh the histograms are maintained from the relation's
change log (rows appended, rows tombstoned).  The oracle is a second
``PredicateStats`` that has never seen the relation and therefore rescans
it: after any stream of maintenance — epochs or not, crashes and
``recover()`` included — both must hold the same histograms.
"""

from __future__ import annotations

import random

import pytest

from repro.data.synthetic import SyntheticConfig, generate_relation
from repro.route import PredicateStats
from repro.storage.disk import SimulatedDisk
from repro.storage.faults import (
    FaultPlan,
    FaultRule,
    FaultyDisk,
    SimulatedCrash,
)
from repro.system import build_system

pytestmark = pytest.mark.routing


def make_system(disk=None, n_tuples=160):
    relation = generate_relation(
        SyntheticConfig(
            n_tuples=n_tuples,
            n_boolean=3,
            cardinality=4,
            n_preference=2,
            seed=19,
        ),
        disk=disk,
    )
    return build_system(relation, fanout=6)


def facts(stats: PredicateStats):
    return stats._rows, {
        dim: dict(sorted(bucket.items(), key=repr))
        for dim, bucket in stats._histograms.items()
    }


def rescanned(relation, epoch):
    fresh = PredicateStats()
    fresh.ensure(relation, epoch)
    return facts(fresh)


def random_write(system, rng):
    relation = system.relation
    live = list(relation.live_tids())
    roll = rng.random()
    if roll < 0.5 or len(live) < 20:
        bool_row = tuple(
            rng.randrange(6) for _ in relation.schema.boolean_dims
        )  # values 4 and 5 are new to the histograms
        system.insert(bool_row, (rng.random(), rng.random()))
    elif roll < 0.75:
        system.update(rng.choice(live), (rng.random(), rng.random()))
    else:
        system.delete(rng.choice(live))


@pytest.mark.parametrize("seed", range(4))
def test_incremental_refresh_equals_rescan_per_epoch(seed):
    system = make_system()
    system.enable_epochs()
    rng = random.Random(seed)
    stats = PredicateStats()
    scans = []
    stats._rescan_locked = lambda relation, real=stats._rescan_locked: (
        scans.append(1),
        real(relation),
    )
    for step in range(60):
        for _ in range(rng.randrange(1, 4)):  # unobserved epochs in between
            random_write(system, rng)
        snapshot = system.pin_snapshot()
        try:
            stats.ensure(snapshot.relation, snapshot.epoch)
            assert facts(stats) == rescanned(snapshot.relation, snapshot.epoch)
        finally:
            system.unpin_snapshot(snapshot)
    assert len(scans) == 1  # the first refresh; everything after is folded
    assert stats.refreshes == 60


def test_older_epoch_or_other_relation_rescans():
    system = make_system()
    system.enable_epochs()
    old = system.pin_snapshot()
    system.delete(3)
    system.insert(system.relation.bool_row(0), (0.5, 0.5))
    new = system.pin_snapshot()
    try:
        stats = PredicateStats()
        stats.ensure(new.relation, new.epoch)
        # Going back in time cannot be folded: start over at that epoch.
        stats.ensure(old.relation, old.epoch)
        assert facts(stats) == rescanned(old.relation, old.epoch)
        stats.ensure(new.relation, new.epoch)
        assert facts(stats) == rescanned(new.relation, new.epoch)
    finally:
        system.unpin_snapshot(old)
        system.unpin_snapshot(new)
    other = make_system(n_tuples=90)
    stats.ensure(other.relation, None)
    assert facts(stats) == rescanned(other.relation, None)


def test_live_sessions_fold_growth_and_deletes():
    system = make_system()
    rng = random.Random(5)
    stats = PredicateStats()
    stats.ensure(system.relation, None)
    for _ in range(40):
        random_write(system, rng)
    # Live tokens change with the relation's length; make sure it did.
    system.insert(system.relation.bool_row(1), (0.2, 0.8))
    stats.ensure(system.relation, None)
    assert facts(stats) == rescanned(system.relation, None)


@pytest.mark.crash
@pytest.mark.parametrize("op", ["insert", "delete"])
@pytest.mark.parametrize(
    "site", [("allocate", "wal"), ("write", "rtree"), ("allocate", "pcube:sig")]
)
def test_incremental_refresh_survives_crash_and_recover(op, site):
    """A crashed op's half-applied rows are stamped with an abandoned epoch
    and become visible when recovery publishes: the fold must land on the
    same histograms a rescan sees, before and after ``recover()``."""
    disk = FaultyDisk(SimulatedDisk())
    system = make_system(disk=disk)
    system.enable_epochs()
    stats = PredicateStats()

    def check():
        snapshot = system.pin_snapshot()
        try:
            stats.ensure(snapshot.relation, snapshot.epoch)
            assert facts(stats) == rescanned(snapshot.relation, snapshot.epoch)
        finally:
            system.unpin_snapshot(snapshot)

    check()
    system.insert((9, 9, 9), (0.3, 0.3))
    check()
    disk.plan = FaultPlan(
        [FaultRule(kind="crash", op=site[0], tag=site[1], count=1)]
    )
    with pytest.raises(SimulatedCrash):
        if op == "insert":
            system.insert((8, 8, 8), (0.6, 0.1))
        else:
            system.delete(5)
    disk.plan = FaultPlan()
    check()  # the crashed op is invisible: nothing to fold
    system.recover()
    check()
    system.delete(11)
    system.update(12, (0.9, 0.9))
    check()
    assert system.verify_consistency().problems == []
