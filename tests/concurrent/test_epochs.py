"""Epoch manager semantics: pinning, publishing, abandonment, reclamation."""

from __future__ import annotations

import random

import pytest

from repro.baselines.naive import naive_skyline
from repro.core.epoch import StaleSnapshotError
from repro.data.synthetic import generate_relation
from repro.query.predicates import BooleanPredicate
from repro.query.session import QuerySession
from repro.system import build_system
from tests.rtree.test_frozen import frozen_nodes

pytestmark = pytest.mark.concurrent


def _origin_rows(system):
    schema = system.relation.schema
    return (
        tuple(0 for _ in range(schema.n_boolean)),
        tuple(0.0 for _ in range(schema.n_preference)),
    )


def assert_nothing_pinned(system):
    """No reader still holds a snapshot: the pages one more write frees are
    reclaimed at its publish (a pin below that epoch would hold them)."""
    epochs = system.epochs
    deferred = epochs.stats.deferred_frees
    tid, _ = system.insert(*_origin_rows(system))
    system.delete(tid)
    assert epochs.stats.deferred_frees > deferred  # the write freed pages
    assert epochs.deferred_pages() == set()


def test_pinned_snapshot_survives_maintenance(fresh_system):
    system = fresh_system()
    snapshot = system.pin_snapshot()
    before = QuerySession.for_snapshot(snapshot).skyline()

    # The origin tuple dominates everything, so the live skyline changes...
    bool_row, pref_row = _origin_rows(system)
    system.insert(bool_row, pref_row)
    live = system.engine.skyline()
    assert live.tids != before.tids

    # ...while the pinned epoch keeps answering with the old data, exactly.
    after = QuerySession.for_snapshot(snapshot).skyline()
    assert after.tids == before.tids
    assert after.scores == before.scores
    assert after.stats.epoch == snapshot.epoch
    system.unpin_snapshot(snapshot)


def test_each_maintenance_op_publishes_one_epoch(fresh_system):
    system = fresh_system()
    epochs = system.epochs
    start = epochs.current_epoch
    bool_row, pref_row = _origin_rows(system)
    tid, _ = system.insert(bool_row, pref_row)
    assert epochs.current_epoch == start + 1
    system.update(tid, tuple(0.5 for _ in pref_row))
    assert epochs.current_epoch == start + 2
    system.delete(tid)
    assert epochs.current_epoch == start + 3
    assert epochs.stats.published == start + 3  # initial + three ops


def test_a_bare_write_waits_for_the_next_publish(fresh_system):
    """A bare maintenance driver writes outside ``EpochManager.write``: its
    row reaches neither the published tree nor, stamped with the next
    epoch, the published relation view — so every engine on the snapshot
    agrees — and the next publish shows it to both."""
    from repro.baselines.boolean_first import boolean_first_skyline
    from repro.core.maintenance import insert_tuple
    from repro.query.predicates import BooleanPredicate

    system = fresh_system()
    bool_row, pref_row = _origin_rows(system)
    tid, _ = insert_tuple(
        system.relation, system.rtree, system.pcube, bool_row, pref_row
    )
    predicate = BooleanPredicate({"A1": bool_row[0]})
    engine = system.engine
    assert not engine.relation.is_live(tid) and len(engine.relation) == tid
    scanned, _ = boolean_first_skyline(engine.relation, {}, predicate)
    assert tid not in engine.skyline(predicate).tids
    assert sorted(scanned) == sorted(engine.skyline(predicate).tids)
    system.insert(bool_row, (0.5,) * len(pref_row))  # publishes
    assert system.engine.skyline(predicate).tids == [tid]


def test_abandoned_write_is_invisible_to_snapshots(fresh_system):
    system = fresh_system()
    epochs = system.epochs
    snapshot = epochs.pin()
    before = QuerySession.for_snapshot(snapshot).skyline()
    victim = before.tids[0]

    class Boom(RuntimeError):
        pass

    with pytest.raises(Boom):
        with epochs.write():
            # Half-applied mutation, then a crash before publish.
            system.relation.tombstone(victim)
            raise Boom()

    assert epochs.stats.abandoned == 1
    assert epochs.current_epoch == snapshot.epoch
    # The tombstone was stamped with the abandoned building epoch, so the
    # pinned snapshot — and any *new* snapshot — still sees the tuple.
    assert snapshot.relation.is_live(victim)
    again = QuerySession.for_snapshot(snapshot).skyline()
    assert again.tids == before.tids
    epochs.unpin(snapshot)


def test_deferred_frees_wait_for_pinned_readers(fresh_system):
    system = fresh_system()
    epochs = system.epochs
    snapshot = system.pin_snapshot()
    reference = QuerySession.for_snapshot(snapshot).skyline()

    # Structural churn: rewrites free R-tree and signature pages.
    bool_row, pref_row = _origin_rows(system)
    for _ in range(4):
        tid, _ = system.insert(bool_row, pref_row)
        system.delete(tid)
    assert epochs.deferred_pages()

    # The pinned reader still traverses the old pages without a fault.
    replay = QuerySession.for_snapshot(snapshot).skyline()
    assert replay.tids == reference.tids

    system.unpin_snapshot(snapshot)
    assert epochs.deferred_pages() == set()
    assert epochs.stats.reclaimed_pages > 0


def test_version_maps_prune_on_publish_not_on_unpin(fresh_system):
    """Version-map pruning is writer-path only: unpin must never touch
    the relation's version maps (they race with the maintenance writer),
    so records drop at the next publish after the horizon advances."""
    system = fresh_system()
    epochs = system.epochs
    snapshot = epochs.pin()

    bool_row, pref_row = _origin_rows(system)
    tid, _ = system.insert(bool_row, pref_row)  # created_epoch record
    system.delete(tid)  # tombstone record
    assert epochs.stats.pruned_versions == 0  # pinned reader blocks pruning

    epochs.unpin(snapshot)
    # Unpin records the horizon but does not prune (reader thread).
    assert epochs.stats.pruned_versions == 0

    system.insert(bool_row, pref_row)  # next publish prunes behind horizon
    assert epochs.stats.pruned_versions > 0


def test_unpin_without_pin_raises(fresh_system):
    system = fresh_system()
    epochs = system.epochs
    snapshot = epochs.pin()
    epochs.unpin(snapshot)
    with pytest.raises(ValueError, match="not pinned"):
        epochs.unpin(snapshot)


def test_pins_are_counted_per_reader(fresh_system):
    """Two readers pin the same epoch: the pages a write frees wait for the
    second unpin, not the first."""
    system = fresh_system()
    epochs = system.epochs
    first = epochs.pin()
    second = epochs.pin()
    assert first is second
    tid, _ = system.insert(*_origin_rows(system))
    system.delete(tid)
    held = epochs.deferred_pages()
    assert held
    epochs.unpin(first)
    assert epochs.deferred_pages() == held
    epochs.unpin(second)
    assert epochs.deferred_pages() == set()
    assert_nothing_pinned(system)


def test_publish_rebuilds_the_written_paths_and_leaves_pinned_epochs_alone(
    fresh_system,
):
    """Each epoch's frozen tree shares every unwritten subtree with the one
    before it, a reader pinned three epochs back still walks exactly the
    tree it pinned, and every epoch equals a from-scratch freeze."""
    rng = random.Random(17)
    system = fresh_system(n_tuples=900)
    epochs = system.epochs
    pinned = system.pin_snapshot()
    pinned_nodes = frozen_nodes(pinned.rtree.root)
    pinned_shape = {
        node_id: [
            (slot, entry.mbr, entry.tid, id(entry.child))
            for slot, entry in node.live_entries()
        ]
        for node_id, node in pinned_nodes.items()
    }
    pinned_paths = pinned.rtree.all_paths()
    reference = QuerySession.for_snapshot(pinned).skyline()

    previous = pinned.rtree
    for step in range(30):
        if step % 3 == 2:
            system.delete(rng.choice(sorted(system.relation.live_tids())))
        else:
            bool_row, pref_row = _origin_rows(system)
            system.insert(bool_row, tuple(rng.random() for _ in pref_row))
        current = system.pin_snapshot()
        system.unpin_snapshot(current)
        current = current.rtree
        before, after = frozen_nodes(previous.root), frozen_nodes(current.root)
        rebuilt = [n for n, node in after.items() if node is not before.get(n)]
        # A single-tuple write rebuilds a few root-to-leaf paths, not ~300 nodes.
        assert 0 < len(rebuilt) <= 6 * (current.root.level + 1)
        assert len(after) - len(rebuilt) > len(after) // 2
        assert current.all_paths() == system.rtree.all_paths()
        assert len(after) == system.rtree.node_count()
        previous = current

    # The pinned epoch: same node objects, same slots, same answers.
    assert frozen_nodes(pinned.rtree.root).keys() == pinned_nodes.keys()
    for node_id, node in frozen_nodes(pinned.rtree.root).items():
        assert node is pinned_nodes[node_id]
        assert [
            (slot, entry.mbr, entry.tid, id(entry.child))
            for slot, entry in node.live_entries()
        ] == pinned_shape[node_id]
    assert pinned.rtree.all_paths() == pinned_paths
    again = QuerySession.for_snapshot(pinned).skyline()
    assert again.tids == reference.tids
    assert again.stats.counters.snapshot() == reference.stats.counters.snapshot()
    system.unpin_snapshot(pinned)
    assert system.verify_consistency().ok


def test_a_stale_engine_session_raises_a_typed_error(fresh_system):
    """``system.engine`` holds no pin: once later writes reclaim pages its
    epoch may read, a query on it names the epoch and refuses to read,
    where it used to fault on a freed page.  While a pin holds the epoch,
    the same writes reclaim nothing it reads and it keeps answering."""
    system = fresh_system(n_tuples=500, seed=5)
    predicate = BooleanPredicate({"A1": 1})
    held = system.engine
    before = held.skyline(predicate)
    pinned = system.pin_snapshot()  # the held session's epoch
    for tid in range(67):
        system.delete(tid)
    assert held.skyline(predicate).tids == before.tids
    system.unpin_snapshot(pinned)
    system.delete(67)
    assert system.epochs.stats.reclaimed_pages > 0
    with pytest.raises(StaleSnapshotError, match="system.engine") as raised:
        held.skyline(predicate)
    assert raised.value.epoch == held.epoch
    relation = system.relation
    fresh = system.engine.skyline(predicate)
    assert fresh.stats.epoch == system.epochs.current_epoch
    assert sorted(fresh.tids) == sorted(
        naive_skyline(
            [
                (tid, relation.pref_point(tid))
                for tid in relation.live_tids()
                if predicate.matches(relation, tid)
            ]
        )
    )


def test_a_relation_serves_one_system(small_config):
    """A second system over a relation another system's epochs clock would
    stamp and prune the first one's versions: the build refuses."""
    relation = generate_relation(small_config)
    build_system(relation, fanout=8)
    with pytest.raises(ValueError, match="own relation"):
        build_system(relation, fanout=8)
