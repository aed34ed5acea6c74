"""Incremental maintenance: signatures stay exact under any mutation mix."""

import random

import pytest

from repro.bitmap.bitarray import BitArray
from repro.core import counted as counted_module
from repro.core.counted import CountedSignature
from repro.core.maintenance import (
    delete_tuple,
    insert_batch,
    insert_tuple,
    merge_changes,
    update_tuple,
)
from repro.core.signature import Signature
from repro.data.synthetic import SyntheticConfig, generate_relation
from repro.rtree.rtree import PathChange
from repro.storage.disk import SimulatedDisk
from repro.storage.errors import TornWriteError
from repro.storage.faults import (
    FaultPlan,
    FaultRule,
    FaultyDisk,
    SimulatedCrash,
)
from repro.system import build_system
from tests.core.test_store import (
    count_compressions,
    from_scratch_bytes,
    stored_bytes,
)
from tests.reference import ancestor_sids


def verify_all_signatures(system, alive=None):
    """Every stored signature equals one rebuilt from current paths."""
    relation, rtree, pcube = system.relation, system.rtree, system.pcube
    tids = list(alive) if alive is not None else list(relation.tids())
    paths = rtree.all_paths()
    for cuboid in pcube.cuboids:
        groups: dict = {}
        for tid in tids:
            cell = cuboid.cell_for(relation, tid)
            groups.setdefault(cell, []).append(tid)
        for cell, members in groups.items():
            expected = Signature.from_paths(
                [paths[tid] for tid in members], rtree.max_entries
            )
            assert pcube.signature_of(cell) == expected, f"{cell} diverged"


# --------------------------------------------------------------------------- #
# merge_changes
# --------------------------------------------------------------------------- #


def test_merge_changes_keeps_first_old_last_new():
    stream = [
        PathChange(1, None, (1,)),
        PathChange(1, (1,), (2, 1)),
        PathChange(2, (3,), (4,)),
    ]
    merged = {c.tid: c for c in merge_changes(stream)}
    assert merged[1] == PathChange(1, None, (2, 1))
    assert merged[2] == PathChange(2, (3,), (4,))


def test_merge_changes_drops_noops():
    stream = [PathChange(1, (1,), (2,)), PathChange(1, (2,), (1,))]
    assert merge_changes(stream) == []


def test_merge_changes_insert_then_delete_cancels():
    stream = [PathChange(1, None, (1,)), PathChange(1, (1,), None)]
    assert merge_changes(stream) == []


def test_merge_changes_random_stream_keeps_endpoints():
    """Property: merged = first old_path, last new_path, one record per tid."""
    rng = random.Random(19)
    current: dict = {}
    first_old: dict = {}
    stream = []
    for _ in range(200):
        tid = rng.randrange(12)
        old = current.get(tid)
        new = (
            None
            if old is not None and rng.random() < 0.3
            else (rng.randrange(4), rng.randrange(4))
        )
        if old == new:
            continue
        if tid not in first_old:
            first_old[tid] = old
        stream.append(PathChange(tid, old, new))
        current[tid] = new
    merged = {c.tid: c for c in merge_changes(stream)}
    assert len(merged) <= len({c.tid for c in stream})
    for tid, change in merged.items():
        assert change.old_path == first_old[tid]
        assert change.new_path == current[tid]
    # Every tid missing from the merge collapsed to a no-op.
    for tid in {c.tid for c in stream} - set(merged):
        assert first_old[tid] == current[tid]


def test_merged_replay_matches_unmerged_replay():
    """Applying the merged batch to a counted signature is equivalent to
    replaying the raw stream change by change."""
    from repro.core.counted import CountedSignature

    rng = random.Random(11)
    fanout = 4
    # Path components are 1-based slot positions in [1, fanout].
    base_paths = {tid: (tid % 4 + 1, tid // 4 + 1) for tid in range(8)}
    current = dict(base_paths)
    stream = []
    for _ in range(150):
        tid = rng.randrange(12)
        old = current.get(tid)
        new = (
            None
            if old is not None and rng.random() < 0.3
            else (rng.randrange(1, 5), rng.randrange(1, 5))
        )
        if old == new:
            continue
        stream.append(PathChange(tid, old, new))
        current[tid] = new

    def replay(changes):
        counted = CountedSignature.from_paths(
            list(base_paths.values()), fanout
        )
        for change in changes:
            if change.old_path is not None:
                counted.remove_path(change.old_path)
            if change.new_path is not None:
                counted.add_path(change.new_path)
        return counted

    merged, raw = replay(merge_changes(stream)), replay(stream)
    assert merged == raw
    assert merged.to_signature() == raw.to_signature()


# --------------------------------------------------------------------------- #
# end-to-end drivers
# --------------------------------------------------------------------------- #


@pytest.fixture
def system(fresh_system):
    return fresh_system(
        n_tuples=300,
        n_boolean=2,
        cardinality=4,
        seed=42,
        rtree_method="insert",
    )


def test_insert_tuple_updates_affected_cells(system):
    tid, dirty = insert_tuple(
        system.relation, system.rtree, system.pcube, (1, 2), (0.5, 0.5)
    )
    assert tid == 300
    dirty_dims = {cell.dims for cell in dirty}
    assert ("A1",) in dirty_dims and ("A2",) in dirty_dims
    verify_all_signatures(system)


def test_insert_many_with_splits(system):
    rng = random.Random(7)
    for _ in range(80):
        insert_tuple(
            system.relation,
            system.rtree,
            system.pcube,
            (rng.randrange(4), rng.randrange(4)),
            (rng.random(), rng.random()),
        )
    verify_all_signatures(system)


def test_insert_batch_equivalent_to_tuple_at_a_time(fresh_system):
    a = fresh_system(n_tuples=200, seed=9, rtree_method="insert")
    b = fresh_system(n_tuples=200, seed=9, rtree_method="insert")
    rng = random.Random(3)
    rows = [
        ((rng.randrange(5), rng.randrange(5)), (rng.random(), rng.random()))
        for _ in range(40)
    ]
    for bool_row, pref_row in rows:
        insert_tuple(a.relation, a.rtree, a.pcube, bool_row, pref_row)
    insert_batch(b.relation, b.rtree, b.pcube, rows)
    verify_all_signatures(a)
    verify_all_signatures(b)
    # Same final signatures (identical insertion order => identical trees).
    for cuboid in a.pcube.cuboids:
        for cell in cuboid.group(a.relation):
            assert a.pcube.signature_of(cell) == b.pcube.signature_of(cell)


def test_delete_tuple(system):
    alive = set(system.relation.tids())
    rng = random.Random(1)
    for tid in rng.sample(sorted(alive), 60):
        dirty = delete_tuple(system.relation, system.rtree, system.pcube, tid)
        assert dirty  # the tuple's cells were touched
        alive.discard(tid)
    verify_all_signatures(system, alive)


def test_update_tuple_moves_in_preference_space(system):
    dirty = update_tuple(
        system.relation, system.rtree, system.pcube, 5, (0.99, 0.01)
    )
    assert system.relation.pref_point(5) == (0.99, 0.01)
    assert isinstance(dirty, set)
    verify_all_signatures(system)


def test_mixed_workload_stress(fresh_system):
    system = fresh_system(
        n_tuples=150, n_boolean=2, cardinality=3, seed=77, rtree_method="insert"
    )
    rng = random.Random(5)
    alive = set(system.relation.tids())
    next_row = 150
    for step in range(120):
        action = rng.random()
        if action < 0.5 or not alive:
            insert_tuple(
                system.relation,
                system.rtree,
                system.pcube,
                (rng.randrange(3), rng.randrange(3)),
                (rng.random(), rng.random()),
            )
            alive.add(next_row)
            next_row += 1
        elif action < 0.8:
            tid = rng.choice(sorted(alive))
            delete_tuple(system.relation, system.rtree, system.pcube, tid)
            alive.discard(tid)
        else:
            tid = rng.choice(sorted(alive))
            update_tuple(
                system.relation,
                system.rtree,
                system.pcube,
                tid,
                (rng.random(), rng.random()),
            )
    verify_all_signatures(system, alive)


def test_queries_stay_correct_after_maintenance(fresh_system, rng):
    from repro.baselines.naive import naive_skyline
    from repro.data.workload import sample_predicate

    system = fresh_system(n_tuples=250, seed=31, rtree_method="insert")
    alive = set(system.relation.tids())
    for _ in range(50):
        insert_tuple(
            system.relation,
            system.rtree,
            system.pcube,
            (rng.randrange(5), rng.randrange(5)),
            (rng.random(), rng.random()),
        )
        alive.add(max(alive) + 1)
    for tid in rng.sample(sorted(alive), 40):
        delete_tuple(system.relation, system.rtree, system.pcube, tid)
        alive.discard(tid)
    predicate = sample_predicate(system.relation, 1, rng)
    result = system.engine.skyline(predicate)
    truth = set(
        naive_skyline(
            [
                (tid, system.relation.pref_point(tid))
                for tid in alive
                if predicate.matches(system.relation, tid)
            ]
        )
    )
    assert set(result.tids) == truth


# --------------------------------------------------------------------------- #
# ordering and tombstone contracts
# --------------------------------------------------------------------------- #


def test_update_writes_relation_before_rtree(system, monkeypatch):
    """Crash-safety ordering: the relation already holds the new preference
    row when the R-tree mutation starts, so recovery can trust the heap."""

    def boom(*args, **kwargs):
        raise RuntimeError("rtree down")

    monkeypatch.setattr(system.rtree, "update", boom)
    with pytest.raises(RuntimeError, match="rtree down"):
        update_tuple(
            system.relation, system.rtree, system.pcube, 3, (0.7, 0.3)
        )
    assert system.relation.pref_point(3) == (0.7, 0.3)


def test_update_refuses_tombstoned_tid(system):
    delete_tuple(system.relation, system.rtree, system.pcube, 4)
    with pytest.raises(KeyError):
        update_tuple(
            system.relation, system.rtree, system.pcube, 4, (0.1, 0.1)
        )


def test_delete_tombstones_the_relation_row(system):
    delete_tuple(system.relation, system.rtree, system.pcube, 10)
    assert not system.relation.is_live(10)
    assert 10 not in set(system.relation.live_tids())
    assert 10 not in list(system.relation.scan())
    # Row data is retained so late readers (and recovery) can still group it.
    assert len(system.relation) == 300
    assert system.relation.bool_row(10) is not None


@pytest.mark.parametrize(
    "write, error",
    [
        (lambda s: s.insert((0, 1), (0.5,)), ValueError),  # preference width
        (lambda s: s.insert((0,), (0.5, 0.5)), ValueError),  # boolean width
        (lambda s: s.insert((0, 1), (0.5, float("nan"))), ValueError),
        (lambda s: s.delete(10_000), IndexError),
        (lambda s: s.delete(-1), IndexError),
        (lambda s: s.update(3, (0.5, 0.5, 0.5)), ValueError),
        (lambda s: s.update(3, (float("-inf"), 0.5)), ValueError),
        (
            lambda s: s.insert_batch([((0, 1), (0.1, 0.2)), ((0, 1), (0.3,))]),
            ValueError,
        ),
    ],
    ids=[
        "insert-pref-width",
        "insert-bool-width",
        "insert-nan",
        "delete-past-the-end",
        "delete-negative",
        "update-width",
        "update-inf",
        "insert-batch-one-bad-row",
    ],
)
def test_a_malformed_write_is_refused_before_it_is_journalled(
    system, write, error
):
    """The write raises what it always raised, but journals nothing: no
    pending op, a clean audit, and the next write goes through."""
    system.delete(7)
    before = (len(system.relation), system.disk.write_counters.snapshot())
    with pytest.raises(error):
        write(system)
    with pytest.raises(KeyError):
        system.delete(7)
    assert system.wal.pending() is None
    assert (len(system.relation), system.disk.write_counters.snapshot()) == before
    assert system.verify_consistency().ok
    tid, _ = system.insert((0, 1), (0.25, 0.75))
    system.update(tid, (0.5, 0.5))
    system.delete(tid)
    assert system.recover() == "clean"
    assert system.verify_consistency().ok


# --------------------------------------------------------------------------- #
# the read-modify-write rewrite: same pages, work along the changed paths
# --------------------------------------------------------------------------- #


def from_scratch(system, cell):
    """What a whole-cell decompose of the live counts would store."""
    return from_scratch_bytes(
        system.pcube.store, system.pcube.counted_of(cell).to_signature()
    )


def system_on(disk, n_tuples=400):
    relation = generate_relation(
        SyntheticConfig(
            n_tuples=n_tuples, n_boolean=2, cardinality=3, n_preference=2, seed=5
        ),
        disk=disk,
    )
    return build_system(relation, fanout=6, rtree_method="insert")


def run_op_stream(system, rng, n_ops, after_each):
    """Seeded inserts / deletes / updates / batches through the system's
    WAL-protected drivers; ``after_each(dirty cells)`` runs after every op.
    Returns how many ops reorganised the tree (moved a tuple other than the
    one written)."""
    reorganised = 0
    moved = []  # tuples whose path changed, per op
    real_apply = system.pcube.apply_changes

    def spying_apply(changes, on_cell_stored=None):
        moved.append(len({change.tid for change in changes}))
        return real_apply(changes, on_cell_stored)

    system.pcube.apply_changes = spying_apply
    try:
        for _ in range(n_ops):
            live = sorted(system.relation.live_tids())
            action = rng.random()
            written = 1
            if action < 0.4 or len(live) < 20:
                _, dirty = system.insert(
                    system.relation.bool_row(rng.choice(live)),
                    (rng.random(), rng.random()),
                )
            elif action < 0.7:
                dirty = system.delete(rng.choice(live))
            elif action < 0.9:
                dirty = system.update(
                    rng.choice(live), (rng.random(), rng.random())
                )
            else:
                written = 5
                _, dirty = system.insert_batch(
                    [
                        (
                            system.relation.bool_row(rng.choice(live)),
                            (rng.random(), rng.random()),
                        )
                        for _ in range(written)
                    ]
                )
            reorganised += moved[-1] > written
            after_each(dirty)
    finally:
        del system.pcube.apply_changes
    return reorganised


@pytest.mark.parametrize("page_size", [4096, 128])
def test_rewritten_partials_equal_a_from_scratch_decompose(page_size):
    """4 096-byte pages keep each cell in one partial; 128-byte pages spread
    it over many, with packing boundaries that move when a blob changes
    length."""
    system = system_on(SimulatedDisk(page_size=page_size))
    system.enable_epochs()
    height_before = system.rtree.height()
    nodes_before = system.rtree.node_count()
    most_partials = 0
    n_ops, audit_every, ops_done = 160, 16, 0

    def check(dirty):
        nonlocal most_partials, ops_done
        assert dirty
        for cell in dirty:
            assert stored_bytes(system.pcube.store, cell) == from_scratch(system, cell), cell
            most_partials = max(most_partials, system.pcube.store.n_partials(cell))
        # Byte identity is asserted on every dirty cell after every op; the
        # whole-system audit (every cell of every cuboid re-derived) runs on
        # every 16th op and after the last.
        ops_done += 1
        if ops_done % audit_every == 0 or ops_done == n_ops:
            report = system.verify_consistency()
            assert report.ok, report.problems

    reorganised = run_op_stream(system, random.Random(11), n_ops, check)
    assert ops_done == n_ops
    # The stream split nodes, condensed the tree and re-inserted entries.
    assert reorganised >= 10
    assert system.rtree.node_count() != nodes_before
    assert system.rtree.height() >= height_before
    assert (most_partials == 1) == (page_size == 4096)
    assert not system.pcube._pending_sids


def test_a_write_compresses_no_more_than_its_dirty_sids(monkeypatch):
    system = system_on(SimulatedDisk())
    fanout = system.pcube.fanout
    compressed = count_compressions(monkeypatch)
    budget = 0
    real_apply = system.pcube.apply_changes

    def budgeting_apply(changes, on_cell_stored=None):
        nonlocal budget
        sids: dict = {}
        for change in changes:
            for cuboid in system.pcube.cuboids:
                cell = cuboid.cell_for(system.relation, change.tid)
                for path in (change.old_path, change.new_path):
                    if path is not None:
                        sids.setdefault(cell, set()).update(
                            ancestor_sids(path[:-1], fanout)
                        )
        budget = sum(len(cell_sids) for cell_sids in sids.values())
        return real_apply(changes, on_cell_stored)

    monkeypatch.setattr(system.pcube, "apply_changes", budgeting_apply)
    rng = random.Random(3)
    for _ in range(40):
        del compressed[:]
        _, dirty = system.insert(
            system.relation.bool_row(rng.randrange(400)),
            (rng.random(), rng.random()),
        )
        stored_nodes = sum(
            system.pcube.counted_of(cell).n_nodes() for cell in dirty
        )
        assert 0 < len(compressed) <= budget
        # A whole-cell recompress would be an order of magnitude more.
        assert budget < stored_nodes
        for cell in dirty:
            assert stored_bytes(system.pcube.store, cell) == from_scratch(system, cell)


def test_a_write_touches_only_the_nodes_on_its_path(monkeypatch):
    """Under an epoch snapshot, per dirty cell: count dicts copied, bit
    arrays built and blobs compressed are bounded by the dirty SIDs — never
    by the cell's ~520 nodes — and no whole-cell bitmap is built."""
    system = system_on(SimulatedDisk(), n_tuples=2000)
    system.enable_epochs()
    pcube = system.pcube
    compressed = count_compressions(monkeypatch)
    built = []

    class CountingBitArray(BitArray):
        def __init__(self, nbits, mask=0):
            built.append(mask)
            super().__init__(nbits, mask)

    monkeypatch.setattr(counted_module, "BitArray", CountingBitArray)
    bitmaps = []
    real_view = CountedSignature.to_signature
    monkeypatch.setattr(
        CountedSignature,
        "to_signature",
        lambda self: bitmaps.append(self) or real_view(self),
    )
    puts = {}
    real_put = pcube.store.put_signature

    def recording_put(cell, signature, dirty_sids=None):
        puts[cell] = (signature, set(dirty_sids))
        return real_put(cell, signature, dirty_sids)

    monkeypatch.setattr(pcube.store, "put_signature", recording_put)
    rng = random.Random(8)
    for step in range(40):
        del compressed[:], built[:]
        puts.clear()
        before = dict(pcube._counted)
        live = sorted(system.relation.live_tids())
        if step % 3 == 0:
            _, dirty = system.insert(
                system.relation.bool_row(rng.choice(live)),
                (rng.random(), rng.random()),
            )
        elif step % 3 == 1:
            dirty = system.update(rng.choice(live), (rng.random(), rng.random()))
        else:
            dirty = system.delete(rng.choice(live))
        assert not bitmaps
        assert set(puts) == dirty
        represented = 0
        for cell in dirty:
            counted, dirty_sids = puts[cell]
            assert counted is pcube.counted_of(cell) is not before[cell]
            # Copied or created: on the changed paths; everything else is
            # still the dict the previous epoch's snapshot holds.
            assert counted._owned <= dirty_sids
            for sid, node in counted._counts.items():
                if sid not in dirty_sids:
                    assert node is before[cell]._counts[sid]
            assert len(dirty_sids) < counted.n_nodes() / 10
            represented += len(dirty_sids & set(counted.node_sids()))
        assert len(built) == len(compressed) == represented
        for cell in dirty:
            assert stored_bytes(pcube.store, cell) == from_scratch(system, cell)
        del bitmaps[:]  # the oracle's own views
    report = system.verify_consistency()
    assert report.ok, report.problems


def test_a_stored_node_set_that_is_not_the_claimed_one_costs_a_recompress(
    monkeypatch,
):
    """The rewrite trusts the pages for every node off the changed paths.
    If they do not hold exactly those nodes — here one was stripped and the
    page sealed again, so the read-back verifies — patching cannot be right
    and the whole cell is compressed afresh."""
    system = system_on(SimulatedDisk())
    pcube = system.pcube
    cell = sorted(pcube._counted, key=lambda c: c.cell_id)[0]
    bool_row = next(
        system.relation.bool_row(tid)
        for tid in system.relation.live_tids()
        if cell.matches(system.relation, tid)
    )
    (page_id,) = pcube.store.refs_for(cell).values()
    page = system.disk.peek(page_id)
    stripped = max(page.payload.blobs)  # a leaf-level node
    del page.payload.blobs[stripped]
    page.seal()
    compressed = count_compressions(monkeypatch)
    _, dirty = system.insert(bool_row, (0.999, 0.999))
    assert cell in dirty
    assert stripped not in pcube.counted_of(cell).dirty_sids(
        system.rtree.all_paths()[len(system.relation) - 1]
    )
    assert len(compressed) >= pcube.counted_of(cell).n_nodes()
    for dirty_cell in dirty:
        assert stored_bytes(pcube.store, dirty_cell) == from_scratch(system, dirty_cell)
    report = system.verify_consistency()
    assert report.ok, report.problems


@pytest.mark.parametrize("how", ["restore_cell", "rebuild_cell", "recompute_cell"])
def test_recovery_rewrites_trust_no_stored_blob(how, monkeypatch):
    system = system_on(SimulatedDisk())
    cell = sorted(system.pcube._counted, key=lambda c: c.cell_id)[0]
    compressed = count_compressions(monkeypatch)
    getattr(system.pcube, how)(cell)
    assert len(compressed) == system.pcube.counted_of(cell).n_nodes()
    assert stored_bytes(system.pcube.store, cell) == from_scratch(system, cell)


@pytest.mark.parametrize("kind", ["corrupt", "transient"])
def test_unreadable_old_partial_costs_a_recompress_not_the_write(kind):
    disk = FaultyDisk(SimulatedDisk())
    system = system_on(disk)
    rule = FaultRule(kind=kind, op="read", tag="pcube:sig", count=1)
    disk.plan = FaultPlan([rule])
    _, dirty = system.insert((1, 2), (0.5, 0.5))
    assert rule.fired == 1
    disk.plan = FaultPlan()
    assert not system.pcube.store.quarantined_cells()
    for cell in dirty:
        assert stored_bytes(system.pcube.store, cell) == from_scratch(system, cell)
        assert not system.pcube.store.reader(cell).stats.degraded
    report = system.verify_consistency()
    assert report.ok, report.problems


def test_crash_on_the_old_partial_read_is_recoverable():
    disk = FaultyDisk(SimulatedDisk())
    system = system_on(disk)
    twin = system_on(SimulatedDisk())
    twin.insert((1, 2), (0.5, 0.5))
    # The second dirty cell's read-back: one cell committed, two did not.
    disk.plan = FaultPlan(
        [FaultRule(kind="crash", op="read", tag="pcube:sig", after=1, count=1)]
    )
    with pytest.raises(SimulatedCrash):
        system.insert((1, 2), (0.5, 0.5))
    disk.plan = FaultPlan()
    assert system.recover() == "replayed"
    assert not system.pcube._pending_sids
    report = system.verify_consistency()
    assert report.ok, report.problems
    for cuboid in system.pcube.cuboids:
        for cell in cuboid.group(system.relation):
            assert stored_bytes(system.pcube.store, cell) == stored_bytes(twin.pcube.store, cell)


def test_rewrite_after_a_faulted_rewrite_stores_both_writes_nodes():
    """The pending-SID rule: without a WAL nobody replays the faulted
    rewrite, so the next write to the cell must also compress the nodes the
    first one moved."""
    disk = FaultyDisk(SimulatedDisk())
    system = system_on(disk)
    structures = system.relation, system.rtree, system.pcube
    bool_row = (1, 2)
    disk.plan = FaultPlan(
        [FaultRule(kind="torn", op="allocate", tag="pcube:sig", count=1)]
    )
    with pytest.raises(TornWriteError):
        insert_tuple(*structures, bool_row, (0.01, 0.01), wal=None)
    disk.plan = FaultPlan()
    first_cell = min(
        (
            cuboid.cell_for(system.relation, len(system.relation) - 1)
            for cuboid in system.pcube.cuboids
        ),
        key=lambda cell: cell.cell_id,
    )
    # The counts moved, the pages did not: the cell's store is one write behind.
    assert stored_bytes(system.pcube.store, first_cell) != from_scratch(system, first_cell)
    pending_after_fault = set(system.pcube._pending_sids[first_cell])
    assert pending_after_fault

    tid, dirty = insert_tuple(*structures, bool_row, (0.99, 0.99), wal=None)
    assert system.rtree.path_of(tid)[:-1] != system.rtree.path_of(tid - 1)[:-1]
    assert first_cell in dirty
    for cell in dirty:
        assert stored_bytes(system.pcube.store, cell) == from_scratch(system, cell)
    assert not system.pcube._pending_sids
    report = system.verify_consistency()
    assert report.ok, report.problems
