"""Incremental maintenance: signatures stay exact under any mutation mix."""

import random
from dataclasses import replace

import numpy as np
import pytest

from repro.baselines.naive import naive_skyline
from repro.core import partial as partial_module
from repro.core.maintenance import (
    delete_tuple,
    insert_batch,
    insert_tuple,
    merge_changes,
    update_tuple,
)
from repro.core.pcube import PathColumns
from repro.core.signature import Signature, path_sids
from repro.data.synthetic import SyntheticConfig, generate_relation
from repro.rtree.rtree import PathChange
from repro.storage.counters import SSIG
from repro.storage.disk import SimulatedDisk
from repro.storage.errors import TornWriteError
from repro.storage.faults import (
    FaultPlan,
    FaultRule,
    FaultyDisk,
    SimulatedCrash,
)
from repro.query.predicates import BooleanPredicate
from repro.serve.scrub import Scrubber
from repro.system import build_system
from tests.core.test_bit_edit import moved
from tests.core.test_store import (
    count_compressions,
    from_scratch_bytes,
    stored_bytes,
)
from tests.integration.test_crash_recovery import copy_of
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
    """Editing the merged batch into a signature — all its removals first —
    is equivalent to replaying the raw stream change by change.  A slot
    holds one tuple at a time, so a raw change only moves a tuple to a free
    slot; a merged record may not (its slot was freed by a later change)."""
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
        if old == new or new in current.values():
            continue
        stream.append(PathChange(tid, old, new))
        current[tid] = new

    def replay(changes):
        signature = Signature.from_paths(base_paths.values(), fanout)
        for change in changes:
            signature = moved(
                signature,
                [change.old_path] if change.old_path is not None else [],
                [change.new_path] if change.new_path is not None else [],
            )
        return signature

    merged = merge_changes(stream)
    at_once = moved(
        Signature.from_paths(base_paths.values(), fanout),
        [c.old_path for c in merged if c.old_path is not None],
        [c.new_path for c in merged if c.new_path is not None],
    )
    live = [path for path in current.values() if path is not None]
    assert at_once == replay(stream) == Signature.from_paths(live, fanout)


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
    assert 10 not in set(system.relation.live_tids())
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
        (lambda s: s.delete(2.5), TypeError),
        (lambda s: s.delete(1.0), TypeError),
        (lambda s: s.update(3, (0.5, 0.5, 0.5)), ValueError),
        (lambda s: s.update(3, (float("-inf"), 0.5)), ValueError),
        (lambda s: s.update(np.float64(2.0), (0.5, 0.5)), TypeError),
        (lambda s: s.update(1.0, (0.5, 0.5)), TypeError),
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
        "delete-fractional-tid",
        "delete-float-tid",
        "update-width",
        "update-inf",
        "update-numpy-float-tid",
        "update-float-tid",
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


def test_an_integer_like_tid_is_journalled_as_an_int(system):
    """A numpy integer is a tid (``operator.index`` takes it); the intent
    records the plain int."""
    system.update(np.int64(3), (0.5, 0.5))
    system.delete(np.int64(3))
    assert not system.relation.is_live(3)
    intents = [r for r in system.wal._scan().records if r["kind"] == "intent"]
    assert [type(r["payload"]["tid"]) for r in intents[-2:]] == [int, int]
    assert system.verify_consistency().ok


# --------------------------------------------------------------------------- #
# the read-modify-write rewrite: same pages, work along the changed paths
# --------------------------------------------------------------------------- #


def generated(system, cell):
    """The cell's signature generated from its live members' current
    R-tree paths."""
    paths = system.rtree.all_paths()
    return Signature.from_paths(
        [
            paths[tid]
            for tid in system.relation.live_tids()
            if cell.matches(system.relation, tid)
        ],
        system.pcube.fanout,
    )


def from_scratch(system, cell):
    """What a whole-cell decompose of the generated signature would store."""
    return from_scratch_bytes(system.pcube.store, generated(system, cell))


def n_nodes(system, cell):
    return len(list(system.pcube.signature_of(cell).masks()))


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

    def spying_apply(changes):
        moved.append(len({change.tid for change in changes}))
        return real_apply(changes)

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
    level_before = system.rtree.root.level
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
    assert system.rtree.root.level >= level_before
    assert (most_partials == 1) == (page_size == 4096)


def test_a_write_compresses_no_more_than_its_dirty_sids(monkeypatch):
    system = system_on(SimulatedDisk())
    fanout = system.pcube.fanout
    compressed = count_compressions(monkeypatch)
    budget = 0
    real_apply = system.pcube.apply_changes

    def budgeting_apply(changes):
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
        return real_apply(changes)

    monkeypatch.setattr(system.pcube, "apply_changes", budgeting_apply)
    rng = random.Random(3)
    for _ in range(40):
        del compressed[:]
        _, dirty = system.insert(
            system.relation.bool_row(rng.randrange(400)),
            (rng.random(), rng.random()),
        )
        stored_nodes = sum(n_nodes(system, cell) for cell in dirty)
        assert 0 < len(compressed) <= budget
        # A whole-cell recompress would be an order of magnitude more.
        assert budget < stored_nodes
        for cell in dirty:
            assert stored_bytes(system.pcube.store, cell) == from_scratch(system, cell)


def test_a_write_touches_only_the_nodes_on_its_path(monkeypatch):
    """Under an epoch snapshot, per dirty cell: nodes decoded and blobs
    compressed are bounded by the nodes on the moved paths — never by the
    cell's ~520 nodes — and no cell is derived from the tree."""
    system = system_on(SimulatedDisk(), n_tuples=2000)
    pcube = system.pcube
    fanout = pcube.fanout
    compressed = count_compressions(monkeypatch)
    decoded = []
    real_decompress = partial_module.decompress
    monkeypatch.setattr(
        partial_module,
        "decompress",
        lambda blob: decoded.append(blob) or real_decompress(blob),
    )
    derived = []
    real_masks = PathColumns.masks
    monkeypatch.setattr(
        PathColumns,
        "masks",
        lambda self, *args: derived.append(args) or real_masks(self, *args),
    )
    puts = {}
    real_put = pcube.store.put_signature

    def recording_put(cell, signature=None, removed=(), added=()):
        puts[cell] = (signature, removed, added)
        return real_put(cell, signature, removed, added)

    monkeypatch.setattr(pcube.store, "put_signature", recording_put)
    rng = random.Random(8)
    for step in range(40):
        del compressed[:], decoded[:]
        puts.clear()
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
        n_decoded, n_compressed = len(decoded), len(compressed)
        assert not derived
        assert set(puts) == dirty
        budget = 0
        for cell in dirty:
            signature, removed, added = puts[cell]
            assert signature is None
            sids = {
                sid for path in (*removed, *added) for sid in path_sids(path, fanout)
            }
            assert len(sids) < n_nodes(system, cell) / 10
            budget += len(sids)
        assert 0 < n_compressed <= budget
        assert n_decoded <= budget
        for cell in dirty:
            assert stored_bytes(pcube.store, cell) == from_scratch(system, cell)
    report = system.verify_consistency()
    assert report.ok, report.problems


def test_a_rewrite_fingerprints_each_new_partial_once(monkeypatch):
    """Counted: a write computes the page checksum of each partial it
    stores exactly once, at its seal.  Its read-back of the cell's current
    pages (written by the build, then by the write before) and a cold
    pool's miss later verify them with the checksum each partial already
    carries."""
    system = system_on(SimulatedDisk())
    store = system.pcube.store
    fingerprinted = []
    real = partial_module.fingerprint
    monkeypatch.setattr(
        partial_module,
        "fingerprint",
        lambda partial: fingerprinted.append(partial) or real(partial),
    )

    def stored(cells):
        directory = store.directory_snapshot()
        return [
            system.disk.peek(page_id).payload
            for cell in cells
            for page_id in directory[cell.cell_id].values()
        ]

    bool_row = system.relation.bool_row(0)
    for step in range(2):
        del fingerprinted[:]
        reads = system.disk.counters.get(SSIG)
        _, dirty = system.insert(bool_row, (0.5, 0.1 * step))
        assert dirty and system.disk.counters.get(SSIG) > reads  # the read-back
        assert sorted(map(id, fingerprinted)) == sorted(map(id, stored(dirty)))
    del fingerprinted[:]
    predicate = BooleanPredicate(dict(zip(("A1", "A2"), bool_row)))
    result = system.engine.skyline(predicate)
    assert result.stats.sig_loads > 0
    assert fingerprinted == []


def test_the_edit_trusts_the_pages_off_its_paths_and_the_audit_does_not():
    """The rewrite reads every node off the moved paths from the pages as
    they are.  Here one was stripped and the page sealed again, so the
    read-back verifies: the write keeps the damage, the audit reports the
    cell, and one scrubber pass re-derives it."""
    system = system_on(SimulatedDisk())
    pcube = system.pcube
    cell = min(pcube.cuboids[0].group(system.relation), key=lambda c: c.cell_id)
    bool_row = next(
        system.relation.bool_row(tid)
        for tid in system.relation.live_tids()
        if cell.matches(system.relation, tid)
    )
    (page_id,) = pcube.store.directory_snapshot()[cell.cell_id].values()
    page = system.disk.peek(page_id)
    stripped = max(page.payload.blobs)  # a leaf-level node
    kept = {sid: blob for sid, blob in page.payload.blobs.items() if sid != stripped}
    page.payload = replace(page.payload, blobs=kept)
    page.seal()
    tid, dirty = system.insert(bool_row, (0.999, 0.999))
    assert cell in dirty
    assert stripped not in path_sids(system.rtree.all_paths()[tid], pcube.fanout)
    assert stripped not in set(pcube.signature_of(cell).masks())
    report = system.verify_consistency()
    assert report.problems == [
        f"cell {cell}: stored signature diverges from the R-tree partition"
    ]
    findings = Scrubber(system).run_pass()
    assert [(f.kind, f.subject, f.repaired) for f in findings] == [
        ("invariant", cell.cell_id, True)
    ]
    assert stored_bytes(pcube.store, cell) == from_scratch(system, cell)
    report = system.verify_consistency()
    assert report.ok, report.problems


@pytest.mark.parametrize("how", ["rebuild_cell", "recompute_cell", "recompute_cells"])
def test_recovery_rewrites_trust_no_stored_blob(how, monkeypatch):
    system = system_on(SimulatedDisk())
    cell = min(system.pcube.cuboids[0].group(system.relation), key=lambda c: c.cell_id)
    compressed = count_compressions(monkeypatch)
    rewrite = getattr(system.pcube, how)
    rewrite([cell]) if how == "recompute_cells" else rewrite(cell)
    assert len(compressed) == n_nodes(system, cell)
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
    # The second dirty cell's read-back: one cell committed, two did not.
    disk.plan = FaultPlan(
        [FaultRule(kind="crash", op="read", tag="pcube:sig", after=1, count=1)]
    )
    with pytest.raises(SimulatedCrash):
        system.insert((1, 2), (0.5, 0.5))
    disk.plan = FaultPlan()
    assert system.recover() == "reindexed"
    report = system.verify_consistency()
    assert report.ok, report.problems
    # Recovery rebuilds what the build builds over the recovered rows.
    fresh = build_system(copy_of(system.relation), fanout=6)
    for cuboid in system.pcube.cuboids:
        for cell in cuboid.group(system.relation):
            assert stored_bytes(system.pcube.store, cell) == stored_bytes(fresh.pcube.store, cell)


def test_recovery_derives_every_cell_from_one_path_matrix(monkeypatch):
    """Recovery re-stores every cell from one matrix of the tree's paths,
    however many the crash left behind."""
    disk = FaultyDisk(SimulatedDisk())
    system = system_on(disk)
    # The first dirty cell's read-back: no cell committed.
    disk.plan = FaultPlan(
        [FaultRule(kind="crash", op="read", tag="pcube:sig", count=1)]
    )
    with pytest.raises(SimulatedCrash):
        system.insert((1, 2), (0.5, 0.5))
    disk.plan = FaultPlan()
    matrices = []
    real_init = PathColumns.__init__
    monkeypatch.setattr(
        PathColumns,
        "__init__",
        lambda self, *args: matrices.append(args) or real_init(self, *args),
    )
    assert system.recover() == "reindexed"
    assert len(matrices) == 1
    assert system.maintenance_stats.reindexes == 1
    report = system.verify_consistency()
    assert report.ok, report.problems


def faulted_insert(system, disk, pref_row=(0.01, 0.01)):
    """An unjournalled insert of ``(1, 2)`` whose first signature-page
    allocation tears; returns the dirty cells, in rewrite order."""
    structures = system.relation, system.rtree, system.pcube
    disk.plan = FaultPlan(
        [FaultRule(kind="torn", op="allocate", tag="pcube:sig", count=1)]
    )
    with pytest.raises(TornWriteError):
        insert_tuple(*structures, (1, 2), pref_row, wal=None)
    disk.plan = FaultPlan()
    tid = len(system.relation) - 1
    return sorted(
        (cuboid.cell_for(system.relation, tid) for cuboid in system.pcube.cuboids),
        key=lambda cell: cell.cell_id,
    )


def test_rewrite_after_a_faulted_rewrite_stores_both_writes_nodes():
    """Without a WAL nobody replays the faulted rewrite, and nothing in
    memory holds its edit: the cells it left behind are quarantined, and
    the next write to them re-derives them from the R-tree, so the pages
    end up holding both writes' paths."""
    disk = FaultyDisk(SimulatedDisk())
    system = system_on(disk)
    behind = faulted_insert(system, disk)
    # The tree moved, the pages did not: every dirty cell is one write
    # behind, and says so.
    for cell in behind:
        assert stored_bytes(system.pcube.store, cell) != from_scratch(system, cell)
    assert system.pcube.store.quarantined_cells() == behind
    rebuilds = system.pcube.store.fault_stats.rebuilds

    structures = system.relation, system.rtree, system.pcube
    tid, dirty = insert_tuple(*structures, (1, 2), (0.99, 0.99), wal=None)
    paths = system.rtree.all_paths()
    assert paths[tid][:-1] != paths[tid - 1][:-1]
    assert dirty == set(behind)
    for cell in dirty:
        assert stored_bytes(system.pcube.store, cell) == from_scratch(system, cell)
    assert system.pcube.store.fault_stats.rebuilds == rebuilds + len(behind)
    report = system.verify_consistency()
    assert report.ok, report.problems


@pytest.mark.parametrize("conjuncts", [{"A1": 1}, {"A2": 2}])
def test_a_read_between_a_faulted_rewrite_and_the_next_write_is_exact(conjuncts):
    """The faulted write's tuple reached the relation and the tree but not
    the cells' pages: a reader must not trust those pages.  It takes the
    quarantined cells' degraded path, which answers exactly."""
    disk = FaultyDisk(SimulatedDisk())
    system = system_on(disk)
    with system.epochs.write():
        faulted_insert(system, disk)
        system.epochs.publish()  # the epoch a reader sees the fault in
    tid = len(system.relation) - 1
    engine = system.engine
    relation = engine.relation
    predicate = BooleanPredicate(conjuncts)
    truth = set(
        naive_skyline(
            [
                (member, relation.pref_point(member))
                for member in relation.live_tids()
                if predicate.matches(relation, member)
            ]
        )
    )
    assert tid in truth
    result = engine.skyline(predicate)
    assert set(result.tids) == truth
    assert result.stats.degraded


def test_a_faulted_journalled_write_reads_exactly_until_recovery():
    """Through the system's journalled insert: the fault leaves the op
    pending in the WAL and the dirty cells quarantined.  A read before
    ``recover()`` — on the epoch the abandoned write never published —
    answers exactly, and recovery re-derives the cells, lifts the
    quarantine and publishes the repaired epoch."""
    disk = FaultyDisk(SimulatedDisk())
    system = system_on(disk)
    predicate = BooleanPredicate({"A1": 1})
    disk.plan = FaultPlan(
        [FaultRule(kind="torn", op="allocate", tag="pcube:sig", count=1)]
    )
    with pytest.raises(TornWriteError):
        system.insert((1, 2), (0.01, 0.01))
    disk.plan = FaultPlan()
    assert system.wal.pending() is not None
    assert system.pcube.store.quarantined_cells()

    def exact(engine):
        relation = engine.relation
        truth = naive_skyline(
            [
                (tid, relation.pref_point(tid))
                for tid in relation.live_tids()
                if predicate.matches(relation, tid)
            ]
        )
        return set(engine.skyline(predicate).tids) == set(truth)

    assert exact(system.engine)
    assert system.recover() == "reindexed"
    assert not system.pcube.store.quarantined_cells()
    report = system.verify_consistency()
    assert report.ok, report.problems
    assert exact(system.engine)
