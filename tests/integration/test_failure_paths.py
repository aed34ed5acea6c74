"""Failure injection: the error paths must fail loudly, never corrupt."""

import random
from dataclasses import replace

import pytest

from repro.bitmap.compression import compress
from repro.core.partial import decompose
from repro.core.signature import Signature, move_paths
from repro.core.store import SignatureStore
from repro.cube.cuboid import Cell
from repro.data.synthetic import SyntheticConfig, generate_relation
from repro.data.workload import sample_predicate
from repro.rtree.rtree import RTree
from repro.storage.disk import PageFault, SimulatedDisk
from repro.storage.faults import FaultPlan, FaultRule, FaultyDisk
from repro.system import build_system


@pytest.mark.parametrize("stray", [(2, 1), (1, 4)])
def test_removing_a_path_the_cell_does_not_hold_leaves_its_tuples(stray):
    """A removal clears only bits whose subtree it empties: a stray path —
    under an absent node or beside live slots — takes no tuple's bit."""
    masks = {0: 0b1, 1: 0b110, 2: 0}
    move_paths(masks, [stray], [], 4)
    assert Signature.from_masks(4, masks) == Signature.from_paths([(1, 2), (1, 3)], 4)


def test_store_load_after_replace_does_not_fault():
    disk = SimulatedDisk(page_size=64)
    store = SignatureStore(disk, fanout=4, codec="raw")
    cell = Cell(("A",), ("x",))
    wide = Signature.from_paths(
        [(a, b) for a in (1, 2, 3) for b in (1, 2)], 4
    )
    store.put_signature(cell, wide)
    old_refs = list(store._directory[cell.cell_id].values())
    store.put_signature(cell, Signature.from_paths([(1, 1)], 4))
    # The replaced pages are gone; reading them directly faults ...
    for page_id in old_refs:
        with pytest.raises(PageFault):
            disk.read(page_id, "SSIG")
    # ... but the store's own paths never touch them.
    assert store.load_full_signature(cell) == Signature.from_paths([(1, 1)], 4)
    reader = store.reader(cell)
    assert reader.check_path((1, 1))


def test_rtree_insert_failure_does_not_register_tid():
    tree = RTree(dims=2, max_entries=4, min_entries=2)
    tree.insert(0, (0.1, 0.1))
    with pytest.raises(ValueError):
        tree.insert(1, (0.1, 0.1, 0.3))  # wrong dims, rejected up front
    assert len(tree) == 1
    # tid 1 can still be inserted correctly afterwards.
    tree.insert(1, (0.2, 0.2))
    assert len(tree) == 2


def test_decompose_single_giant_node_exceeds_page_gracefully():
    """A node blob larger than the page still gets its own (oversized)
    partial rather than being dropped or looping forever."""
    mask = (1 << 4096) - 1
    signature = Signature(4096)
    signature.set_node(0, mask)
    blob = compress(4096, mask, "raw")
    partials = decompose(signature, page_size=len(blob) // 2, codec="raw")
    assert len(partials) == 1
    assert 0 in partials[0].blobs
    assert partials[0].size_bytes > len(blob) // 2


def test_signature_store_missing_codec_never_silently_changes():
    disk = SimulatedDisk()
    with pytest.raises(Exception):
        store = SignatureStore(disk, fanout=4, codec="nope")
        store.put_signature(
            Cell(("A",), ("x",)), Signature.from_paths([(1, 1)], 4)
        )


def test_pcube_reader_unknown_dimension_fails_loudly(small_system):
    with pytest.raises(ValueError):
        small_system.engine.pcube.cover_for_dims({"NOT_A_DIM": 1})


def test_engine_queries_leave_disk_counters_consistent(small_system, rng):
    """Global disk counters only ever grow, and per-query counters are a
    lower bound of the growth (buffer hits absorb the rest)."""
    from repro.data.workload import sample_predicate

    before = small_system.disk.counters.total()
    predicate = sample_predicate(small_system.relation, 1, rng)
    result = small_system.engine.skyline(predicate)
    after = small_system.disk.counters.total()
    assert after >= before
    assert result.stats.total_io() <= after - before + result.stats.total_io()
    assert after - before >= result.stats.total_io()


# ---------------------------------------------------------------------- #
# fault schedules (the storage fault model, end to end)
# ---------------------------------------------------------------------- #


@pytest.mark.faults
def test_transient_fault_schedule_is_transparent(small_system, small_config, rng):
    """A bounded burst of transient read faults is absorbed by retries:
    same answer, nonzero retry counter, no degradation."""
    disk = FaultyDisk(SimulatedDisk())
    faulty = build_system(generate_relation(small_config, disk=disk), fanout=8)
    predicate = sample_predicate(small_system.relation, 1, rng)
    baseline = small_system.engine.skyline(predicate)

    disk.plan = FaultPlan(
        [FaultRule(kind="transient", tag="pcube:sig", count=3)]
    )
    result = faulty.engine.skyline(predicate)
    assert result.tids == baseline.tids
    assert result.stats.fault_retries == 3
    assert not result.stats.degraded
    assert result.stats.failed_loads == 0


@pytest.mark.faults
def test_corruption_degrades_then_rebuild_restores(
    small_system, small_config, rng
):
    """Permanent corruption flips the query to conservative mode (same
    answer, more work); rebuilding the quarantined cell restores full
    pruning at exactly the fault-free cost."""
    disk = FaultyDisk(SimulatedDisk())
    faulty = build_system(generate_relation(small_config, disk=disk), fanout=8)
    predicate = sample_predicate(small_system.relation, 1, rng)
    baseline = small_system.engine.skyline(predicate)

    disk.plan = FaultPlan(
        [FaultRule(kind="corrupt", tag="pcube:sig", count=1)]
    )
    degraded = faulty.engine.skyline(predicate)
    assert degraded.tids == baseline.tids  # correctness survives
    assert degraded.stats.degraded
    assert degraded.stats.failed_loads >= 1
    assert degraded.stats.degraded_checks > 0
    quarantined = faulty.pcube.store.quarantined_cells()
    assert quarantined

    disk.plan = FaultPlan()
    assert faulty.repair_quarantined() == quarantined
    healed = faulty.engine.skyline(predicate)
    assert healed.tids == baseline.tids
    assert not healed.stats.degraded
    assert healed.stats.ssig == baseline.stats.ssig


# ---------------------------------------------------------------------- #
# a stored blob that does not decode (a writer bug, not a storage fault)
# ---------------------------------------------------------------------- #


def _garble_blob(system, cell, sid):
    """Overwrite one node blob of ``cell`` with bytes no codec produces and
    re-seal the page, so its checksum passes."""
    for page_id in system.pcube.store.directory_snapshot()[cell.cell_id].values():
        page = system.disk.peek(page_id)
        if sid in page.payload.blobs:
            damaged = {**page.payload.blobs, sid: b"\xff\x00\xff"}
            page.payload = replace(page.payload, blobs=damaged)
            page.seal()
            page.verify()
            return
    raise AssertionError(f"cell {cell} stores no node {sid}")


def _undecodable_fixture():
    """A 2 000-tuple system, a one-conjunct predicate, and two SIDs of its
    cell: one the skyline search bit-tests, one it never touches."""
    from repro.data.fixtures import build_sweep_system
    from repro.query.algorithm1 import SkylineStrategy, run_algorithm1
    from repro.query.stats import QueryStats

    system = build_sweep_system(2_000, fanout=12, cardinality=6, seed=41)
    predicate = sample_predicate(system.relation, 1, random.Random(5))
    (cell,) = predicate.atomic_cells()
    reader = system.engine.pcube.reader_for_predicate(predicate.conjuncts)
    run_algorithm1(
        system.engine.rtree,
        SkylineStrategy(system.rtree.dims),
        QueryStats(),
        reader=reader,
    )
    tested = set(reader._nodes)
    stored = set(system.pcube.signature_of(cell).masks())
    assert tested < stored
    return system, predicate, cell, max(tested), max(stored - tested)


def test_undecodable_blob_fails_the_query_that_touches_it_and_no_other():
    """Nodes are decoded on their first bit test, so a blob that does not
    decode surfaces there — as a ``CodecError`` out of the signature
    attempt (also through the serving chain: it is not a storage fault and
    is not degraded around) — and a search that never tests the node
    answers exactly."""
    from repro.baselines.naive import naive_skyline
    from repro.bitmap.compression import CodecError
    from repro.serve.executor import QueryExecutor

    system, predicate, cell, tested_sid, untested_sid = _undecodable_fixture()
    expected = sorted(
        naive_skyline(
            (tid, system.relation.pref_point(tid))
            for tid in system.relation.live_tids()
            if predicate.matches(system.relation, tid)
        )
    )
    _garble_blob(system, cell, untested_sid)
    healthy = system.engine.skyline(predicate)
    assert sorted(healthy.tids) == expected
    assert not healthy.stats.degraded and healthy.stats.tier == "signature"

    _garble_blob(system, cell, tested_sid)
    with pytest.raises(CodecError):
        system.engine.skyline(predicate)
    assert cell not in system.pcube.store.quarantined_cells()
    with QueryExecutor(system) as executor:
        with pytest.raises(CodecError):
            executor.skyline(predicate=predicate).result(timeout=30.0)


def test_undecodable_blob_is_found_and_healed_by_the_audits():
    """The audits reassemble whole signatures (``load_full_signature``
    decodes every node), so they see the blob wherever it sits: the
    consistency check reports the cell unreadable, the scrubber's invariant
    sweep rebuilds it from the base relation."""
    from repro.serve.scrub import Scrubber

    system, predicate, cell, _, untested_sid = _undecodable_fixture()
    baseline = system.engine.skyline(predicate).tids
    _garble_blob(system, cell, untested_sid)
    report = system.verify_consistency()
    assert [p for p in report.problems if "unreadable" in p and "CodecError" in p]
    assert len(report.problems) == 1

    findings = Scrubber(system).run_pass()
    assert [(f.kind, f.subject, f.repaired) for f in findings] == [
        ("invariant", cell.cell_id, True)
    ]
    assert system.verify_consistency().ok
    assert system.engine.skyline(predicate).tids == baseline


@pytest.mark.parametrize("flip", ["spurious", "lost"])
def test_a_decodable_but_wrong_node_is_found_and_healed_by_the_audits(flip):
    """The stored-signature rule is the one maintenance check: one flipped
    bit in one node, stored through ``put_signature`` so every page
    verifies and every blob decodes, is reported for exactly that cell, and
    one scrubber pass re-derives it."""
    from repro.serve.scrub import Scrubber

    config = SyntheticConfig(
        n_tuples=300, n_boolean=2, cardinality=3, n_preference=2, seed=5
    )
    system = build_system(generate_relation(config), fanout=6, rtree_method="insert")
    pcube = system.pcube
    cell = min(pcube.cuboids[0].group(system.relation), key=lambda c: c.cell_id)
    signature = pcube.signature_of(cell)
    # The deepest node with a set bit and a clear one.
    sid = max(
        sid
        for sid, mask in signature.masks().items()
        if 1 < mask.bit_count() < pcube.fanout
    )
    bits = signature.node(sid)
    position = next(
        p for p in range(pcube.fanout) if (bits >> p & 1) == (flip == "lost")
    )
    signature.set_node(sid, bits ^ 1 << position)
    with system.epochs.write():  # a faulty write that published
        pcube.store.put_signature(cell, signature)
        system.epochs.publish()
    assert pcube.signature_of(cell) == signature

    report = system.verify_consistency()
    assert report.problems == [
        f"cell {cell}: stored signature diverges from the R-tree partition"
    ]
    findings = Scrubber(system).run_pass()
    assert [(f.kind, f.subject, f.repaired) for f in findings] == [
        ("invariant", cell.cell_id, True)
    ]
    assert system.verify_consistency().ok
