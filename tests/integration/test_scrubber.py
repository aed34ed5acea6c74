"""Acceptance: the scrubber finds 100% of seeded corruption and heals it
while a concurrent reader keeps querying; the supervisor reports hangs
and stalls.

Corruption is injected by tampering page payloads directly (below the
fault plan — the scrubber reads at peek level, so injected *read* faults
would never reach it), which is exactly what latent media damage looks
like to a checksum sweep.
"""

import random
import threading
import time
from dataclasses import replace

import pytest

from repro.data.synthetic import SyntheticConfig, generate_relation
from repro.query.predicates import BooleanPredicate
from repro.serve.executor import QueryExecutor
from repro.serve.scrub import Scrubber, Supervisor
from repro.storage.disk import SimulatedDisk
from repro.storage.faults import FaultPlan, FaultRule, FaultyDisk
from repro.system import build_system

pytestmark = [pytest.mark.durability, pytest.mark.concurrent]

CONFIG = dict(
    n_tuples=113, n_boolean=2, cardinality=3, n_preference=2, seed=13
)


def make_system():
    relation = generate_relation(
        SyntheticConfig(**CONFIG), disk=SimulatedDisk()
    )
    return build_system(relation, fanout=5)


def corrupt_signature_pages(system, n, seed=7):
    """Garble ``n`` distinct signature pages — each page gets a damaged copy
    of its partial, not re-sealed; returns the set of owning cell ids."""
    rng = random.Random(seed)
    entries = system.pcube.store.directory_entries()
    picks = rng.sample(range(len(entries)), min(n, len(entries)))
    owners = set()
    for index in picks:
        (cell_id, _sid), page_id = entries[index]
        page = system.disk.peek(page_id)
        key = next(iter(page.payload.blobs))
        damaged = {**page.payload.blobs, key: b"\xff\x00\xff"}
        page.payload = replace(page.payload, blobs=damaged)
        owners.add(cell_id)
    return owners


def test_one_pass_detects_every_seeded_fault():
    """100% detection: every tampered page surfaces as a checksum finding
    in a single pass, and healing leaves a clean audit."""
    system = make_system()
    baseline = system.engine.skyline()
    owners = corrupt_signature_pages(system, n=5)

    scrubber = Scrubber(system)
    findings = scrubber.run_pass()
    checksum_findings = [f for f in findings if f.kind == "checksum"]
    assert len(checksum_findings) == 5
    assert scrubber.stats.checksum_faults == 5
    assert all(f.repaired for f in checksum_findings)
    assert scrubber.stats.cells_repaired == len(owners)

    assert system.verify_consistency().ok
    assert system.engine.skyline().tids == baseline.tids
    assert system.pcube.store.quarantined_cells() == []
    # A second pass over the healed disk is quiet.
    assert scrubber.run_pass() == []


def test_a_pass_heals_a_cell_a_query_quarantined():
    """A transient fault that outlasted the retries quarantined a cell and
    left no damage on disk: the pass finds nothing, yet it re-stores every
    quarantined cell, so the audit comes out clean."""
    disk = FaultyDisk(SimulatedDisk())
    system = build_system(
        generate_relation(SyntheticConfig(**CONFIG), disk=disk), fanout=5
    )
    expected = system.engine.skyline(BooleanPredicate({"A1": 1})).tids
    disk.plan = FaultPlan(
        [FaultRule(kind="transient", tag="pcube:sig", count=4)]
    )
    degraded = system.engine.skyline(BooleanPredicate({"A1": 1}))
    disk.plan = FaultPlan()
    assert degraded.stats.failed_loads == 1
    (cell,) = system.pcube.store.quarantined_cells()
    assert not system.verify_consistency().ok

    scrubber = Scrubber(system)
    assert scrubber.run_pass() == []
    assert scrubber.stats.cells_repaired == 1
    assert system.pcube.store.quarantined_cells() == []
    assert system.verify_consistency().ok
    healed = system.engine.skyline(BooleanPredicate({"A1": 1}))
    assert healed.stats.tier == "signature"
    assert healed.tids == expected


def test_heal_under_a_concurrent_reader():
    """The rebuild publishes a fresh epoch: a reader querying throughout
    never sees a wrong answer, before, during or after the heal."""
    system = make_system()
    expected = system.engine.skyline().tids
    corrupt_signature_pages(system, n=4)

    stop = threading.Event()
    mismatches: list = []

    def reader():
        with QueryExecutor(system, threads=2) as executor:
            while not stop.is_set():
                tids = executor.skyline().result(timeout=30.0).tids
                if tids != expected:
                    mismatches.append(tids)

    thread = threading.Thread(target=reader)
    thread.start()
    try:
        time.sleep(0.02)  # let the reader overlap the damaged window
        findings = Scrubber(system).run_pass()
        assert sum(1 for f in findings if f.kind == "checksum") == 4
        time.sleep(0.02)  # and the healed one
    finally:
        stop.set()
        thread.join()
    assert mismatches == []
    assert system.verify_consistency().ok
    assert system.engine.skyline().tids == expected


def test_background_scrubbing_via_the_executor():
    system = make_system()
    with QueryExecutor(system, threads=2) as executor:
        supervisor = executor.enable_scrubbing(
            pages_per_tick=64, cells_per_tick=8, interval=0.001
        )
        assert executor.enable_scrubbing() is supervisor  # idempotent
        deadline = time.monotonic() + 10.0
        while (
            executor.scrubber.stats.passes == 0
            and time.monotonic() < deadline
        ):
            time.sleep(0.005)
        assert executor.scrubber.stats.passes >= 1
        health = executor.health()
        assert health["scrubber"]["passes"] >= 1
        assert health["supervisor"]["ok"] is True
    assert executor.scrubber.running is False  # shutdown stops it


def test_supervisor_reports_hung_queries_and_stalled_maintenance():
    system = make_system()
    supervisor = Supervisor(system, hung_after=0.0, stalled_after=0.0)
    report = supervisor.report()
    assert report["ok"] is True
    assert report["maintenance"]["wal_pending"] is False

    # A WAL operation left pending looks stalled once past the horizon.
    system.wal.begin("insert", base=len(system.relation), rows=[])
    time.sleep(0.01)
    report = supervisor.report()
    assert report["maintenance"]["wal_pending"] is True
    assert report["maintenance"]["stalled"] is True
    assert report["ok"] is False


def test_supervisor_sees_inflight_queries():
    system = make_system()
    system.disk.read_latency = 0.002  # slow enough to catch in flight
    with QueryExecutor(system, threads=1, pool=None) as executor:
        supervisor = Supervisor(
            system, executor=executor, hung_after=0.0, stalled_after=5.0
        )
        ticket = executor.skyline()
        hung_seen = []
        deadline = time.monotonic() + 10.0
        while not hung_seen and time.monotonic() < deadline:
            hung_seen = supervisor.report()["hung_queries"]
        ticket.result(timeout=30.0)
        assert hung_seen and hung_seen[0]["kind"] == "skyline"
    assert supervisor.report()["hung_queries"] == []
