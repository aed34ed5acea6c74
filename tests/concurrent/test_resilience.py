"""Serving resilience: quarantine, retry budgets, shedding, degraded tiers."""

from __future__ import annotations

import random
import threading
import time

import pytest

from repro.baselines.naive import naive_skyline
from repro.data.synthetic import generate_relation
from repro.data.workload import (
    read_mix,
    sample_linear_function,
    sample_predicate,
)
from repro.query.dynamic import naive_dynamic_skyline
from repro.query.session import QuerySession
from repro.serve.executor import (
    AdmissionFull,
    QueryExecutor,
    QueryShed,
    QueryTimeout,
)
from repro.storage.disk import SimulatedDisk
from repro.storage.errors import CorruptPageError, TransientIOError
from repro.storage.faults import FaultPlan, FaultRule, FaultyDisk, RetryPolicy
from repro.system import build_system
from tests.reference import matches_dnf, naive_lower_hull

pytestmark = pytest.mark.concurrent


@pytest.fixture
def system(fresh_system):
    return fresh_system(n_tuples=400)


@pytest.fixture
def faulty(small_config):
    """A system on a fault-injecting disk, armed *after* the build."""
    disk = FaultyDisk(SimulatedDisk())
    return disk, build_system(generate_relation(small_config, disk=disk), fanout=8)


def _quarantine_by_one_read(executor, system, submit):
    """Run ``submit()`` once: its failing load quarantines the cell.
    Returns the result."""
    store = system.pcube.store
    assert not store.quarantined_cells()
    failing = submit().result(timeout=30.0)
    assert len(store.quarantined_cells()) == 1
    return failing


def _blocker(started: threading.Event, gate: threading.Event):
    def run(session):
        started.set()
        assert gate.wait(timeout=30.0)
        return session.skyline()

    return run


# ---------------------------------------------------------------------- #
# retry budgets
# ---------------------------------------------------------------------- #


def test_retry_policy_translates_wall_deadline_to_clock_budget():
    def flaky(failures):
        left = [failures]

        def read():
            if left[0]:
                left[0] -= 1
                raise TransientIOError("injected")
            return "ok"

        return read

    # No deadline, or one comfortably ahead: the retry is taken and its
    # backoff charged on top of whatever the shared clock already holds.
    for deadline_at in (None, time.perf_counter() + 5.0):
        policy = RetryPolicy(base_delay=0.01)
        policy.clock.sleep(2.0)
        assert policy.call(flaky(1), deadline_at=deadline_at) == "ok"
        assert policy.clock.now == pytest.approx(2.01)
        assert policy.exhausted_budgets == 0
    # Less time left than the backoff needs — or a lapsed deadline, which
    # leaves zero budget, never a negative one: the fault propagates at
    # once and nothing is charged.
    for remaining in (0.001, -1.0):
        policy = RetryPolicy(base_delay=0.01)
        policy.clock.sleep(2.0)
        with pytest.raises(TransientIOError):
            policy.call(
                flaky(1), deadline_at=time.perf_counter() + remaining
            )
        assert policy.clock.now == 2.0
        assert (policy.retries, policy.exhausted_budgets) == (0, 1)


def test_a_session_deadline_reaches_the_one_retry_site(faulty):
    """``QuerySession.for_snapshot(deadline_at=)`` → reader → ``load_partial`` →
    ``RetryPolicy.call``: with no time left the first transient fault on a
    partial is not retried — the load degrades at once, the answer does
    not change — while a session without a deadline retries through it."""
    disk, system = faulty
    predicate = sample_predicate(system.relation, 1, random.Random(3))
    expected = system.engine.skyline(predicate).tids
    policy = system.pcube.store.retry_policy
    sig = f"{system.pcube.tag}:sig"

    disk.plan = FaultPlan([FaultRule(kind="transient", tag=sig, count=1)])
    relaxed = QuerySession.for_snapshot(system.epochs.current)
    result = relaxed.skyline(predicate)
    assert (policy.retries, policy.exhausted_budgets) == (1, 0)
    assert result.tids == expected and not result.stats.degraded

    disk.plan = FaultPlan([FaultRule(kind="transient", tag=sig, count=1)])
    lapsed = QuerySession.for_snapshot(
        system.epochs.current, deadline_at=time.perf_counter() - 1.0
    )
    result = lapsed.skyline(predicate)
    assert (policy.retries, policy.exhausted_budgets) == (1, 1)
    assert result.tids == expected
    assert result.stats.degraded and result.stats.failed_loads == 1


# ---------------------------------------------------------------------- #
# load shedding and admission payloads
# ---------------------------------------------------------------------- #


def test_admission_full_carries_backoff_payload(system):
    started, gate = threading.Event(), threading.Event()
    with QueryExecutor(system, threads=1, queue_depth=1) as executor:
        blocked = executor.submit("block", _blocker(started, gate))
        assert started.wait(timeout=30.0)
        executor.skyline()  # fills the depth-1 queue (no deadline: survives)
        with pytest.raises(AdmissionFull) as excinfo:
            executor.skyline(deadline=5.0)
        gate.set()
        blocked.result(timeout=30.0)
    assert excinfo.value.queue_depth == 1
    assert excinfo.value.retry_after > 0.0
    assert 0.0 < excinfo.value.deadline_remaining <= 5.0
    assert "retry after" in str(excinfo.value)


def test_full_queue_sheds_expired_tickets_instead_of_rejecting(system):
    started, gate = threading.Event(), threading.Event()
    with QueryExecutor(system, threads=1, queue_depth=1) as executor:
        blocked = executor.submit("block", _blocker(started, gate))
        assert started.wait(timeout=30.0)
        doomed = executor.skyline(deadline=0.01)
        time.sleep(0.05)  # the queued ticket's deadline lapses
        admitted = executor.skyline()  # eviction makes room: no AdmissionFull
        gate.set()
        with pytest.raises(QueryShed) as excinfo:
            doomed.result(timeout=30.0)
        assert admitted.result(timeout=30.0).tids
        blocked.result(timeout=30.0)
    shed = excinfo.value
    assert isinstance(shed, QueryTimeout)  # a shed IS a deadline failure
    assert shed.kind == "skyline"
    assert shed.deadline_remaining < 0.0
    assert shed.retry_after >= 0.0
    assert shed.queue_depth >= 0
    stats = executor.stats.snapshot()
    assert stats["shed"] == 1
    assert stats["timed_out"] == 1  # sheds count as timeouts too
    assert stats["rejected"] == 0
    assert stats["completed"] == 2


def test_worker_sheds_doomed_ticket_at_pickup(system):
    started, gate = threading.Event(), threading.Event()
    with QueryExecutor(system, threads=1, queue_depth=4) as executor:
        blocked = executor.submit("block", _blocker(started, gate))
        assert started.wait(timeout=30.0)
        doomed = executor.skyline(deadline=0.01)
        time.sleep(0.05)
        gate.set()
        with pytest.raises(QueryShed):
            doomed.result(timeout=30.0)
        blocked.result(timeout=30.0)
    assert executor.stats.snapshot()["shed"] == 1


# ---------------------------------------------------------------------- #
# the ticket must never hang
# ---------------------------------------------------------------------- #


def test_stats_aggregation_bug_fails_the_ticket_instead_of_hanging(system):
    """An exception in the worker *outside* the query call (here: stats
    bookkeeping) must resolve the ticket with that error — a waiter
    blocked forever is the one unacceptable outcome."""
    with QueryExecutor(system, threads=1) as executor:

        def boom(*args, **kwargs):
            raise RuntimeError("stats bug")

        executor.stats.note_finished = boom
        ticket = executor.skyline()
        with pytest.raises(RuntimeError, match="stats bug"):
            ticket.result(timeout=30.0)
        assert ticket.done()


# ---------------------------------------------------------------------- #
# the degradation chain end to end
# ---------------------------------------------------------------------- #


def test_boolean_first_fallback_is_byte_identical_to_serial(faulty, rng):
    """Corrupting the R-tree root forces tier 3; answers must not change."""
    disk, system = faulty
    predicate = sample_predicate(system.relation, 1, rng)
    fn = sample_linear_function(system.relation.schema.n_preference, rng)
    serial_sky = system.engine.skyline(predicate)
    serial_topk = system.engine.topk(fn, 10, predicate)

    disk.plan = FaultPlan([FaultRule(kind="corrupt", tag="rtree", count=1)])
    with QueryExecutor(system, threads=2) as executor:
        sky = executor.skyline(predicate).result(timeout=30.0)
        topk = executor.topk(fn, 10, predicate).result(timeout=30.0)

    assert sky.tids == serial_sky.tids
    assert topk.tids == serial_topk.tids
    assert topk.scores == serial_topk.scores
    for result in (sky, topk):
        assert result.stats.tier == "boolean-first"
        assert result.stats.degraded
        assert result.stats.fallbacks == 1
        assert result.stats.route == "boolean-first"
        assert not result.resumable
    stats = executor.stats.snapshot()
    assert stats["tiers"] == {"boolean-first": 2}
    assert stats["degraded_queries"] == 2
    # The route is counted, cache off included; nothing was looked up.
    routing = executor.router.stats.snapshot()
    assert routing["routed"] == routing["fell_back"] == 2
    assert routing["served_by"] == {"boolean-first": 2}
    assert routing["fallback_edges"] == {"signature->boolean-first": 2}
    assert routing["cache_misses"] == routing["cache_bypassed"] == 0


def test_degraded_fallback_chains_the_original_storage_fault(faulty, rng):
    """When even the boolean-first scan faults, the raised error must carry
    the fault that forced the fallback as its ``__cause__``."""
    disk, system = faulty
    predicate = sample_predicate(system.relation, 1, rng)
    disk.plan = FaultPlan(
        [
            FaultRule(kind="corrupt", tag="rtree", count=1),
            FaultRule(kind="transient", tag="heap", count=50),
        ]
    )
    with QueryExecutor(system, threads=1) as executor:
        with pytest.raises(TransientIOError) as excinfo:
            executor.skyline(predicate).result(timeout=30.0)
    assert isinstance(excinfo.value.__cause__, CorruptPageError)


def test_paper_mode_propagates_search_structure_faults(faulty, rng):
    """The serial engine defaults to tiers 1-2 only: an R-tree fault is a
    typed error, never a silent plan change."""
    disk, system = faulty
    predicate = sample_predicate(system.relation, 1, rng)
    disk.plan = FaultPlan([FaultRule(kind="corrupt", tag="rtree", count=1)])
    with pytest.raises(CorruptPageError):
        system.engine.skyline(predicate)


def test_boolean_first_results_refuse_incremental_resume(faulty, rng):
    disk, system = faulty
    predicate = sample_predicate(system.relation, 1, rng)
    disk.plan = FaultPlan([FaultRule(kind="corrupt", tag="rtree", count=1)])
    with QueryExecutor(system, threads=1) as executor:
        degraded = executor.skyline(predicate).result(timeout=30.0)
    assert degraded.stats.tier == "boolean-first"
    dim = next(iter(system.relation.schema.boolean_dims))
    with pytest.raises(ValueError, match="boolean-first"):
        system.engine.drill_down(
            degraded, dim, system.relation.bool_value(0, dim)
        )


# ---------------------------------------------------------------------- #
# quarantine in serving
# ---------------------------------------------------------------------- #


def test_a_quarantined_cell_is_read_without_its_pages(faulty, rng):
    disk, system = faulty
    predicate = sample_predicate(system.relation, 1, rng)
    serial = system.engine.skyline(predicate)
    disk.plan = FaultPlan(
        [FaultRule(kind="corrupt", tag="pcube:sig", count=1)]
    )
    with QueryExecutor(system, threads=1) as executor:
        failing = _quarantine_by_one_read(
            executor, system, lambda: executor.skyline(predicate)
        )
        assert failing.tids == serial.tids
        assert failing.stats.failed_loads == 1
        assert failing.stats.tier == "conservative"
        probes_before = system.pcube.store.fault_stats.degraded_loads

        second = executor.skyline(predicate).result(timeout=30.0)
        assert second.tids == serial.tids
        assert second.stats.quarantine_skips >= 1
        assert second.stats.failed_loads == 0  # zero I/O on the bad pages
        assert second.stats.sig_loads == 0  # nor on the cell's good ones
        assert second.stats.tier == "conservative"
        assert (
            system.pcube.store.fault_stats.degraded_loads == probes_before
        )
    # The engine reads the same way from the first failure on.
    engine = system.engine.skyline(predicate)
    assert engine.tids == serial.tids
    assert engine.stats.quarantine_skips >= 1
    assert engine.stats.failed_loads == 0
    stats = executor.stats.snapshot()
    assert stats["quarantine_skips"] >= 1
    assert stats["tiers"]["conservative"] == 2


QUERY_POINT = (0.4, 0.6)


def _naive_answer(relation, kind, predicate, disjuncts):
    """Ground truth for the kinds that have no routed engine."""
    points = [
        (tid, relation.pref_point(tid))
        for tid in relation.tids()
        if (
            matches_dnf(relation, disjuncts, tid)
            if kind == "dnf"
            else predicate.matches(relation, tid)
        )
    ]
    if kind == "dynamic_skyline":
        return sorted(naive_dynamic_skyline(points, QUERY_POINT))
    if kind == "lower_hull":
        return naive_lower_hull(points)
    return sorted(naive_skyline(points))


@pytest.mark.parametrize("kind", ["dynamic_skyline", "lower_hull", "dnf"])
def test_every_signature_kind_reports_a_degraded_reader(faulty, rng, kind):
    """One runner stamps every kind: a corrupt signature page under a
    dynamic skyline, a hull or a DNF skyline is a ``conservative`` /
    ``degraded`` / ``failed_loads == 1`` read counted by the serving
    stats, and the quarantine it leaves spares every later query the
    page."""
    disk, system = faulty
    predicate = sample_predicate(system.relation, 1, rng)
    disjuncts = [predicate, sample_predicate(system.relation, 2, rng)]

    def submit(executor):
        if kind == "dynamic_skyline":
            return executor.dynamic_skyline(QUERY_POINT, predicate)
        if kind == "lower_hull":
            return executor.lower_hull(predicate)
        return executor.submit(
            "skyline", lambda session: session.skyline(disjuncts)
        )

    expected = _naive_answer(system.relation, kind, predicate, disjuncts)
    disk.plan = FaultPlan(
        [FaultRule(kind="corrupt", tag="pcube:sig", count=1)]
    )
    with QueryExecutor(system, threads=1) as executor:
        failing = _quarantine_by_one_read(
            executor, system, lambda: submit(executor)
        )
        assert failing.stats.tier == "conservative"
        assert failing.stats.degraded
        assert failing.stats.failed_loads == 1
        assert failing.stats.degraded_checks >= 1

        (_, _, bad_page), = disk.injected
        probe = FaultRule(
            kind="slow", page_id=bad_page, probability=0.0, count=None
        )
        disk.plan = FaultPlan([probe])
        later = [submit(executor).result(timeout=30.0) for _ in range(3)]
        for result in later:
            assert result.stats.quarantine_skips >= 1
            assert result.stats.failed_loads == 0
            assert result.stats.tier == "conservative"
        assert probe.seen == 0  # zero reads of the bad page from the 2nd on
        stats = executor.stats.snapshot()
    for result in (failing, *later):
        tids = result.tids if kind == "lower_hull" else sorted(result.tids)
        assert tids == expected
    assert stats["degraded_queries"] == 4
    assert stats["failed_loads"] == 1
    assert stats["tiers"] == {"conservative": 4}


def test_a_re_store_lifts_the_quarantine_through_a_publish(faulty, rng):
    """The one way back: a re-store that publishes an epoch.  A bare
    ``rebuild_quarantined`` lifts the mark but publishes nothing, so the
    current epoch still reads the superseded pages — degraded, and the
    fault on them quarantines nothing; the repaired cell is read by
    signature from the next published epoch on."""
    disk, system = faulty
    predicate = sample_predicate(system.relation, 1, rng)
    disk.plan = FaultPlan(
        [FaultRule(kind="corrupt", tag="pcube:sig", count=1)]
    )
    store = system.pcube.store
    with QueryExecutor(system, threads=1) as executor:
        _quarantine_by_one_read(
            executor, system, lambda: executor.skyline(predicate)
        )
        skipped = executor.skyline(predicate).result(timeout=30.0)
        assert skipped.stats.quarantine_skips >= 1

        disk.plan = FaultPlan()
        assert system.pcube.rebuild_quarantined()
        stale = executor.skyline(predicate).result(timeout=30.0)
        assert stale.stats.failed_loads == 1  # the superseded page
        assert stale.stats.tier == "conservative"
        assert not store.quarantined_cells()

        system.insert(
            tuple(0 for _ in range(system.relation.schema.n_boolean)),
            tuple(0.5 for _ in range(system.relation.schema.n_preference)),
        )
        healed = executor.skyline(predicate).result(timeout=30.0)
        assert healed.stats.tier == "signature"
        assert not healed.stats.degraded
        assert healed.stats.quarantine_skips == 0
    assert healed.tids == system.engine.skyline(predicate).tids
    assert not system.verify_consistency().problems


def test_a_fault_on_superseded_pages_quarantines_nothing(faulty, rng):
    """A snapshot pinned before the repair still reads the old corrupt
    page.  Its reader degrades, but the repaired cell stays trusted: the
    current epoch reads it by signature and the audit is clean."""
    disk, system = faulty
    predicate = sample_predicate(system.relation, 1, rng)
    disk.plan = FaultPlan(
        [FaultRule(kind="corrupt", tag="pcube:sig", count=1)]
    )
    expected = system.engine.skyline(predicate)
    assert expected.stats.failed_loads == 1
    pinned = system.pin_snapshot()
    assert system.repair_quarantined() == [predicate.cell()]

    old = QuerySession.for_snapshot(pinned).skyline(predicate)
    assert old.stats.failed_loads == 1  # the superseded page, read again
    assert old.tids == expected.tids
    assert system.pcube.store.quarantined_cells() == []
    current = system.engine.skyline(predicate)
    assert current.stats.tier == "signature"
    assert current.stats.degraded_checks == 0
    assert current.tids == expected.tids
    assert system.verify_consistency().ok
    system.unpin_snapshot(pinned)


def test_a_repair_after_transient_faults_serves_by_signature(faulty, rng):
    """Three reads fail a partial through every retry; a read of the next
    epoch finds the cell still quarantined; then ``repair_quarantined``
    and three inserts.  Every read afterwards answers by signature, as
    ``system.engine`` does — one mark, healed by one re-store."""
    disk, system = faulty
    predicate = sample_predicate(system.relation, 1, rng)
    schema = system.relation.schema

    def insert():
        system.insert(
            tuple(0 for _ in range(schema.n_boolean)),
            tuple(0.5 for _ in range(schema.n_preference)),
        )

    with QueryExecutor(system, threads=1) as executor:
        for _ in range(3):
            # Four transient faults outlast the four attempts of one load.
            disk.plan = FaultPlan(
                [FaultRule(kind="transient", tag="pcube:sig", count=4)]
            )
            faulted = executor.skyline(predicate).result(timeout=30.0)
            assert faulted.stats.tier == "conservative"
        disk.plan = FaultPlan()
        insert()
        assert (
            executor.skyline(predicate).result(timeout=30.0).stats.tier
            == "conservative"
        )
        assert [cell.cell_id for cell in system.repair_quarantined()] == [
            predicate.cell().cell_id
        ]
        for _ in range(3):
            insert()
        after = [
            executor.skyline(predicate).result(timeout=30.0)
            for _ in range(3)
        ]
    engine = system.engine.skyline(predicate)
    assert engine.stats.tier == "signature"
    for result in after:
        assert result.stats.tier == "signature"
        assert result.stats.quarantine_skips == 0
        assert result.tids == engine.tids


# ---------------------------------------------------------------------- #
# fault-free serving
# ---------------------------------------------------------------------- #


@pytest.mark.parametrize("routing", [False, True])
@pytest.mark.parametrize("threads", [1, 4])
def test_fault_free_serving_leaves_the_resilience_machinery_idle(
    system, threads, routing
):
    """With nothing failing, quarantine, retries and shedding are on but
    idle: no degraded read, no quarantine skip, no shed, nothing
    quarantined, and every answer equals the serial engine's."""
    workload = read_mix(system.relation, random.Random(7), 12)
    expected = [getattr(system.engine, kind)(**kw) for kind, kw in workload]
    with QueryExecutor(system, threads=threads, routing=routing) as executor:
        tickets = [getattr(executor, kind)(**kw) for kind, kw in workload]
        results = [ticket.result(timeout=30.0) for ticket in tickets]
        health = executor.health()
    for want, got in zip(expected, results):
        if routing:  # cached answers are canonicalised: compare the sets
            assert sorted(got.tids) == sorted(want.tids)
        else:
            assert got.tids == want.tids
    serving = health["serving"]
    assert serving["completed"] == len(workload)
    assert serving["degraded_queries"] == 0
    assert serving["quarantine_skips"] == 0
    assert serving["shed"] == 0
    assert health["quarantined_cells"] == []
    assert health["faults"]["quarantines"] == 0


# ---------------------------------------------------------------------- #
# the operator view
# ---------------------------------------------------------------------- #


def test_health_report_bundles_fault_and_quarantine_state(faulty, rng):
    disk, system = faulty
    predicate = sample_predicate(system.relation, 1, rng)
    disk.plan = FaultPlan(
        [FaultRule(kind="corrupt", tag="pcube:sig", count=1)]
    )
    with QueryExecutor(system, threads=1) as executor:
        executor.skyline(predicate).result(timeout=30.0)
        health = executor.health()
    assert health["workers"] == 1
    assert health["epoch"] == system.epochs.current_epoch
    assert health["serving"]["completed"] == 1
    assert health["faults"]["quarantines"] == 1
    assert health["faults"]["degraded_loads"] >= 1
    assert health["quarantined_cells"] == [predicate.cell().cell_id]
    assert "breakers" not in health  # the quarantine is the one mark
