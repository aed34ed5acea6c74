"""Serving resilience: breakers, retry budgets, shedding, degradation tiers."""

from __future__ import annotations

import random
import threading
import time

import pytest

from repro.baselines.naive import naive_skyline
from repro.core.breakers import CLOSED, HALF_OPEN, OPEN, BreakerBoard
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


def _trip_breaker(executor, submit):
    """Run ``submit()`` until the default board opens: one failing load of
    the same partial per query, ``threshold`` (3) queries in a row.
    Returns their results."""
    failing = []
    for _ in range(executor.breakers.threshold):
        assert executor.breakers.open_count() == 0
        failing.append(submit().result(timeout=30.0))
    assert executor.breakers.open_count() == 1
    return failing


def _blocker(started: threading.Event, gate: threading.Event):
    def run(session):
        started.set()
        assert gate.wait(timeout=30.0)
        return session.skyline()

    return run


# ---------------------------------------------------------------------- #
# circuit-breaker state machine
# ---------------------------------------------------------------------- #


def test_breaker_opens_after_threshold_consecutive_failures():
    board = BreakerBoard(threshold=2)
    assert board.allow("c", 0, epoch=1)
    board.record_failure("c", 0, epoch=1)
    assert board.state_of("c", 0) == CLOSED  # one failure: still closed
    board.record_failure("c", 0, epoch=1)
    assert board.state_of("c", 0) == OPEN
    assert not board.allow("c", 0, epoch=1)  # same epoch: short-circuit
    assert board.snapshot()["short_circuits"] == 1
    assert board.open_count() == 1


def test_breaker_success_resets_the_failure_streak():
    board = BreakerBoard(threshold=2)
    board.record_failure("c", 0, epoch=1)
    board.record_success("c", 0)
    board.record_failure("c", 0, epoch=1)
    assert board.state_of("c", 0) == CLOSED  # streak broken, not cumulative


def test_breaker_half_open_probe_heals_on_success():
    board = BreakerBoard(threshold=1)
    board.record_failure("c", 3, epoch=1)
    assert board.state_of("c", 3) == OPEN
    # A newer epoch was published: exactly one probe is let through,
    # concurrent queries of the same epoch keep short-circuiting.
    assert board.allow("c", 3, epoch=2)
    assert board.state_of("c", 3) == HALF_OPEN
    assert not board.allow("c", 3, epoch=2)
    board.record_success("c", 3)
    assert board.state_of("c", 3) == CLOSED
    assert board.allow("c", 3, epoch=2)
    snapshot = board.snapshot()
    assert snapshot["half_open_probes"] == 1
    assert snapshot["healed"] == 1


def test_breaker_half_open_probe_failure_reopens_for_that_epoch():
    board = BreakerBoard(threshold=1)
    board.record_failure("c", 0, epoch=1)
    assert board.allow("c", 0, epoch=2)  # the probe
    board.record_failure("c", 0, epoch=2)  # probe failed
    assert board.state_of("c", 0) == OPEN
    assert not board.allow("c", 0, epoch=2)  # epoch 2 is now stamped
    assert board.allow("c", 0, epoch=3)  # only a newer epoch re-probes


def test_breaker_board_rejects_nonpositive_threshold():
    with pytest.raises(ValueError):
        BreakerBoard(threshold=0)


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
# breakers wired into serving
# ---------------------------------------------------------------------- #


def test_open_breaker_short_circuits_without_reprobing(faulty, rng):
    disk, system = faulty
    predicate = sample_predicate(system.relation, 1, rng)
    serial = system.engine.skyline(predicate)
    disk.plan = FaultPlan(
        [FaultRule(kind="corrupt", tag="pcube:sig", count=1)]
    )
    with QueryExecutor(system, threads=1) as executor:
        for failing in _trip_breaker(
            executor, lambda: executor.skyline(predicate)
        ):
            assert failing.tids == serial.tids
            assert failing.stats.failed_loads >= 1
            assert failing.stats.tier == "conservative"
        probes_before = system.pcube.store.fault_stats.degraded_loads

        second = executor.skyline(predicate).result(timeout=30.0)
        assert second.tids == serial.tids
        assert second.stats.breaker_skips >= 1
        assert second.stats.failed_loads == 0  # zero I/O on the bad pages
        assert second.stats.tier == "conservative"
        assert (
            system.pcube.store.fault_stats.degraded_loads == probes_before
        )
        board = executor.breakers.snapshot()
    assert board["short_circuits"] >= 1
    stats = executor.stats.snapshot()
    assert stats["breaker_skips"] >= 1
    assert stats["tiers"]["conservative"] == 4


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
    stats, and the breaker it opens spares the next such query the page."""
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
        failing = _trip_breaker(executor, lambda: submit(executor))
        for tripping in failing:
            assert tripping.stats.tier == "conservative"
            assert tripping.stats.degraded
            assert tripping.stats.failed_loads == 1
            assert tripping.stats.degraded_checks >= 1

        (_, _, bad_page), = disk.injected
        probe = FaultRule(
            kind="slow", page_id=bad_page, probability=0.0, count=None
        )
        disk.plan = FaultPlan([probe])
        second = submit(executor).result(timeout=30.0)
        assert second.stats.breaker_skips >= 1
        assert second.stats.failed_loads == 0
        assert second.stats.tier == "conservative"
        assert probe.seen == 0  # zero reads of the bad page
        stats = executor.stats.snapshot()
    for result in (*failing, second):
        tids = result.tids if kind == "lower_hull" else sorted(result.tids)
        assert tids == expected
    assert stats["degraded_queries"] == 4
    assert stats["failed_loads"] == 3
    assert stats["tiers"] == {"conservative": 4}


def test_epoch_publish_half_opens_and_heals_snapshot_breakers(faulty, rng):
    """An open breaker heals through the epoch path, the only one: the
    first query of a newer published epoch probes the rebuilt pages and
    closes the breaker."""
    disk, system = faulty
    predicate = sample_predicate(system.relation, 1, rng)
    disk.plan = FaultPlan(
        [FaultRule(kind="corrupt", tag="pcube:sig", count=1)]
    )
    with QueryExecutor(system, threads=1) as executor:
        _trip_breaker(executor, lambda: executor.skyline(predicate))

        # Repair the pages outside the single-writer protocol: no epoch
        # is published, so the breaker stays open.
        disk.plan = FaultPlan()
        assert system.pcube.rebuild_quarantined()
        assert executor.breakers.open_count() == 1

        # Same epoch: still short-circuiting.
        stale = executor.skyline(predicate).result(timeout=30.0)
        assert stale.stats.breaker_skips >= 1

        # Publish a new epoch; its first query half-opens, probes, heals.
        system.insert(
            tuple(0 for _ in range(system.relation.schema.n_boolean)),
            tuple(0.5 for _ in range(system.relation.schema.n_preference)),
        )
        healed = executor.skyline(predicate).result(timeout=30.0)
        assert healed.stats.tier == "signature"
        assert not healed.stats.degraded
        assert executor.breakers.open_count() == 0
        board = executor.breakers.snapshot()
    assert board["half_open_probes"] >= 1
    assert board["healed"] >= 1
    assert healed.tids == system.engine.skyline(predicate).tids


# ---------------------------------------------------------------------- #
# fault-free serving
# ---------------------------------------------------------------------- #


@pytest.mark.parametrize("routing", [False, True])
@pytest.mark.parametrize("threads", [1, 4])
def test_fault_free_serving_leaves_the_resilience_machinery_idle(
    system, threads, routing
):
    """With nothing failing, breakers, retries and shedding are on but
    idle: no degraded read, no breaker skip, no shed, no breaker opened,
    and every answer equals the serial engine's."""
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
    assert serving["breaker_skips"] == 0
    assert serving["shed"] == 0
    assert health["breakers"]["threshold"] == 3
    assert health["breakers"]["opened"] == 0


# ---------------------------------------------------------------------- #
# the operator view
# ---------------------------------------------------------------------- #


def test_health_report_bundles_fault_breaker_and_quarantine_state(faulty, rng):
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
    assert health["quarantined_cells"]  # the corrupt cell awaits rebuild
    assert health["breakers"]["threshold"] == 3
