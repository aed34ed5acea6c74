"""QueryExecutor behaviour: admission, deadlines, cancellation, stats."""

from __future__ import annotations

import threading
import time

import pytest

from repro.obs import Tracer
from repro.query.ranking import SumFunction
from repro.serve.executor import (
    AdmissionFull,
    QueryCancelled,
    QueryExecutor,
    QueryTimeout,
)

pytestmark = pytest.mark.concurrent


@pytest.fixture
def system(fresh_system):
    return fresh_system(n_tuples=400)


def _blocker(started: threading.Event, gate: threading.Event):
    """A submit() callable that parks its worker until the gate opens."""

    def run(session):
        started.set()
        assert gate.wait(timeout=30.0)
        return session.skyline()

    return run


def test_result_matches_serial_engine(system):
    serial = system.engine.skyline()
    with QueryExecutor(system, threads=2) as executor:
        result = executor.skyline().result(timeout=30.0)
    assert result.tids == serial.tids
    assert result.stats.epoch == system.epochs.current_epoch
    assert result.stats.queue_wait_seconds >= 0.0


@pytest.mark.parametrize("depth", [0, -2])
def test_a_queue_depth_below_one_is_refused(system, depth):
    """``queue.Queue(maxsize<=0)`` is unbounded: a depth below one would
    silently serve without admission control, so it is refused up front,
    before any worker starts."""
    workers = threading.active_count()
    with pytest.raises(ValueError, match="queue_depth"):
        QueryExecutor(system, threads=1, queue_depth=depth)
    assert threading.active_count() == workers


def test_bounded_admission_rejects_when_full(system):
    started, gate = threading.Event(), threading.Event()
    with QueryExecutor(system, threads=1, queue_depth=1) as executor:
        blocked = executor.submit("block", _blocker(started, gate))
        assert started.wait(timeout=30.0)  # worker is parked
        queued = executor.skyline()  # fills the depth-1 queue
        with pytest.raises(AdmissionFull):
            executor.skyline()
        assert executor.stats.snapshot()["rejected"] == 1
        gate.set()
        assert blocked.result(timeout=30.0).tids == queued.result(
            timeout=30.0
        ).tids


def test_cancel_queued_ticket(system):
    started, gate = threading.Event(), threading.Event()
    with QueryExecutor(system, threads=1, queue_depth=4) as executor:
        blocked = executor.submit("block", _blocker(started, gate))
        assert started.wait(timeout=30.0)
        doomed = executor.skyline()
        assert doomed.cancel()
        gate.set()
        with pytest.raises(QueryCancelled):
            doomed.result(timeout=30.0)
        blocked.result(timeout=30.0)
    stats = executor.stats.snapshot()
    assert stats["cancelled"] == 1 and stats["completed"] == 1


def test_cancel_after_completion_returns_false(system):
    with QueryExecutor(system, threads=1) as executor:
        ticket = executor.skyline()
        ticket.result(timeout=30.0)
        assert not ticket.cancel()


def test_deadline_expires_in_queue(system):
    started, gate = threading.Event(), threading.Event()
    with QueryExecutor(system, threads=1, queue_depth=4) as executor:
        blocked = executor.submit("block", _blocker(started, gate))
        assert started.wait(timeout=30.0)
        doomed = executor.skyline(deadline=0.01)
        time.sleep(0.05)  # let the deadline lapse while queued
        gate.set()
        with pytest.raises(QueryTimeout):
            doomed.result(timeout=30.0)
        blocked.result(timeout=30.0)
    assert executor.stats.snapshot()["timed_out"] == 1


def test_ticker_aborts_a_running_query(system):
    """Cooperative cancellation reaches queries mid-run via the ticker."""
    started = threading.Event()

    def spin(session):
        started.set()
        deadline = time.perf_counter() + 30.0
        while time.perf_counter() < deadline:
            session.ticker()  # what run_algorithm1 polls per heap pop
            time.sleep(0.001)
        raise AssertionError("ticker never fired")

    with QueryExecutor(system, threads=1) as executor:
        ticket = executor.submit("spin", spin)
        assert started.wait(timeout=30.0)
        assert ticket.cancel()
        with pytest.raises(QueryCancelled):
            ticket.result(timeout=30.0)


@pytest.mark.parametrize("routing", [False, True])
def test_submit_after_shutdown_raises(system, routing):
    executor = QueryExecutor(system, threads=1, routing=routing)
    executor.skyline().result(timeout=30.0)  # routed: the next one is a hit
    executor.shutdown()
    with pytest.raises(RuntimeError, match="shut down"):
        executor.skyline()
    executor.shutdown()  # idempotent


def test_nonwaiting_shutdown_fails_queued_tickets(system):
    """shutdown(wait=False) must unblock waiters on still-queued tickets
    instead of abandoning them behind the stop sentinels forever."""
    started, gate = threading.Event(), threading.Event()
    executor = QueryExecutor(system, threads=1, queue_depth=4)
    running = executor.submit("block", _blocker(started, gate))
    assert started.wait(timeout=30.0)  # worker is parked on the gate
    queued = executor.skyline()
    executor.shutdown(wait=False)
    with pytest.raises(RuntimeError, match="shut down"):
        queued.result(timeout=30.0)
    gate.set()
    # The in-flight query still completes normally.
    assert running.result(timeout=30.0).tids
    stats = executor.stats.snapshot()
    assert stats["completed"] == 1


def test_result_timeout_on_pending_ticket(system):
    started, gate = threading.Event(), threading.Event()
    with QueryExecutor(system, threads=1) as executor:
        ticket = executor.submit("block", _blocker(started, gate))
        assert started.wait(timeout=30.0)
        with pytest.raises(TimeoutError):
            ticket.result(timeout=0.01)
        assert not ticket.done()
        gate.set()
        ticket.result(timeout=30.0)
        assert ticket.done()


def test_mixed_kinds_complete_and_aggregate(system):
    serial = {
        "skyline": system.engine.skyline(),
        "dynamic": system.engine.dynamic_skyline((0.5, 0.5)),
        "hull": system.engine.lower_hull(),
    }
    with QueryExecutor(system, threads=4) as executor:
        tickets = {
            "skyline": executor.skyline(),
            "dynamic": executor.dynamic_skyline((0.5, 0.5)),
            "hull": executor.lower_hull(),
        }
        for name, ticket in tickets.items():
            assert ticket.result(timeout=30.0).tids == serial[name].tids
    stats = executor.stats.snapshot()
    assert stats["submitted"] == stats["completed"] == 3
    assert stats["failed"] == 0
    assert stats["epochs_served"] == {system.epochs.current_epoch: 3}


def test_health_is_every_tally_verbatim(system):
    """``health()`` is the dump of the tallies — the same dicts their
    ``snapshot()`` returns, with ``maintenance`` and ``epochs`` among them
    and the routing counts under the router only."""
    with QueryExecutor(system, threads=1, routing=True) as executor:
        executor.enable_scrubbing(start=False)
        executor.skyline().result(timeout=30.0)
        executor.skyline().result(timeout=30.0)  # a hit
        executor.scrubber.run_pass()
        health = executor.health()
        store = system.pcube.store
        assert health["serving"] == executor.stats.snapshot()
        assert health["faults"] == store.fault_stats.snapshot()
        assert health["maintenance"] == system.maintenance_stats.snapshot()
        assert health["epochs"] == system.epochs.stats.snapshot()
        routing = executor.router.stats.snapshot()
        assert health["router"]["routing"] == routing
        assert (routing["cache_hits"], routing["cache_misses"]) == (1, 1)
        scrub = executor.scrubber.stats.snapshot()
        assert scrub.items() <= health["scrubber"].items()
        assert scrub["passes"] == 1 and health["epochs"]["published"] >= 1
    assert not {
        "routed", "fell_back", "routes",
        "cache_hits", "cache_misses", "cache_bypassed",
    } & set(health["serving"])


def _counting_pins(executor, monkeypatch) -> list:
    """Record every snapshot pin the executor takes."""
    pins: list = []
    pin = executor.epochs.pin

    def counted():
        pins.append(threading.current_thread().name)
        return pin()

    monkeypatch.setattr(executor.epochs, "pin", counted)
    return pins


def test_a_cache_hit_never_leaves_the_submitting_thread(system, monkeypatch):
    """With the one worker parked and the depth-1 queue full, a repeat of
    a cached query is still answered: at submission, on the caller's
    thread, with no pin, no queue wait and no admission check — counted."""
    started, gate = threading.Event(), threading.Event()
    with QueryExecutor(
        system, threads=1, queue_depth=1, routing=True
    ) as executor:
        computed = executor.skyline().result(timeout=30.0)
        assert computed.stats.cache_outcome == "miss"
        pins = _counting_pins(executor, monkeypatch)
        blocked = executor.submit("block", _blocker(started, gate))
        assert started.wait(timeout=30.0)
        queued = executor.topk(SumFunction(2), 5)  # a miss: fills the queue
        assert pins == ["serve-worker-0"]  # the parked query's pin only

        ticket = executor.skyline()
        assert ticket.done() and not ticket.cancel()
        hit = ticket.result(timeout=0)
        assert hit.tids == computed.tids
        assert hit.stats.cache_outcome == "hit"
        assert hit.stats.queue_wait_seconds == 0.0
        assert ticket.epoch == hit.stats.epoch == executor.epochs.current_epoch
        assert pins == ["serve-worker-0"]
        with pytest.raises(AdmissionFull):  # a miss still needs the queue
            executor.topk(SumFunction(2), 6)

        gate.set()
        blocked.result(timeout=30.0)
        queued.result(timeout=30.0)
        stats = executor.stats.snapshot()
        routing = executor.router.stats.snapshot()
    assert stats["submitted"] == 4 and stats["completed"] == 4
    assert stats["rejected"] == 1 and stats["queue_wait_max"] > 0.0
    assert routing["routed"] == 3 and routing["cache_hits"] == 1
    assert routing["cache_misses"] == 2


def test_a_queued_miss_looks_again_at_its_pinned_epoch(system):
    """Two copies of one query queued behind a parked worker both miss at
    submission; the first computes and caches the answer, and the second
    is a hit in the worker — one lookup outcome counted per query."""
    started, gate = threading.Event(), threading.Event()
    with QueryExecutor(system, threads=1, routing=True) as executor:
        blocked = executor.submit("block", _blocker(started, gate))
        assert started.wait(timeout=30.0)
        first, second = executor.skyline(), executor.skyline()
        assert not first.done() and not second.done()
        gate.set()
        blocked.result(timeout=30.0)
        outcomes = [
            ticket.result(timeout=30.0).stats.cache_outcome
            for ticket in (first, second)
        ]
        assert second.result().tids == first.result().tids
        assert second.queue_wait_seconds > 0.0
        routing = executor.router.stats.snapshot()
    assert outcomes == ["miss", "hit"]
    assert (routing["routed"], routing["cache_hits"]) == (2, 1)
    assert routing["cache_misses"] == 1


def test_a_traced_lookup_is_one_span_on_the_submitting_thread(system):
    with QueryExecutor(system, threads=1, routing=True) as executor:
        miss, hit = Tracer(), Tracer()
        executor.skyline(tracer=miss).result(timeout=30.0)
        executor.skyline(tracer=hit).result(timeout=30.0)
    assert [span.name for span in miss.roots] == ["route:lookup", "serve:query"]
    assert [span.name for span in hit.roots] == ["route:lookup"]
    assert miss.roots[0].attrs["cache_outcome"] == "miss"
    assert hit.roots[0].attrs == {
        "kind": "skyline",
        "epoch": system.epochs.current_epoch,
        "cache_outcome": "hit",
    }


def test_finished_result_is_collectable_while_worker_idles(system):
    """The worker must not hold the last ticket across its blocking
    ``get()``: the answer (and its whole search state) would then live
    until the next request and be freed on that request's clock."""
    import gc
    import weakref

    with QueryExecutor(system, threads=1) as executor:
        ticket = executor.skyline()
        result = ticket.result(timeout=30.0)
        probe = weakref.ref(result)
        del ticket, result
        deadline = time.perf_counter() + 30.0
        while probe() is not None and time.perf_counter() < deadline:
            gc.collect()
            time.sleep(0.01)  # the worker may still be inside task_done()
        assert probe() is None
