"""Fallback-chain fault tests: every edge fires, every counter reconciles.

Composes the deterministic per-tag storage fault plans and the chaos
harness (seeded storms against the concurrent executor) with the ordered
fallback chain.  Each of the chain's three fallback edge *kinds* is
exercised at least once, deterministically:

* ``StrategyUnsupported`` — a request the engine never serves
  (index-merge on a served system, which keeps no B+-trees);
* ``StorageFault`` — corrupt R-tree pages fail BBS, the chain degrades
  to the heap-scanning engines;
* ``StrategyTimeout`` — latency injection makes one attempt overrun its
  deadline *slice* while the overall budget still has room.

Edges into the two baseline engines no served chain names are driven
through ``run_chain`` directly and read off its failure list; edges on the
serving chain go through an executor, whose router's tallies reconcile
exactly against the observed results: ``routed == cache_hits +
sum(served_by)``, ``fell_back`` counts fallen-back queries,
``fallback_edges`` names each failed->next edge, and the error-class
counters match the edge census.
"""

from __future__ import annotations

import random
import time

import pytest

from repro.data.synthetic import generate_relation
from repro.data.workload import sample_linear_function, sample_predicate
from repro.query.predicates import BooleanPredicate
from repro.query.session import QuerySession
from repro.route import (
    ENGINES,
    QueryRouter,
    RouteRequest,
    StrategyTimeout,
    StrategyUnsupported,
    chain_for,
    run_chain,
)
from repro.serve.executor import (
    QueryCancelled,
    QueryExecutor,
    QueryShed,
    QueryTimeout,
)
from repro.storage.disk import SimulatedDisk
from repro.storage.errors import StorageFault
from repro.storage.faults import FaultPlan, FaultRule, FaultyDisk
from repro.system import build_system

pytestmark = [pytest.mark.faults, pytest.mark.routing]

TYPED_ERRORS = (QueryShed, QueryTimeout, QueryCancelled, StorageFault)


@pytest.fixture
def faulty(small_config):
    """A routed-ready system over a fault-injecting disk (armed later)."""
    disk = FaultyDisk(SimulatedDisk())
    system = build_system(
        generate_relation(small_config, disk=disk), fanout=8
    )
    return disk, system


def _session(system):
    return QuerySession.for_snapshot(system.pin_snapshot())


def _reference(system, predicate):
    """Fault-free ground truth via the naive engine."""
    request = RouteRequest("skyline", predicate)
    return run_chain(("naive",), _session(system), request)[0]


@pytest.mark.parametrize("kind", ["skyline", "topk"])
def test_unsupported_edge_index_merge_to_naive(faulty, kind):
    """Edge 1: ``StrategyUnsupported`` — a served system keeps no B+-trees,
    so index-merge refuses every shape, before a write and after one; the
    chain hands the query on and naive answers it."""
    _, system = faulty
    predicate = sample_predicate(system.relation, 1, random.Random(3))
    fn = sample_linear_function(
        system.relation.schema.n_preference, random.Random(5)
    )
    shape = {"fn": fn, "k": 5} if kind == "topk" else {}
    request = RouteRequest(kind=kind, predicate=predicate, **shape)
    schema = system.relation.schema
    for written in (False, True):
        if written:
            system.insert(
                tuple(0 for _ in range(schema.n_boolean)),
                tuple(0.5 for _ in range(schema.n_preference)),
            )
        expected = run_chain(("naive",), _session(system), request)[0]
        result, failures = run_chain(
            ["index-merge", "naive"], _session(system), request
        )
        assert len(failures) == 1
        name, error = failures[0]
        assert name == "index-merge"
        assert isinstance(error, StrategyUnsupported)
        assert "B+-trees" in error.reason
        assert result.stats.tier == "naive"
        assert result.stats.fallbacks == 1
        assert result.tids == expected.tids
        assert result.scores == expected.scores


def test_storage_fault_edge_domination_to_naive(faulty):
    """Edge 2: ``StorageFault`` — corrupt R-tree pages fail BBS; the heap
    scan answers, and the answer says it was degraded."""
    disk, system = faulty
    predicate = sample_predicate(system.relation, 1, random.Random(7))
    expected = _reference(system, predicate)

    disk.plan = FaultPlan(
        [FaultRule(kind="corrupt", tag="rtree", count=None)]
    )
    result, failures = run_chain(
        ("domination-first", "naive"),
        _session(system),
        RouteRequest("skyline", predicate),
    )
    assert [name for name, _ in failures] == ["domination-first"]
    assert isinstance(failures[0][1], StorageFault)
    assert result.stats.tier == "naive"
    assert result.stats.fallbacks == 1
    assert result.stats.degraded
    assert sorted(result.tids) == sorted(expected.tids)
    disk.plan = FaultPlan()


def test_executor_routed_fault_reaches_the_router(faulty):
    """A storage fault through an *executor-built* session: there is one
    chain, so a corrupt R-tree page is a fallback the router sees — not one
    swallowed inside the signature engine — and with the cache off the
    scan's answer is the signature engine's, in the same order."""
    disk, system = faulty
    predicate = sample_predicate(system.relation, 1, random.Random(7))
    expected = system.engine.skyline(predicate)

    with QueryExecutor(system, threads=1) as executor:
        router = executor.router
        assert chain_for(
            RouteRequest(kind="skyline", predicate=predicate)
        )[:2] == ("signature", "boolean-first")
        disk.plan = FaultPlan(
            [FaultRule(kind="corrupt", tag="rtree", count=1)]
        )
        result = executor.skyline(predicate).result(timeout=30.0)
        assert result.stats.route == "boolean-first"
        assert result.stats.tier == "boolean-first"
        assert result.stats.fallbacks == 1
        assert result.stats.degraded
        assert result.tids == expected.tids

        stats = router.stats.snapshot()
        assert stats["fell_back"] == 1
        assert stats["strategy_faults"] == 1
        assert stats["fallback_edges"] == {"signature->boolean-first": 1}
        assert stats["routed"] == sum(stats["served_by"].values()) == 1
        assert executor.stats.snapshot()["degraded_queries"] == 1
    disk.plan = FaultPlan()


@pytest.mark.parametrize("routing", [False, True])
def test_disjunction_fault_reaches_the_caller(faulty, routing):
    """No scan engine selects a union, so a DNF read stays on
    ``(signature,)``: a corrupt R-tree page reaches the caller as the
    typed ``StorageFault`` while a conjunction on the same executor falls
    back to the scan."""
    disk, system = faulty
    relation = system.relation
    dim = relation.schema.boolean_dims[0]
    values = sorted({relation.bool_value(tid, dim) for tid in relation.tids()})
    first, second = (BooleanPredicate({dim: value}) for value in values[:2])
    fn = sample_linear_function(relation.schema.n_preference, random.Random(1))
    disk.plan = FaultPlan([FaultRule(kind="corrupt", tag="rtree", count=None)])
    try:
        with QueryExecutor(system, threads=1, routing=routing) as executor:
            with pytest.raises(StorageFault):
                executor.skyline([first, second]).result(timeout=30.0)
            with pytest.raises(StorageFault):
                executor.topk(fn, 5, [first, second]).result(timeout=30.0)
            conjunction = executor.skyline(first).result(timeout=30.0)
            assert conjunction.stats.fallbacks == 1
            assert conjunction.stats.route == "boolean-first"
            stats = executor.stats.snapshot()
        assert stats["completed"] == 1 and stats["failed"] == 2
    finally:
        disk.plan = FaultPlan()


def test_fallen_back_answer_counts_its_failed_attempt(faulty):
    """The signature attempt's retries, partial loads and pages are part of
    the answer that replaced it, and so reach the executor's tally: two
    transient faults on the root partial are retried, then a corrupt
    R-tree page hands the query to the scan."""
    disk, system = faulty
    predicate = sample_predicate(system.relation, 1, random.Random(7))
    store = system.pcube.store
    with QueryExecutor(system, threads=1) as executor:
        retries_before = store.fault_stats.retries
        disk.plan = FaultPlan(
            [
                FaultRule(kind="transient", tag="pcube:sig", count=2),
                FaultRule(kind="corrupt", tag="rtree", count=1),
            ]
        )
        result = executor.skyline(predicate).result(timeout=30.0)
        disk.plan = FaultPlan()
        scan = ENGINES["boolean-first"](
            _session(system),
            RouteRequest(kind="skyline", predicate=predicate),
        )
        assert executor.stats.snapshot()["fault_retries"] == 2
    stats = result.stats
    assert (stats.route, stats.fallbacks) == ("boolean-first", 1)
    assert stats.fault_retries == store.fault_stats.retries - retries_before == 2
    assert stats.sig_loads == stats.ssig == 1
    assert stats.sig_load_seconds > 0.0
    assert stats.sblock == 1  # the corrupt page the search stopped at
    assert stats.total_io() == scan.stats.total_io() + 2
    assert result.tids == scan.tids


def test_transient_fault_falls_back_once_then_signature_serves(faulty):
    """A transient R-tree fault hands one query to the scan and heals: the
    next read of the same query is a healthy signature answer."""
    disk, system = faulty
    predicate = sample_predicate(system.relation, 1, random.Random(7))
    with QueryExecutor(system, threads=1) as executor:
        router = executor.router
        disk.plan = FaultPlan(
            [FaultRule(kind="transient", tag="rtree", count=1)]
        )
        fallen = executor.skyline(predicate).result(timeout=30.0)
        assert fallen.stats.route == "boolean-first"
        assert fallen.stats.fallbacks == 1
        assert fallen.stats.degraded

        healthy = executor.skyline(predicate).result(timeout=30.0)
        assert healthy.stats.route == "signature"
        assert healthy.stats.fallbacks == 0
        assert not healthy.stats.degraded
        assert healthy.tids == fallen.tids
        stats = router.stats.snapshot()
        assert stats["served_by"] == {"boolean-first": 1, "signature": 1}
        assert stats["fell_back"] == 1


def test_storage_fault_two_hop_chain(faulty):
    """A chain can degrade twice: both R-tree engines fault and naive
    serves, with both failed attempts on the list in chain order."""
    disk, system = faulty
    predicate = sample_predicate(system.relation, 1, random.Random(11))
    expected = _reference(system, predicate)

    disk.plan = FaultPlan(
        [FaultRule(kind="corrupt", tag="rtree", count=None)]
    )
    result, failures = run_chain(
        ("signature", "domination-first", "naive"),
        _session(system),
        RouteRequest("skyline", predicate),
    )
    assert [name for name, _ in failures] == ["signature", "domination-first"]
    assert all(isinstance(error, StorageFault) for _, error in failures)
    assert result.stats.tier == "naive"
    assert result.stats.fallbacks == 2
    assert sorted(result.tids) == sorted(expected.tids)
    disk.plan = FaultPlan()


def test_timeout_edge_slice_expires_overall_survives(faulty):
    """Edge 3: ``StrategyTimeout`` — latency injection on R-tree reads
    makes the first attempt overrun its *slice* while the overall budget
    survives, so naive still answers inside the deadline."""
    disk, system = faulty
    predicate = sample_predicate(system.relation, 1, random.Random(13))
    expected = _reference(system, predicate)

    disk.plan = FaultPlan(
        [FaultRule(kind="slow", tag="rtree", delay=0.05, count=None)]
    )
    session = QuerySession.for_snapshot(
        system.pin_snapshot(),
        deadline_at=time.perf_counter() + 0.4,
    )
    result, failures = run_chain(
        ("domination-first", "naive"),
        session,
        RouteRequest("skyline", predicate),
    )
    assert [name for name, _ in failures] == ["domination-first"]
    assert isinstance(failures[0][1], StrategyTimeout)
    assert result.stats.tier == "naive"
    assert result.stats.fallbacks == 1
    assert sorted(result.tids) == sorted(expected.tids)
    disk.plan = FaultPlan()


def test_overall_deadline_is_never_swallowed(faulty):
    """A lapsed *overall* deadline aborts with ``QueryTimeout`` exactly as
    it would in the session — the chain must not convert it into a
    fallback."""
    _, system = faulty
    predicate = sample_predicate(system.relation, 1, random.Random(17))
    router = QueryRouter.for_system(system, cache=False)
    session = QuerySession.for_snapshot(
        system.pin_snapshot(),
        deadline_at=time.perf_counter() - 1.0,  # already lapsed
    )
    with pytest.raises(QueryTimeout):
        router.route(session, RouteRequest("skyline", predicate))


def test_chaos_storm_routed_executor_reconciles(faulty, rng):
    """The composed storm: transient faults, corruption and latency spikes
    against a *routed* executor.  Every ticket resolves exact-or-typed
    (the chaos contract), and afterwards the router's counters reconcile
    exactly with what the clients saw: every completed query was routed,
    every routed query has exactly one cache outcome, and the router's own
    invariant holds."""
    disk, system = faulty
    relation = system.relation
    dims = relation.schema.n_preference
    workload = []
    for index in range(24):
        predicate = sample_predicate(relation, 1 + index % 2, rng)
        if index % 3 == 1:
            workload.append(
                (
                    "topk",
                    {
                        "fn": sample_linear_function(dims, rng),
                        "k": 10,
                        "predicate": predicate,
                    },
                )
            )
        else:
            workload.append(("skyline", {"predicate": predicate}))
    serial = [
        getattr(system.engine, kind)(**kwargs) for kind, kwargs in workload
    ]

    disk.plan = FaultPlan(
        [
            FaultRule(kind="transient", tag="rtree", probability=0.2, count=12),
            FaultRule(
                kind="transient",
                tag=f"{system.pcube.tag}:sig",
                probability=0.2,
                count=12,
            ),
            FaultRule(kind="slow", probability=0.05, count=10, delay=0.002),
        ],
        seed=20080401,
    )
    with QueryExecutor(
        system, threads=3, queue_depth=64, routing=True
    ) as executor:
        tickets = [
            getattr(executor, kind)(**kwargs) for kind, kwargs in workload
        ]
        completed = 0
        for index, ticket in enumerate(tickets):
            try:
                result = ticket.result(timeout=60.0)
            except TYPED_ERRORS:
                continue
            reference = serial[index]
            assert sorted(result.tids) == sorted(reference.tids)
            if result.scores is not None:
                assert sorted(
                    round(s, 9) for s in result.scores
                ) == sorted(round(s, 9) for s in reference.scores)
            completed += 1
        serving = executor.stats.snapshot()
        router_view = executor.router.snapshot()["routing"]

    assert serving["completed"] == completed
    assert router_view["routed"] == completed
    assert (
        router_view["cache_hits"]
        + router_view["cache_misses"]
        + router_view["cache_bypassed"]
        == router_view["routed"]
    )
    assert router_view["fell_back"] <= router_view["routed"]
    assert router_view["routed"] == router_view["cache_hits"] + sum(
        router_view["served_by"].values()
    )
    disk.plan = FaultPlan()
