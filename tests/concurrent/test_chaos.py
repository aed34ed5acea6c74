"""Chaos harness: seeded fault storms against the concurrent executor.

The serving resilience contract under concurrent load (ISSUE: resilient
serving): with transient faults, permanent corruption, latency spikes and
tight deadlines all firing at once,

* every submitted ticket *resolves* — with an exact answer or a typed
  error — within a bounded wait (zero hangs, zero abandoned waiters);
* every answer that is produced is byte-identical to the serial engine's
  fault-free answer for the same query, whatever tier produced it;
* after the storm passes, rebuilding the quarantine backlog returns the
  system to a clean consistency audit and fault-free serving.

Everything is seeded: the data, the workload, the fault plan.  Runs are
replayable modulo thread interleaving, so the assertions are invariants
(exact-or-typed, audit-clean), not exact fault counts.
"""

from __future__ import annotations

import random

import pytest

from repro.data.synthetic import generate_relation
from repro.data.workload import sample_linear_function, sample_predicate
from repro.serve.executor import (
    AdmissionFull,
    QueryCancelled,
    QueryExecutor,
    QueryShed,
    QueryTimeout,
)
from repro.storage.disk import SimulatedDisk
from repro.storage.errors import StorageFault
from repro.storage.faults import FaultPlan, FaultRule, FaultyDisk
from repro.system import build_system

pytestmark = [pytest.mark.concurrent, pytest.mark.chaos]

#: The only ways a ticket may fail under chaos.  Anything else (deadlock,
#: AssertionError, a worker crash surfacing as RuntimeError) is a bug.
TYPED_ERRORS = (QueryShed, QueryTimeout, QueryCancelled, StorageFault)


@pytest.fixture
def chaotic(small_config):
    """A built system over a fault-injecting disk, armed after the build."""
    disk = FaultyDisk(SimulatedDisk())
    system = build_system(
        generate_relation(small_config, disk=disk), fanout=8
    )
    return disk, system


def _workload(system, rng: random.Random, n_queries: int):
    """A seeded mixed workload: (kind, kwargs) pairs, engine-replayable."""
    relation = system.relation
    dims = relation.schema.n_preference
    workload = []
    for index in range(n_queries):
        predicate = sample_predicate(relation, 1 + index % 2, rng)
        kind = ("skyline", "topk", "skyline", "dynamic_skyline")[index % 4]
        if kind == "topk":
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
        elif kind == "dynamic_skyline":
            workload.append(
                (
                    "dynamic_skyline",
                    {
                        "query_point": [rng.random() for _ in range(dims)],
                        "predicate": predicate,
                    },
                )
            )
        else:
            workload.append(("skyline", {"predicate": predicate}))
    return workload


def _storm_plan(tag: str, seed: int) -> FaultPlan:
    """Transient bursts + two permanent corruptions + latency spikes."""
    return FaultPlan(
        [
            FaultRule(
                kind="transient", tag=f"{tag}:sig", probability=0.35, count=24
            ),
            FaultRule(kind="corrupt", tag=f"{tag}:sig", after=6, count=1),
            FaultRule(kind="corrupt", tag="rtree", after=40, count=1),
            FaultRule(
                kind="slow", probability=0.1, count=20, delay=0.005
            ),
        ],
        seed=seed,
    )


def _resolve(tickets, serial, workload):
    """Wait out every ticket; classify outcomes; fail on non-typed errors.

    The bounded ``result(timeout=...)`` is the zero-hang assertion: a
    ticket that never resolves raises ``TimeoutError``, which is not in
    ``TYPED_ERRORS`` and fails the test.
    """
    outcomes = {"completed": 0, "typed": 0}
    for index, ticket in enumerate(tickets):
        if ticket is None:  # rejected at admission
            continue
        try:
            result = ticket.result(timeout=60.0)
        except TYPED_ERRORS:
            outcomes["typed"] += 1
            continue
        reference = serial[index]
        kind = workload[index][0]
        assert result.tids == reference.tids, f"query {index} ({kind})"
        assert result.scores == reference.scores, f"query {index} ({kind})"
        outcomes["completed"] += 1
    return outcomes


def test_fault_storm_every_ticket_resolves_exact_or_typed(chaotic, rng):
    disk, system = chaotic
    workload = _workload(system, rng, 24)
    serial = [
        getattr(system.engine, kind)(**kwargs) for kind, kwargs in workload
    ]

    disk.plan = _storm_plan(system.pcube.tag, seed=20080401)
    with QueryExecutor(system, threads=4, queue_depth=8) as executor:
        tickets = []
        for index, (kind, kwargs) in enumerate(workload):
            # Every fourth query gets a deadline it cannot possibly meet
            # while the queue is contended: shed/timeout pressure.
            deadline = 0.002 if index % 4 == 3 else 30.0
            try:
                tickets.append(
                    executor.submit(
                        kind,
                        _runner(kind, kwargs),
                        deadline=deadline,
                    )
                )
            except AdmissionFull as exc:
                assert exc.retry_after >= 0.0
                tickets.append(None)
        outcomes = _resolve(tickets, serial, workload)
        for ticket in tickets:
            assert ticket is None or ticket.done()

    stats = executor.stats.snapshot()
    assert outcomes["completed"] >= 1  # the storm did not take serving down
    assert stats["completed"] + stats["failed"] == stats["submitted"]
    assert sum(disk.fault_counts.values()) > 0  # the storm actually fired
    # Retries/degradation were exercised and accounted end to end.  A
    # fallen-back query's answer carries its failed attempts' retries, but
    # the store's counter also covers queries that failed outright (their
    # per-query stats never reach the aggregate), so it bounds the
    # serving-side tally from above.
    faults = system.pcube.store.fault_stats.snapshot()
    assert faults["retries"] >= stats["fault_retries"] >= 0
    assert stats["tiers"]  # every completed query carries a tier stamp
    assert sum(stats["tiers"].values()) == stats["completed"]


def _runner(kind, kwargs):
    """Build the session callable ``submit`` expects for one workload row."""

    def run(session):
        return getattr(session, kind)(**kwargs)

    return run


def test_storm_then_heal_returns_to_clean_fault_free_serving(chaotic, rng):
    """Phase B: serve through a storm alongside maintenance churn (with a
    torn write), then heal — rebuild quarantined cells, audit, and verify
    fault-free byte-identical serving at the new epoch."""
    disk, system = chaotic
    schema = system.relation.schema
    predicate = sample_predicate(system.relation, 1, rng)
    zeros = tuple(0 for _ in range(schema.n_boolean))

    disk.plan = FaultPlan(
        [
            FaultRule(
                kind="transient", tag=f"{system.pcube.tag}:sig",
                probability=0.4, count=12,
            ),
            FaultRule(kind="corrupt", tag=f"{system.pcube.tag}:sig", count=1),
            FaultRule(
                kind="torn", op="allocate", tag=f"{system.pcube.tag}:sig",
                after=2, count=1,
            ),
        ],
        seed=11,
    )
    with QueryExecutor(system, threads=2, queue_depth=16) as executor:
        tickets = [executor.skyline(predicate) for _ in range(6)]
        # Maintenance churn under write faults: a torn allocation aborts
        # one insert mid-rewrite; recovery must roll it forward or back.
        for step in range(4):
            point = tuple(
                0.2 + 0.1 * step for _ in range(schema.n_preference)
            )
            try:
                system.insert(zeros, point)
            except StorageFault:
                system.recover()
        for ticket in tickets:
            try:
                ticket.result(timeout=60.0)
            except TYPED_ERRORS:
                pass

        # The storm has passed: heal and verify from inside the executor,
        # which must observe the repaired epoch.
        disk.plan = FaultPlan()
        system.pcube.rebuild_quarantined()
        system.insert(zeros, tuple(0.9 for _ in range(schema.n_preference)))
        healed = executor.skyline(predicate).result(timeout=60.0)

    assert not system.pcube.store.quarantined_cells()
    audit = system.verify_consistency()
    assert audit.ok, audit.problems
    reference = system.engine.skyline(predicate)
    assert healed.tids == reference.tids
    assert healed.stats.tier == "signature"
    assert not healed.stats.degraded
    assert healed.stats.epoch == system.epochs.current_epoch
