"""Threaded stress: byte-identical pinned-epoch answers under churn.

The contract under test is the tentpole's: readers pinned at an epoch get
*bit-for-bit* the serial answer for that epoch no matter how much
maintenance commits concurrently, the executor keeps serving fresh epochs
throughout, and when everything drains the system audits clean with all
deferred pages reclaimed.
"""

from __future__ import annotations

import random
import threading

import pytest

from repro.data.workload import sample_linear_function, sample_predicate
from repro.query.session import QuerySession
from repro.serve.executor import QueryExecutor
from repro.storage.buffer import BufferPool
from tests.concurrent.test_epochs import assert_nothing_pinned

pytestmark = pytest.mark.concurrent

READER_THREADS = 4
ROUNDS_PER_READER = 3
MAINTENANCE_OPS = 12


def _workload(system, rng, n=6):
    relation = system.relation
    dims = relation.schema.n_preference
    queries = []
    for index in range(n):
        predicate = sample_predicate(relation, 1 + index % 2, rng)
        if index % 2 == 0:
            queries.append(("skyline", {"predicate": predicate}))
        else:
            queries.append(
                (
                    "topk",
                    {
                        "fn": sample_linear_function(dims, rng),
                        "k": 5,
                        "predicate": predicate,
                    },
                )
            )
    return queries


def _churn(system, errors):
    """One writer: WAL-protected inserts, updates and deletes."""
    try:
        schema = system.relation.schema
        bool_row = tuple(0 for _ in range(schema.n_boolean))
        spawned = []
        for step in range(MAINTENANCE_OPS):
            point = tuple(
                0.01 * (step + 1) for _ in range(schema.n_preference)
            )
            if step % 3 == 0 or not spawned:
                tid, _ = system.insert(bool_row, point)
                spawned.append(tid)
            elif step % 3 == 1:
                system.update(spawned[-1], point)
            else:
                system.delete(spawned.pop(0))
    except Exception as exc:  # pragma: no cover - surfaced by the assert
        errors.append(f"writer: {exc!r}")


def test_pinned_readers_are_byte_identical_under_churn(fresh_system):
    system = fresh_system(n_tuples=800, seed=31)
    pool = BufferPool(system.disk, capacity=4096)

    pinned = system.pin_snapshot()
    rng = random.Random(5)
    workload = _workload(system, rng)
    serial = [
        getattr(QuerySession.for_snapshot(pinned), kind)(**kwargs)
        for kind, kwargs in workload
    ]

    errors: list[str] = []

    def reader(reader_id: int):
        try:
            for _ in range(ROUNDS_PER_READER):
                session = QuerySession.for_snapshot(pinned, pool=pool)
                for index, (kind, kwargs) in enumerate(workload):
                    result = getattr(session, kind)(**kwargs)
                    if (
                        result.tids != serial[index].tids
                        or result.scores != serial[index].scores
                    ):
                        errors.append(
                            f"reader {reader_id} query {index} diverged "
                            f"from the serial epoch-{pinned.epoch} answer"
                        )
        except Exception as exc:  # pragma: no cover
            errors.append(f"reader {reader_id}: {exc!r}")

    threads = [
        threading.Thread(target=reader, args=(i,))
        for i in range(READER_THREADS)
    ]
    threads.append(threading.Thread(target=_churn, args=(system, errors)))
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=120.0)
        assert not thread.is_alive(), "stress thread hung"

    assert errors == []
    assert system.epochs.current_epoch > pinned.epoch  # churn published
    system.unpin_snapshot(pinned)
    assert system.epochs.deferred_pages() == set()
    assert system.verify_consistency().ok


def test_executor_serves_fresh_epochs_during_churn(fresh_system):
    system = fresh_system(n_tuples=800, seed=37)
    rng = random.Random(11)
    workload = _workload(system, rng)
    errors: list[str] = []

    with QueryExecutor(system, threads=READER_THREADS) as executor:
        writer = threading.Thread(target=_churn, args=(system, errors))
        writer.start()
        tickets = []
        for _ in range(3):
            tickets.extend(
                getattr(executor, kind)(**kwargs)
                for kind, kwargs in workload
            )
        results = [ticket.result(timeout=120.0) for ticket in tickets]
        writer.join(timeout=120.0)
        assert not writer.is_alive(), "writer hung"

    assert errors == []
    epochs_seen = {result.stats.epoch for result in results}
    assert epochs_seen  # every answer is stamped with its epoch
    assert max(epochs_seen) <= system.epochs.current_epoch
    stats = executor.stats.snapshot()
    assert stats["failed"] == 0
    assert stats["completed"] == len(results)
    # Quiesced: every deferred page reclaimed, every pin released.
    assert system.epochs.deferred_pages() == set()
    assert_nothing_pinned(system)
    assert system.verify_consistency().ok
