"""ResultCache validity under randomized maintenance/read interleavings.

The cache's soundness claim (DESIGN.md §12) is: entries are epoch-keyed —
a snapshot's contents are fully determined by its epoch — *plus* carry of
the entries proven unaffected by every delta in between; unknown ⇒ drop.
A publish names the rows it wrote, and the first read at a newer epoch
re-keys an entry only when each of those rows fails the entry's predicate
(cell test) or provably cannot enter or leave its answer (answer test: a
written member drops; a removed non-member of a skyline had a dominator in
the skyline, which dominates whatever it dominated; a point dominated by a
member can neither enter nor evict; a point scoring strictly worse than the
k-th of a full top-k stays out; ties drop).  Publishers that name nothing
(``recover()``, quarantine repair), the publish after an abandoned write
and deltas that fell off the bounded log flush everything.

These tests attack that claim the only way it can fail in practice:
interleaving maintenance commits — insert, ``insert_batch``, update,
delete, crash + ``recover()`` — with routed reads from sessions pinned at
mixed epochs, in randomized single-threaded schedules and in genuinely
threaded ones, and requiring every routed answer — hit, carried hit, miss
or recomputation — to be byte-identical to the serial answer for its
epoch.
"""

from __future__ import annotations

import random
import sys
import threading

import pytest

from repro.data.synthetic import SyntheticConfig, generate_relation
from repro.data.workload import sample_linear_function, sample_predicate
from repro.query.session import QuerySession
from repro.query.predicates import BooleanPredicate
from repro.route import QueryRouter, RouteRequest
from repro.storage.disk import SimulatedDisk
from repro.storage.faults import (
    FaultPlan,
    FaultRule,
    FaultyDisk,
    SimulatedCrash,
)
from repro.system import build_system
from tests.concurrent.test_epochs import assert_nothing_pinned

pytestmark = [pytest.mark.concurrent, pytest.mark.routing]

#: Crash sites between the relation append and the commit: the first
#: recovers by reindexing, the second by replaying the journalled changes.
CRASH_SITES = [("write", "rtree"), ("allocate", "pcube:sig")]


def _crashable_system(n_tuples, seed):
    disk = FaultyDisk(SimulatedDisk())
    relation = generate_relation(
        SyntheticConfig(
            n_tuples=n_tuples,
            n_boolean=2,
            cardinality=3,
            n_preference=2,
            seed=seed,
        ),
        disk=disk,
    )
    system = build_system(relation, fanout=6)
    return disk, system


def _templates(system, rng, n=5):
    """A small, repeat-heavy query set (repeats are what caches are for)."""
    relation = system.relation
    dims = relation.schema.n_preference
    templates = []
    for index in range(n):
        predicate = sample_predicate(relation, index % 3, rng)
        if index % 2 == 0:
            templates.append(("skyline", {"predicate": predicate}))
        else:
            templates.append(
                (
                    "topk",
                    {
                        "fn": sample_linear_function(dims, rng),
                        "k": 5,
                        "predicate": predicate,
                    },
                )
            )
    return templates


def _serial_answer(snapshot, kind, kwargs):
    """Ground truth for one (epoch, query): an unrouted session."""
    result = getattr(QuerySession.for_snapshot(snapshot), kind)(**kwargs)
    scores = (
        None
        if result.scores is None
        else sorted(round(score, 9) for score in result.scores)
    )
    return sorted(result.tids), scores


def _routed_answer(result):
    scores = (
        None
        if result.scores is None
        else sorted(round(score, 9) for score in result.scores)
    )
    return sorted(result.tids), scores


def _mutate(disk, system, rng, crash_rate=0.1):
    """One maintenance op → one published epoch (a crashed op publishes
    from ``recover()``, which names no write set)."""
    relation = system.relation
    live = list(relation.live_tids())

    def row():
        bool_row = relation.bool_row(rng.choice(live))
        point = tuple(rng.random() for _ in range(relation.schema.n_preference))
        return bool_row, point

    choice = rng.random() - crash_rate
    if choice >= 0.6:
        system.insert(*row())
    elif choice >= 0.4:
        system.insert_batch([row() for _ in range(rng.randrange(1, 5))])
    elif choice >= 0.2:
        system.update(rng.choice(live), row()[1])
    elif choice >= 0.0:
        system.delete(rng.choice(live))
    else:
        op, tag = rng.choice(CRASH_SITES)
        disk.plan = FaultPlan(
            [FaultRule(kind="crash", op=op, tag=tag, count=1)]
        )
        try:
            with pytest.raises(SimulatedCrash):
                system.insert(*row())
        finally:
            disk.plan = FaultPlan()
        assert system.recover() == "reindexed"


def _assert_reconciled(router):
    """No entry is keyed below the newest reconciled epoch."""
    cache = router.cache
    assert all(key[0] >= cache._reconciled for key in cache._entries)


def _assert_drop_counters_add_up(cache):
    assert cache["invalidated"] == (
        cache["dropped_cell"]
        + cache["dropped_answer"]
        + cache["flushed_unknown"]
    )


@pytest.mark.parametrize("seed", [3, 17, 91])
def test_randomized_commit_read_interleaving(seed):
    """Random schedule of {commit, read}: every routed answer — hit or
    miss — is byte-identical to the serial answer at its epoch, and no
    entry is keyed below the newest reconciled epoch."""
    disk, system = _crashable_system(n_tuples=400, seed=29)
    rng = random.Random(seed)
    templates = _templates(system, rng)
    router = QueryRouter.for_system(system)

    # Per-epoch ground truth, computed lazily (and serially) on first use.
    serial: dict[tuple[int, int], tuple] = {}
    hits = carried_hits = 0
    for _ in range(60):
        if rng.random() < 0.3:
            _mutate(disk, system, rng)
            continue
        index = rng.randrange(len(templates))
        kind, kwargs = templates[index]
        snapshot = system.pin_snapshot()
        try:
            key = (snapshot.epoch, index)
            if key not in serial:
                serial[key] = _serial_answer(snapshot, kind, kwargs)
            session = QuerySession.for_snapshot(snapshot)
            result = router.route(session, RouteRequest(kind, **kwargs))
            assert _routed_answer(result) == serial[key], (
                f"{kind} (outcome={result.stats.cache_outcome}) diverged "
                f"from the serial epoch-{snapshot.epoch} answer"
            )
            assert result.stats.epoch == snapshot.epoch
            if result.stats.cache_outcome == "hit":
                hits += 1
                assert result.stats.route is not None
                computed = result.stats.cache_computed_epoch
                assert computed <= snapshot.epoch
                carried_hits += computed < snapshot.epoch
            _assert_reconciled(router)
            assert router.cache._reconciled == snapshot.epoch
        finally:
            system.unpin_snapshot(snapshot)

    stats = router.stats.snapshot()
    cache = router.cache.snapshot()
    # Exact reconciliation: every routed query was a hit or was served.
    assert stats["routed"] == stats["cache_hits"] + sum(
        stats["served_by"].values()
    )
    assert stats["cache_hits"] == hits
    # The schedule repeats templates across publishes, so some answers must
    # have been served from an older epoch's computation (drops are rare in
    # 60 steps — the 200-schedule test below is the one that counts them).
    assert carried_hits > 0 and cache["carried"] > 0
    _assert_drop_counters_add_up(cache)
    assert system.verify_consistency().ok


def test_no_stale_hit_in_seeded_schedules():
    """200 short seeded schedules on one evolving system, each with a cold
    cache: writes of every kind, crashes, and reads from sessions pinned at
    mixed epochs (a late ``put`` from an old pin included)."""
    disk, system = _crashable_system(n_tuples=100, seed=5)
    reads = carried_hits = dropped = 0
    for seed in range(200):
        rng = random.Random(seed)
        templates = _templates(system, rng, n=4)
        router = QueryRouter.for_system(system)
        pins = []
        try:
            for _ in range(6):
                roll = rng.random()
                if roll < 0.3:
                    # recover() re-reads the whole WAL: keep crashes rare.
                    _mutate(disk, system, rng, crash_rate=0.03)
                    continue
                if roll < 0.4:
                    pins.append(system.pin_snapshot())
                    continue
                kind, kwargs = rng.choice(templates)
                if pins and rng.random() < 0.4:
                    snapshot = rng.choice(pins)
                else:
                    snapshot = system.pin_snapshot()
                    pins.append(snapshot)
                result = router.route(
                    QuerySession.for_snapshot(snapshot),
                    RouteRequest(kind, **kwargs),
                )
                assert _routed_answer(result) == _serial_answer(
                    snapshot, kind, kwargs
                ), (seed, kind, result.stats.cache_outcome, snapshot.epoch)
                assert result.stats.epoch == snapshot.epoch
                reads += 1
                if result.stats.cache_outcome == "hit":
                    carried_hits += (
                        result.stats.cache_computed_epoch < snapshot.epoch
                    )
                _assert_reconciled(router)
        finally:
            for snapshot in pins:
                system.unpin_snapshot(snapshot)
        cache = router.cache.snapshot()
        dropped += cache["invalidated"]
        _assert_drop_counters_add_up(cache)
    assert reads > 400 and carried_hits > 40 and dropped > 15
    assert_nothing_pinned(system)
    assert system.verify_consistency().ok


def test_publish_invalidates_exactly_the_dead_epochs(fresh_system):
    """After maintenance publishes epoch E+1, a read at E+1 *hits* every
    template whose predicate the written row does not satisfy (carried from
    E), and misses — and recomputes the new answer for — the rest."""
    system = fresh_system(n_tuples=300, seed=41)
    rng = random.Random(7)
    templates = [
        (kind, kwargs)
        for kind, kwargs in _templates(system, rng, n=9)
        if not kwargs["predicate"].is_empty()
    ]
    router = QueryRouter.for_system(system)

    first = system.pin_snapshot()
    session = QuerySession.for_snapshot(first)
    before = [
        _routed_answer(router.route(session, RouteRequest(kind, **kwargs)))
        for kind, kwargs in templates
    ]
    apex = RouteRequest("skyline", BooleanPredicate())
    apex_before = _routed_answer(router.route(session, apex))
    assert len(router.cache) == len(templates) + 1

    # Maintenance: the origin point dominates everything in its cells —
    # the first template's among them.
    relation = system.relation
    anchor = next(
        tid
        for tid in relation.live_tids()
        if templates[0][1]["predicate"].matches(relation, tid)
    )
    origin_tid, _ = system.insert(
        relation.bool_row(anchor),
        tuple(0.0 for _ in range(relation.schema.n_preference)),
    )
    second = system.pin_snapshot()
    assert second.epoch > first.epoch

    fresh = QuerySession.for_snapshot(second)
    outcomes = []
    for (kind, kwargs), old in zip(templates, before):
        result = router.route(fresh, RouteRequest(kind, **kwargs))
        answer = _routed_answer(result)
        assert answer == _serial_answer(second, kind, kwargs)
        if kwargs["predicate"].matches(system.relation, origin_tid):
            assert result.stats.cache_outcome == "miss"
            assert answer != old and origin_tid in result.tids
        else:
            assert result.stats.cache_outcome == "hit"  # carried, not flushed
            assert result.stats.cache_computed_epoch == first.epoch
            assert answer == old
        outcomes.append(result.stats.cache_outcome)
    assert {"hit", "miss"} == set(outcomes)
    # The origin point dominates everything, so the apex skyline *must*
    # differ — and the router must serve the new bytes, not the cached old.
    apex_after = router.route(fresh, apex)
    assert apex_after.stats.cache_outcome == "miss"
    assert _routed_answer(apex_after) != apex_before
    # Every surviving entry is keyed by the new epoch; exactly the entries
    # the origin row could change were dropped.
    assert all(key[0] == second.epoch for key in router.cache._entries)
    cache = router.cache.snapshot()
    assert cache["invalidated"] == outcomes.count("miss") + 1
    assert cache["carried"] == outcomes.count("hit")
    assert cache["flushed_unknown"] == 0

    system.unpin_snapshot(first)
    system.unpin_snapshot(second)


def test_threaded_readers_share_cache_under_churn():
    """Readers on pinned snapshots share one router/cache while a writer
    publishes epochs: every answer matches the serial answer for the
    reader's own epoch, and the router's counters reconcile exactly."""
    disk, system = _crashable_system(n_tuples=500, seed=53)
    rng = random.Random(13)
    templates = _templates(system, rng)
    router = QueryRouter.for_system(system)
    errors: list[str] = []
    serial_lock = threading.Lock()
    serial: dict[tuple[int, int], tuple] = {}

    def reader(reader_id: int):
        try:
            for _ in range(6):
                snapshot = system.pin_snapshot()
                try:
                    session = QuerySession.for_snapshot(snapshot)
                    for index, (kind, kwargs) in enumerate(templates):
                        key = (snapshot.epoch, index)
                        with serial_lock:
                            if key not in serial:
                                serial[key] = _serial_answer(
                                    snapshot, kind, kwargs
                                )
                            expected = serial[key]
                        result = router.route(session, RouteRequest(kind, **kwargs))
                        if _routed_answer(result) != expected:
                            errors.append(
                                f"reader {reader_id} query {index} "
                                f"(outcome={result.stats.cache_outcome}) "
                                f"diverged at epoch {snapshot.epoch}"
                            )
                finally:
                    system.unpin_snapshot(snapshot)
        except Exception as exc:  # pragma: no cover - surfaced below
            errors.append(f"reader {reader_id}: {exc!r}")

    def writer():
        try:
            wrng = random.Random(99)
            for _ in range(14):
                _mutate(disk, system, wrng)
        except Exception as exc:  # pragma: no cover
            errors.append(f"writer: {exc!r}")

    threads = [threading.Thread(target=reader, args=(i,)) for i in range(4)]
    threads.append(threading.Thread(target=writer))
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # interleave reconciles, puts and publishes
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120.0)
            assert not thread.is_alive(), "route-cache stress thread hung"
    finally:
        sys.setswitchinterval(interval)

    assert errors == []
    stats = router.stats.snapshot()
    assert stats["routed"] == 4 * 6 * len(templates)
    assert stats["routed"] == stats["cache_hits"] + sum(
        stats["served_by"].values()
    )
    cache = router.cache.snapshot()
    _assert_reconciled(router)
    _assert_drop_counters_add_up(cache)
    # The writer's schedule crashed and recovered under the readers.
    assert system.epochs.stats.abandoned >= 1
    # Quiesced: the system audits clean and pins are all released.
    assert_nothing_pinned(system)
    assert system.verify_consistency().ok
