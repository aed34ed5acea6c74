"""QueryRouter unit behaviour: the one chain, cache on / off, bypass, stats."""

from __future__ import annotations

import bisect
import random

import pytest

from repro.cube.relation import Relation, Schema
from repro.data.synthetic import generate_relation
from repro.data.workload import sample_linear_function, sample_predicate
from repro.query.predicates import BooleanPredicate
from repro.query.ranking import LinearFunction
from repro.query.session import QuerySession
from repro.route import (
    NAIVE,
    SERVING_CHAIN,
    QueryRouter,
    RouteRequest,
    RouterStats,
    StrategyTimeout,
    StrategyUnsupported,
    canonicalize,
    chain_for,
    run_chain,
)
from repro.serve.executor import QueryExecutor
from repro.storage.errors import TransientIOError
from repro.system import build_system

pytestmark = pytest.mark.routing


@pytest.fixture
def routed(small_config):
    system = build_system(generate_relation(small_config), fanout=8)
    return system


def _session(system):
    return QuerySession.for_snapshot(system.pin_snapshot())


def _shape(kind, preference_by=None):
    return RouteRequest(kind, BooleanPredicate(), preference_by=preference_by)


def _predicate(relation, n=1):
    dims = relation.schema.boolean_dims[:n]
    return BooleanPredicate(
        {dim: relation.bool_value(0, dim) for dim in dims}
    )


# -- chain construction -------------------------------------------------- #


def _disjunction(relation):
    """Two values of the first boolean dimension, read as their OR."""
    dim = relation.schema.boolean_dims[0]
    first = relation.bool_value(0, dim)
    other = next(
        value
        for value in (relation.bool_value(tid, dim) for tid in relation.tids())
        if value != first
    )
    return [BooleanPredicate({dim: first}), BooleanPredicate({dim: other})]


def test_chain_always_ends_with_naive(routed):
    for kind in ("skyline", "topk"):
        assert chain_for(_shape(kind)) == ("signature", "boolean-first", "naive")
    # No scan engine answers these: the chain is the signature engine.
    for kind in ("dynamic_skyline", "lower_hull"):
        assert chain_for(_shape(kind)) == ("signature",)
    dnf = _disjunction(routed.relation)
    for kind in ("skyline", "topk"):
        assert chain_for(RouteRequest(kind, dnf)) == ("signature",)


def test_pinned_engine_that_cannot_serve_the_shape_raises(routed):
    """A one-engine chain handed to ``run_chain``: the adapter's own
    support check is the only one, and nothing else serves."""
    router = QueryRouter.for_system(routed, cache=False)
    with pytest.raises(StrategyUnsupported):
        run_chain(
            ("index-merge",), _session(routed), _shape("skyline"), router.ctx
        )


def test_domination_excluded_for_preference_subspace(routed):
    router = QueryRouter.for_system(routed, cache=False)
    subspace = (routed.relation.schema.preference_dims[0],)
    result, failures = run_chain(
        ("domination-first", NAIVE),
        _session(routed),
        _shape("skyline", subspace),
        router.ctx,
    )
    assert [name for name, _ in failures] == ["domination-first"]
    assert isinstance(failures[0][1], StrategyUnsupported)
    assert result.stats.tier == NAIVE


# -- one chain, no per-epoch work ---------------------------------------- #


def _stream(relation, rng, n):
    """Seeded skylines / top-k over one- and two-conjunct predicates."""
    for index in range(n):
        predicate = sample_predicate(relation, 1 + index % 2, rng)
        if index % 3 == 1:
            fn = sample_linear_function(relation.schema.n_preference, rng)
            yield "topk", {"fn": fn, "k": 5, "predicate": predicate}
        else:
            yield "skyline", {"predicate": predicate}


def test_routed_and_unrouted_run_the_same_chain(routed, monkeypatch):
    """Cache on or off, every skyline / top-k goes through the executor's
    router, which hands the *same* ``SERVING_CHAIN`` object and its own
    context to the chain runner; fault-free, every miss is served by
    ``signature`` and costs exactly what the cache-off read costs — the
    first read after each publish included (no per-epoch statistics work
    hides in the read)."""
    handed = []

    def recording(chain, session, request, ctx):
        handed.append((chain, ctx))
        return run_chain(chain, session, request, ctx)

    monkeypatch.setattr("repro.route.router.run_chain", recording)

    rng = random.Random(29)
    schema = routed.relation.schema
    with QueryExecutor(routed, threads=1, routing=True) as cached, (
        QueryExecutor(routed, threads=1)
    ) as plain:
        assert plain.router.cache is None
        reads = misses = 0
        for kind, kwargs in _stream(routed.relation, rng, 18):
            published = reads % 6 in (3, 5)
            if reads % 6 == 3:
                routed.insert(
                    tuple(
                        routed.relation.bool_value(0, dim)
                        for dim in schema.boolean_dims
                    ),
                    tuple(rng.random() for _ in schema.preference_dims),
                )
            elif reads % 6 == 5:
                routed.delete(reads)
            got = getattr(cached, kind)(**kwargs).result(timeout=30.0)
            want = getattr(plain, kind)(**kwargs).result(timeout=30.0)
            reads += 1
            assert got.stats.route == want.stats.route == "signature"
            assert want.stats.cache_outcome is None
            assert got.stats.epoch == want.stats.epoch
            assert sorted(got.tids) == sorted(want.tids)
            if got.stats.cache_outcome == "hit":
                assert not published
                continue
            misses += 1
            assert got.stats.fallbacks == want.stats.fallbacks == 0
            assert (
                got.stats.counters.snapshot()
                == want.stats.counters.snapshot()
            )
            assert (
                got.stats.pool_hits + got.stats.pool_misses
                == want.stats.pool_hits + want.stats.pool_misses
            )
        view = cached.router.stats.snapshot()
        plain_view = plain.router.stats.snapshot()
    assert view["served_by"] == {"signature": misses}
    assert view["cache_misses"] == misses >= 6
    assert view["fell_back"] == 0
    # Cache off: every read is routed and counted, and none is looked up.
    assert plain_view["routed"] == reads
    assert plain_view["served_by"] == {"signature": reads}
    assert plain_view["cache_hits"] == plain_view["cache_misses"] == 0
    assert plain_view["cache_bypassed"] == 0
    assert len(handed) == reads + misses
    assert all(chain is SERVING_CHAIN for chain, _ in handed)
    assert {id(ctx) for _, ctx in handed} == {
        id(cached.router.ctx),
        id(plain.router.ctx),
    }


def test_cache_off_executor_still_has_a_router(routed):
    with QueryExecutor(routed, threads=1) as executor:
        assert isinstance(executor.router, QueryRouter)
        assert executor.router.cache is None
        assert executor.health()["router"] == executor.router.snapshot()


@pytest.mark.parametrize("routing", [False, True])
def test_disjunction_is_answered_cache_on_and_off(routed, routing):
    """A DNF skyline / top-k through the executor equals the session's
    answer: with the cache off in Algorithm 1's order, with it on in
    canonical order, bypassing the cache (a disjunction has no key)."""
    dnf = _disjunction(routed.relation)
    fn = sample_linear_function(
        routed.relation.schema.n_preference, random.Random(3)
    )
    expected = [routed.engine.skyline(dnf), routed.engine.topk(fn, 5, dnf)]
    with QueryExecutor(routed, threads=1, routing=routing) as executor:
        got = [
            executor.skyline(dnf).result(timeout=30.0),
            executor.topk(fn, 5, dnf).result(timeout=30.0),
        ]
        view = executor.router.stats.snapshot()
        assert executor.stats.snapshot()["submitted"] == 2
    for result, want in zip(got, expected):
        if routing:
            canonicalize(want)
        assert (result.tids, result.scores) == (want.tids, want.scores)
        assert result.stats.route == "signature"
        assert result.stats.cache_outcome == ("bypass" if routing else None)
    assert view["routed"] == 2
    assert view["cache_bypassed"] == (2 if routing else 0)
    assert view["cache_hits"] == view["cache_misses"] == 0


# -- statistics ---------------------------------------------------------- #


def test_router_stats_error_classification():
    stats = RouterStats()
    chain = ["signature", "domination-first", "naive"]
    stats.note_served(
        chain,
        "naive",
        [
            ("signature", StrategyUnsupported("signature", "test")),
            ("domination-first", TransientIOError(3, "rtree")),
        ],
        "miss",
    )
    stats.note_served(chain, "signature", [], "miss")
    stats.bump(routed=1, cache_hits=1)  # what a hit is
    view = stats.snapshot()
    assert view["routed"] == 3
    assert view["fell_back"] == 1
    assert view["unsupported"] == 1
    assert view["strategy_faults"] == 1
    assert view["strategy_timeouts"] == 0
    assert view["fallback_edges"] == {
        "signature->domination-first": 1,
        "domination-first->naive": 1,
    }
    assert view["routed"] == view["cache_hits"] + sum(
        view["served_by"].values()
    )


def test_router_stats_timeout_classification():
    stats = RouterStats()
    stats.note_served(
        ["signature", "naive"],
        "naive",
        [("signature", StrategyTimeout("signature"))],
        None,
    )
    assert stats.snapshot()["strategy_timeouts"] == 1


# -- quarantine bypass --------------------------------------------------- #


def test_a_quarantined_cell_bypasses_the_cache(routed):
    router = QueryRouter.for_system(routed)
    session = _session(routed)
    predicate = _predicate(routed.relation)

    warm = router.route(session, RouteRequest("skyline", predicate))
    assert warm.stats.cache_outcome == "miss"
    assert (
        router.route(session, RouteRequest("skyline", predicate))
        .stats.cache_outcome
        == "hit"
    )

    # Quarantine the predicate's cell: lookups are bypassed, the degraded
    # path runs without reading the cell's pages, and the answer stays
    # byte-identical.
    (cell,) = predicate.atomic_cells()
    routed.pcube.store.quarantine(cell, "test")
    bypassed = router.route(session, RouteRequest("skyline", predicate))
    assert bypassed.stats.cache_outcome == "bypass"
    assert bypassed.stats.tier == "conservative"
    assert bypassed.stats.quarantine_skips >= 1
    assert bypassed.stats.sig_loads == 0
    assert bypassed.tids == warm.tids
    assert router.stats.snapshot()["cache_bypassed"] == 1

    # Unrelated predicates still enjoy the cache.
    other = BooleanPredicate()
    router.route(session, RouteRequest("skyline", other))
    assert (
        router.route(session, RouteRequest("skyline", other))
        .stats.cache_outcome
        == "hit"
    )

    # A re-store lifts the quarantine and publishes: the cache serves the
    # cell again.
    assert routed.repair_quarantined() == [cell]
    healed = _session(routed)
    first = router.route(healed, RouteRequest("skyline", predicate))
    assert first.stats.cache_outcome == "miss"
    assert first.stats.tier == "signature"
    assert first.tids == warm.tids
    assert (
        router.route(healed, RouteRequest("skyline", predicate))
        .stats.cache_outcome
        == "hit"
    )


# -- sessions without an epoch ------------------------------------------- #


def test_sessions_without_an_epoch_are_never_cached(small_config):
    system = build_system(generate_relation(small_config), fanout=8)
    router = QueryRouter.for_system(system)
    snapshot = system.epochs.current
    session = QuerySession(snapshot.relation, snapshot.rtree, snapshot.pcube)
    predicate = _predicate(system.relation)
    first = router.route(session, RouteRequest("skyline", predicate))
    second = router.route(session, RouteRequest("skyline", predicate))
    assert first.stats.cache_outcome is None
    assert second.stats.cache_outcome is None
    assert len(router.cache) == 0
    assert first.tids == second.tids


# -- snapshot shape ------------------------------------------------------ #


def test_snapshot_structure(routed):
    router = QueryRouter.for_system(routed)
    session = _session(routed)
    request = RouteRequest("skyline", _predicate(routed.relation))
    router.route(session, request)
    view = router.snapshot()
    assert set(view) == {"routing", "cache"}
    assert view["routing"]["routed"] == 1
    assert view["cache"]["stores"] == 1
    # The cache counts its entries' lifecycle; lookups are the router's.
    assert set(view["cache"]) == {
        "entries", "capacity", "stores", "invalidated", "evicted",
        "carried", "dropped_cell", "dropped_answer", "flushed_unknown",
    }
    off = QueryRouter.for_system(routed, cache=False)
    off.route(session, request)
    assert off.snapshot() == {
        "routing": {**view["routing"], "cache_misses": 0},
        "cache": None,
    }


# -- canonical order ----------------------------------------------------- #


def test_cached_topk_with_tied_scores_is_in_score_tid_order():
    """Algorithm 1 does not break score ties by tid; with the cache on the
    router's answer must, so a hit and a computed answer are the same
    bytes.  Preference points on a 5-step grid make ties plentiful; ``k``
    ends a tie group, so every engine returns the same members."""
    rng = random.Random(0)
    relation = Relation(
        Schema(("A", "B"), ("X", "Y")),
        [(rng.randrange(3), rng.randrange(3)) for _ in range(400)],
        [(float(rng.randrange(5)), float(rng.randrange(5))) for _ in range(400)],
    )
    system = build_system(relation, fanout=6)
    router = QueryRouter.for_system(system)
    session = _session(system)
    for weights in ((1.0, 1.0), (1.0, 2.0), (2.0, 1.0)):
        fn = LinearFunction(weights)
        scores = sorted(fn.score(point) for _, point in relation.pref_points())
        k = bisect.bisect_right(scores, scores[19])
        request = RouteRequest("topk", BooleanPredicate(), fn=fn, k=k)
        engine = system.engine.topk(request.fn, request.k)
        assert list(zip(engine.scores, engine.tids)) != sorted(
            zip(engine.scores, engine.tids)
        ), "the fixture must produce an out-of-order tie"
        result = router.route(session, request)
        pairs = list(zip(result.scores, result.tids))
        assert pairs == sorted(pairs)
        scan, _ = run_chain(("boolean-first",), session, request, router.ctx)
        canonicalize(scan)
        assert (result.tids, result.scores) == (scan.tids, scan.scores)
