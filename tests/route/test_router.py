"""QueryRouter unit behaviour: the one chain, pinning, bypass, stats."""

from __future__ import annotations

import random

import pytest

from repro.data.workload import sample_linear_function, sample_predicate
from repro.query.predicates import BooleanPredicate
from repro.query.session import QuerySession
from repro.route import (
    NAIVE,
    SERVING_CHAIN,
    STRATEGY_ORDER,
    QueryRouter,
    RouteRequest,
    RouterStats,
    RoutingPolicy,
    StrategyTimeout,
    StrategyUnsupported,
    chain_for,
)
from repro.serve.executor import QueryExecutor
from repro.serve.resilience import BreakerBoard
from repro.storage.errors import TransientIOError
from repro.system import build_system

pytestmark = pytest.mark.routing


@pytest.fixture
def routed(small_relation):
    system = build_system(small_relation, fanout=8)
    system.enable_epochs()
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


# -- policy validation --------------------------------------------------- #


def test_unknown_forced_strategy_rejected(routed):
    with pytest.raises(ValueError, match="unknown strategy"):
        QueryRouter.for_system(routed, policy=RoutingPolicy(chain=("grep",)))


def test_unknown_forced_chain_member_rejected(routed):
    with pytest.raises(ValueError, match="unknown strategy"):
        QueryRouter.for_system(
            routed, policy=RoutingPolicy(chain=("naive", "bogus"))
        )


# -- chain construction -------------------------------------------------- #


def test_chain_always_ends_with_naive(routed):
    router = QueryRouter.for_system(routed)
    for kind in ("skyline", "topk"):
        chain = chain_for(
            SERVING_CHAIN, _shape(kind), router.ctx, routed.relation
        )
        assert chain == ["signature", "boolean-first", "naive"]
    # No scan engine answers these: the chain is the signature engine.
    for kind in ("dynamic_skyline", "lower_hull"):
        assert chain_for(
            SERVING_CHAIN, _shape(kind), router.ctx, routed.relation
        ) == ["signature"]


def test_forced_chain_is_supports_filtered(routed):
    router = QueryRouter.for_system(
        routed, policy=RoutingPolicy(chain=("index-merge", "naive"))
    )
    # index-merge never serves skylines: filtered out, order preserved.
    pinned = router.policy.chain
    assert chain_for(
        pinned, _shape("skyline"), router.ctx, routed.relation
    ) == ["naive"]
    assert chain_for(
        pinned, _shape("topk"), router.ctx, routed.relation
    ) == ["index-merge", "naive"]
    session = _session(routed)
    served = router.route(session, _shape("skyline"))
    assert served.stats.route == "naive"
    assert served.stats.fallbacks == 0


def test_pinned_engine_that_cannot_serve_the_shape_raises(routed):
    router = QueryRouter.for_system(
        routed, policy=RoutingPolicy(chain=("index-merge",), cache=False)
    )
    with pytest.raises(StrategyUnsupported):
        router.route(_session(routed), _shape("skyline"))


def test_domination_excluded_for_preference_subspace(routed):
    router = QueryRouter.for_system(routed)
    subspace = (routed.relation.schema.preference_dims[0],)
    chain = chain_for(
        STRATEGY_ORDER, _shape("skyline", subspace), router.ctx, routed.relation
    )
    assert "domination-first" not in chain
    assert chain[-1] == NAIVE


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
    """Both modes hand the *same* ``SERVING_CHAIN`` object and the same
    context to the chain runner; fault-free, every routed miss is served by
    ``signature`` and costs exactly what the unrouted read costs — the
    first read after each publish included (no per-epoch statistics work
    hides in the read)."""
    handed = []

    def recording(names, request, ctx, relation):
        handed.append((names, ctx))
        return chain_for(names, request, ctx, relation)

    monkeypatch.setattr("repro.serve.executor.chain_for", recording)
    monkeypatch.setattr("repro.route.router.chain_for", recording)

    rng = random.Random(29)
    schema = routed.relation.schema
    with QueryExecutor(routed, threads=1, routing=True) as cached, (
        QueryExecutor(routed, threads=1)
    ) as plain:
        assert cached.router.ctx is cached._ctx
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
            assert got.stats.route == "signature"
            assert want.stats.route is None
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
    assert view["served_by"] == view["chosen"] == {"signature": misses}
    assert view["cache_misses"] == misses >= 6
    assert view["fell_back"] == 0
    assert len(handed) == reads + misses
    assert all(names is SERVING_CHAIN for names, _ in handed)
    assert {id(ctx) for _, ctx in handed} == {id(cached._ctx), id(plain._ctx)}


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


# -- breaker bypass ------------------------------------------------------ #


def test_open_breaker_bypasses_the_cache(routed):
    breakers = BreakerBoard(threshold=1)
    router = QueryRouter.for_system(routed, breakers=breakers)
    session = _session(routed)
    predicate = _predicate(routed.relation)

    warm = router.route(session, RouteRequest("skyline", predicate))
    assert warm.stats.cache_outcome == "miss"
    assert (
        router.route(session, RouteRequest("skyline", predicate))
        .stats.cache_outcome
        == "hit"
    )

    # Trip a breaker on the predicate's cell: lookups are bypassed, the
    # real path runs, and the answer stays byte-identical.
    cell_id = next(iter(predicate.atomic_cells())).cell_id
    breakers.record_failure(cell_id, 0, epoch=session.epoch)
    bypassed = router.route(session, RouteRequest("skyline", predicate))
    assert bypassed.stats.cache_outcome == "bypass"
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


def test_opaque_ranking_function_bypasses_the_cache(fresh_system):
    """Regression: the key used to digest ``repr(fn)``, and every
    ``MonotoneFunction`` reprs as ``MonotoneFunction(monotone)`` — the
    second query was served the first one's tids as a "hit"."""
    from repro.query.ranking import MonotoneFunction

    system = fresh_system(n_tuples=2000, seed=5)
    by_max = MonotoneFunction(max)
    by_first = MonotoneFunction(lambda point: point[0])
    with QueryExecutor(system, threads=1, routing=True) as executor:
        results = [
            executor.topk(fn, 5).result(60.0)
            for fn in (by_max, by_first, by_max)
        ]
        routing = executor.health()["router"]["routing"]
        cache = executor.health()["router"]["cache"]
    for fn, result in zip((by_max, by_first, by_max), results):
        assert result.stats.cache_outcome == "bypass"
        assert result.tids == system.engine.topk(fn, 5).tids
    assert results[0].tids != results[1].tids
    assert routing["cache_bypassed"] == 3 and routing["cache_hits"] == 0
    assert (cache["stores"], cache["entries"]) == (0, 0)


# -- live sessions ------------------------------------------------------- #


def test_live_sessions_are_never_cached(small_relation):
    system = build_system(small_relation, fanout=8)  # no epochs
    router = QueryRouter.for_system(system)
    session = QuerySession(system.relation, system.rtree, system.pcube)
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
    assert set(view) == {"policy", "routing", "cache"}
    assert view["policy"] == {"cache": True, "chain": None}
    assert view["routing"]["routed"] == 1
    assert view["cache"]["stores"] == 1
    # The cache counts its entries' lifecycle; lookups are the router's.
    assert set(view["cache"]) == {
        "entries", "capacity", "stores", "invalidated", "evicted",
        "carried", "dropped_cell", "dropped_answer", "flushed_unknown",
    }
    assert STRATEGY_ORDER[-1] == NAIVE
