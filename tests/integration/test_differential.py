"""Differential oracle: random relations × random predicates, every method.

Hypothesis generates both the relation *and* the predicate (including
predicates selecting empty subsets, all-duplicate point sets, single-tuple
relations), runs the same query through the signature engine and through
every baseline — naive, boolean-first, domination-first / ranking, and
index-merge — and requires identical answers.  On failure, hypothesis
shrinks to the minimal relation/predicate pair that still disagrees, which
is the debugging artifact this suite exists to produce.

This complements ``test_equivalence.py``: that file sweeps realistic
seeded configurations with sampled (always-satisfiable) predicates; this
one lets the fuzzer pick adversarial inputs, predicates that match
nothing included.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.baselines.boolean_first import (
    boolean_first_skyline,
    boolean_first_topk,
    build_boolean_indexes,
)
from repro.baselines.domination_first import (
    domination_first_skyline,
    ranking_topk,
)
from repro.baselines.index_merge import index_merge_topk
from repro.baselines.naive import naive_skyline, naive_topk
from repro.cube.relation import Relation
from repro.cube.schema import Schema
from repro.query.predicates import BooleanPredicate
from repro.query.ranking import LinearFunction
from repro.route import RouteRequest
from repro.system import build_system

DIFFERENTIAL_SETTINGS = settings(
    max_examples=30,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

#: (A, B, X, Y) rows: two boolean dims of cardinality ≤ 4, an 9×9 grid of
#: preference points (deliberately collision-heavy so duplicate points and
#: fully-dominated leaves are common).
rows_strategy = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=3),
        st.integers(min_value=0, max_value=3),
        st.integers(min_value=0, max_value=8),
        st.integers(min_value=0, max_value=8),
    ),
    min_size=1,
    max_size=48,
)

#: 1-2 conjuncts whose values may not occur in the relation at all — the
#: empty-subset path every method must agree on.
predicate_strategy = st.dictionaries(
    keys=st.sampled_from(("A", "B")),
    values=st.integers(min_value=0, max_value=3),
    min_size=1,
    max_size=2,
)


def make_relation(rows) -> Relation:
    schema = Schema(("A", "B"), ("X", "Y"))
    return Relation(
        schema,
        [(a, b) for a, b, _, _ in rows],
        [(x / 8.0, y / 8.0) for _, _, x, y in rows],
    )


def qualifying_points(relation: Relation, predicate: BooleanPredicate):
    return [
        (tid, relation.pref_point(tid))
        for tid in relation.tids()
        if predicate.matches(relation, tid)
    ]


@DIFFERENTIAL_SETTINGS
@given(rows=rows_strategy, conjuncts=predicate_strategy)
def test_differential_skyline(rows, conjuncts):
    """Signature skyline ≡ naive ≡ boolean-first ≡ domination-first."""
    relation = make_relation(rows)
    system = build_system(relation, fanout=4)
    predicate = BooleanPredicate(conjuncts)

    expected = sorted(naive_skyline(qualifying_points(relation, predicate)))
    sig_tids = system.engine.skyline(predicate).tids
    bool_tids, _ = boolean_first_skyline(
        system.engine.relation, build_boolean_indexes(relation), predicate
    )
    dom_tids, _, _ = domination_first_skyline(
        system.engine.relation, system.engine.rtree, predicate
    )
    assert sorted(sig_tids) == expected
    assert sorted(bool_tids) == expected
    assert sorted(dom_tids) == expected


@DIFFERENTIAL_SETTINGS
@given(
    rows=rows_strategy,
    conjuncts=predicate_strategy,
    weights=st.tuples(
        st.floats(min_value=0.05, max_value=3.0),
        st.floats(min_value=0.05, max_value=3.0),
    ),
    k=st.integers(min_value=1, max_value=15),
)
def test_differential_topk(rows, conjuncts, weights, k):
    """Signature top-k ≡ naive ≡ boolean-first ≡ ranking ≡ index-merge,
    the two index baselines over B+-trees built here (a served system
    keeps none).

    Score lists are compared (rounded to 1e-9) rather than tid lists:
    the collision-heavy grid produces score ties whose tie-break order is
    legitimately method-specific.
    """
    relation = make_relation(rows)
    system = build_system(relation, fanout=4)
    indexes = build_boolean_indexes(relation)
    predicate = BooleanPredicate(conjuncts)
    fn = LinearFunction(weights)

    expected = [
        round(score, 9)
        for _, score in naive_topk(
            qualifying_points(relation, predicate), fn, k
        )
    ]
    sig = system.engine.topk(fn, k, predicate)
    ranked_sig = list(zip(sig.tids, sig.scores))
    ranked_bool, _ = boolean_first_topk(
        system.engine.relation, indexes, fn, k, predicate
    )
    ranked_rank, _, _ = ranking_topk(
        system.engine.relation, system.engine.rtree, fn, k, predicate
    )
    ranked_merge, _ = index_merge_topk(
        system.engine.rtree, indexes, fn, k, predicate
    )
    for name, ranked in (
        ("signature", ranked_sig),
        ("boolean_first", ranked_bool),
        ("ranking", ranked_rank),
        ("index_merge", ranked_merge),
    ):
        scores = [round(score, 9) for _, score in ranked]
        assert scores == expected, f"{name} disagrees with naive"


@DIFFERENTIAL_SETTINGS
@given(rows=rows_strategy, conjuncts=predicate_strategy)
def test_differential_skyline_members_qualify(rows, conjuncts):
    """Every reported skyline member satisfies the predicate (no method
    may leak a tuple from outside the selected subset)."""
    relation = make_relation(rows)
    system = build_system(relation, fanout=4)
    predicate = BooleanPredicate(conjuncts)
    sig_tids = system.engine.skyline(predicate).tids
    assert all(predicate.matches(relation, tid) for tid in sig_tids)


# --------------------------------------------------------------------- #
# router mode: the same oracle through the adaptive router
# --------------------------------------------------------------------- #


def _routed_session(system):
    from repro.query.session import QuerySession

    snapshot = system.pin_snapshot()
    return QuerySession.for_snapshot(snapshot)


def _expected_skyline(relation, predicate):
    return sorted(naive_skyline(qualifying_points(relation, predicate)))


@pytest.mark.routing
@DIFFERENTIAL_SETTINGS
@given(rows=rows_strategy, conjuncts=predicate_strategy)
def test_differential_router_forced_strategies(rows, conjuncts):
    """Byte-identical to naive for every engine that answers, skyline +
    top-k.  (Index-merge refuses every request on a served system;
    :func:`test_differential_topk` checks ``index_merge_topk`` directly.)

    Each engine runs as a one-engine chain through ``run_chain``, and its
    answer is canonicalised (skyline tids ascending, top-k sorted by
    ``(score, tid)``), so the comparison here is exact equality on the
    canonical bytes — sorted naive tids for skylines, rounded sorted
    scores for top-k (tie membership at the k boundary is legitimately
    engine-specific, per this suite's convention).
    """
    from repro.route import ENGINES, INDEX_MERGE, canonicalize, run_chain

    relation = make_relation(rows)
    system = build_system(relation, fanout=4)
    predicate = BooleanPredicate(conjuncts)
    session = _routed_session(system)
    fn = LinearFunction((1.0, 0.7))
    k = 5

    expected_sky = _expected_skyline(relation, predicate)
    expected_scores = [
        round(score, 9)
        for _, score in naive_topk(
            qualifying_points(relation, predicate), fn, k
        )
    ]

    def answer(name, request):
        return canonicalize(run_chain((name,), session, request)[0])

    for name in (name for name in ENGINES if name != INDEX_MERGE):
        result = answer(name, RouteRequest("skyline", predicate))
        assert result.tids == expected_sky, name
        assert result.stats.tier == name
        result = answer(name, RouteRequest("topk", predicate, fn=fn, k=k))
        scores = [round(score, 9) for score in result.scores]
        assert sorted(scores) == sorted(expected_scores), name
        assert result.stats.tier == name


@pytest.mark.routing
@DIFFERENTIAL_SETTINGS
@given(rows=rows_strategy, conjuncts=predicate_strategy)
def test_differential_router_forced_fallback(rows, conjuncts):
    """A chain whose head cannot serve still answers byte-identically.

    ``index-merge`` answers nothing on a served system, so the adapter raises
    ``StrategyUnsupported`` and the chain degrades to naive — the answer
    must not change, and the fallback must be visible in the stats.
    """
    from repro.route import run_chain

    relation = make_relation(rows)
    system = build_system(relation, fanout=4)
    predicate = BooleanPredicate(conjuncts)
    session = _routed_session(system)
    expected = _expected_skyline(relation, predicate)

    request = RouteRequest(kind="skyline", predicate=predicate)
    result, failures = run_chain(["index-merge", "naive"], session, request)
    assert [name for name, _ in failures] == ["index-merge"]
    assert result.stats.tier == "naive"
    assert result.stats.fallbacks == 1
    assert sorted(result.tids) == expected


@pytest.mark.routing
@DIFFERENTIAL_SETTINGS
@given(rows=rows_strategy, conjuncts=predicate_strategy)
def test_differential_router_cache_warm_equals_cold(rows, conjuncts):
    """A cache-warm replay returns the same bytes as the cold run, and
    the adaptive cold run matches naive in the first place."""
    from repro.route import QueryRouter

    relation = make_relation(rows)
    system = build_system(relation, fanout=4)
    predicate = BooleanPredicate(conjuncts)
    session = _routed_session(system)
    expected = _expected_skyline(relation, predicate)

    router = QueryRouter.for_system(system)
    cold = router.route(session, RouteRequest("skyline", predicate))
    assert cold.stats.cache_outcome == "miss"
    assert cold.tids == expected
    warm = router.route(session, RouteRequest("skyline", predicate))
    assert warm.stats.cache_outcome == "hit"
    assert warm.tids == cold.tids
    assert warm.stats.route == cold.stats.route

    fn = LinearFunction((0.5, 1.5))
    topk = RouteRequest("topk", predicate, fn=fn, k=4)
    cold_topk = router.route(session, topk)
    warm_topk = router.route(session, topk)
    assert warm_topk.stats.cache_outcome == "hit"
    assert warm_topk.tids == cold_topk.tids
    assert warm_topk.scores == cold_topk.scores


@pytest.mark.routing
@DIFFERENTIAL_SETTINGS
@given(rows=rows_strategy)
def test_differential_router_empty_predicate(rows):
    """The apex query (``BP = φ``) routes, caches and matches naive."""
    from repro.route import QueryRouter

    relation = make_relation(rows)
    system = build_system(relation, fanout=4)
    predicate = BooleanPredicate()
    session = _routed_session(system)
    expected = _expected_skyline(relation, predicate)

    router = QueryRouter.for_system(system)
    cold = router.route(session, RouteRequest("skyline", predicate))
    assert cold.tids == expected
    warm = router.route(session, RouteRequest("skyline", predicate))
    assert warm.stats.cache_outcome == "hit"
    assert warm.tids == expected


@pytest.mark.routing
@DIFFERENTIAL_SETTINGS
@given(rows=rows_strategy)
def test_differential_router_all_boolean_dims_constrained(rows):
    """A predicate constraining every boolean dimension (the finest cell)
    agrees with naive through the adaptive router."""
    from repro.route import QueryRouter

    relation = make_relation(rows)
    system = build_system(relation, fanout=4)
    # Anchor at row 0 so the fully-constrained predicate is satisfiable.
    predicate = BooleanPredicate(
        {
            "A": relation.bool_value(0, "A"),
            "B": relation.bool_value(0, "B"),
        }
    )
    session = _routed_session(system)
    expected = _expected_skyline(relation, predicate)
    router = QueryRouter.for_system(system)
    result = router.route(session, RouteRequest("skyline", predicate))
    assert result.tids == expected
