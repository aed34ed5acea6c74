"""Cross-method equivalence: every method, every configuration, one truth.

The strongest correctness statement the reproduction can make: on random
relations, the Signature method, all three baselines and the naive reference
return the same answers for the same queries.
"""

import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.baselines.boolean_first import (
    boolean_first_skyline,
    boolean_first_topk,
    build_boolean_indexes,
)
from repro.baselines.domination_first import domination_first_skyline, ranking_topk
from repro.baselines.index_merge import index_merge_topk
from repro.baselines.naive import naive_skyline, naive_topk
from repro.cube.relation import Relation
from repro.cube.schema import Schema
from repro.data.synthetic import SyntheticConfig, generate_relation
from repro.data.workload import sample_linear_function, sample_predicate
from repro.query.dynamic import naive_dynamic_skyline
from repro.query.predicates import BooleanPredicate
from repro.query.ranking import WeightedSquaredDistance
from repro.query.session import QuerySession
from repro.route.engines import canonicalize
from repro.serve.executor import QueryExecutor
from repro.system import build_system
from tests.reference import matches_dnf, naive_lower_hull


def qualifying_points(relation, predicate):
    return [
        (tid, relation.pref_point(tid))
        for tid in relation.tids()
        if predicate.matches(relation, tid)
    ]


def _facts(tids, scores, stats):
    counts = (
        stats.peak_heap, stats.results, stats.degraded, stats.fault_retries,
        stats.failed_loads, stats.degraded_checks, stats.quarantine_skips,
    )
    return list(tids), scores, counts, stats.counters.snapshot()


def _answer(result):
    result = canonicalize(result)
    return result.tids, result.scores


def assert_surfaces_agree(system, predicate, disjuncts, fn):
    """One read path: for every signature-method kind, ``system.engine``,
    a pinned snapshot's session and the cache-off executor return the same
    lists with the same accounting on cold pools — and the cache-on
    executor the same answer in canonical order.  Returns the answers."""
    relation = system.relation
    dims = relation.schema.n_preference
    names = relation.schema.preference_dims
    subspace = (names[0], names[-1])
    wsd = WeightedSquaredDistance([0.4] * dims, [1.0 + d for d in range(dims)])
    point = [0.35] * dims

    # kind -> (session method name, its arguments)
    kinds = {
        "skyline": ("skyline", (predicate,), {}),
        "subspace": ("skyline", (predicate,), {"preference_by": subspace}),
        "topk-linear": ("topk", (fn, 10, predicate), {}),
        "topk-wsd": ("topk", (wsd, 10, predicate), {}),
        "dynamic": ("dynamic_skyline", (point, predicate), {}),
        "dnf": ("skyline", (disjuncts,), {}),
    }
    if dims == 2:
        kinds["hull"] = ("lower_hull", (predicate,), {})

    answers = {}
    snapshot = system.pin_snapshot()
    try:
        for name, (method, args, kwargs) in kinds.items():

            def run(session):
                return getattr(session, method)(*args, **kwargs)

            def served(routing):
                with QueryExecutor(system, threads=1, routing=routing) as ex:
                    return getattr(ex, method)(*args, **kwargs).result(
                        timeout=30.0
                    )

            reference = run(system.engine)
            want = _facts(reference.tids, reference.scores, reference.stats)
            for surface, result in (
                ("snapshot", run(QuerySession.for_snapshot(snapshot))),
                ("executor", served(False)),
            ):
                got = _facts(result.tids, result.scores, result.stats)
                assert got == want, (name, surface)
                # The executor's router stamps every skyline and top-k.
                routed = surface == "executor" and method in ("skyline", "topk")
                assert result.stats.route == ("signature" if routed else None)
            assert _answer(served(True)) == _answer(reference), name
            answers[name] = want[0]
    finally:
        system.unpin_snapshot(snapshot)
    return answers


@pytest.mark.parametrize(
    "distribution,n_preference,fanout",
    [
        ("uniform", 2, 6),
        ("uniform", 3, 8),
        ("correlated", 2, 6),
        ("anticorrelated", 2, 10),
        ("clustered", 3, 6),
        ("uniform", 4, 16),
    ],
)
def test_all_methods_agree(distribution, n_preference, fanout):
    config = SyntheticConfig(
        n_tuples=800,
        n_boolean=3,
        cardinality=6,
        n_preference=n_preference,
        distribution=distribution,
        seed=hash((distribution, n_preference)) % 2**31,
    )
    relation = generate_relation(config)
    system = build_system(relation, fanout=fanout)
    indexes = build_boolean_indexes(relation)  # the baselines' own trees
    rng = random.Random(99)

    for n_conjuncts in (0, 1, 2):
        predicate = (
            sample_predicate(relation, n_conjuncts, rng)
            if n_conjuncts
            else BooleanPredicate()
        )
        truth = qualifying_points(relation, predicate)
        expected_sky = sorted(naive_skyline(truth))

        sig_tids = system.engine.skyline(predicate).tids
        assert sorted(sig_tids) == expected_sky

        bool_tids, _ = boolean_first_skyline(
            system.engine.relation, indexes, predicate
        )
        assert sorted(bool_tids) == expected_sky

        dom_tids, _, _ = domination_first_skyline(
            system.engine.relation, system.engine.rtree, predicate
        )
        assert sorted(dom_tids) == expected_sky

        fn = sample_linear_function(n_preference, rng)
        expected_topk = [
            round(s, 9) for _, s in naive_topk(truth, fn, 10)
        ]
        for method_scores in (
            system.engine.topk(fn, 10, predicate).scores,
            [s for _, s in boolean_first_topk(
                system.engine.relation, indexes, fn, 10, predicate
            )[0]],
            [s for _, s in ranking_topk(
                system.engine.relation, system.engine.rtree, fn, 10, predicate
            )[0]],
            [s for _, s in index_merge_topk(
                system.engine.rtree, indexes, fn, 10, predicate
            )[0]],
        ):
            assert [round(s, 9) for s in method_scores] == expected_topk

        # Every surface of the one read path against the same ground truth.
        disjuncts = [
            sample_predicate(relation, 1, rng),
            sample_predicate(relation, 2, rng),
        ]
        union = [
            (tid, relation.pref_point(tid))
            for tid in relation.tids()
            if matches_dnf(relation, disjuncts, tid)
        ]
        answers = assert_surfaces_agree(system, predicate, disjuncts, fn)
        assert sorted(answers["skyline"]) == expected_sky
        assert sorted(answers["dnf"]) == sorted(naive_skyline(union))
        assert sorted(answers["dynamic"]) == sorted(
            naive_dynamic_skyline(truth, [0.35] * n_preference)
        )
        if n_preference == 2:
            assert answers["hull"] == naive_lower_hull(truth)


@settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    rows=st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=2),
            st.integers(min_value=0, max_value=2),
            st.integers(min_value=0, max_value=7),
            st.integers(min_value=0, max_value=7),
        ),
        min_size=1,
        max_size=60,
    ),
    pred_a=st.integers(min_value=0, max_value=2),
    use_two=st.booleans(),
    pred_b=st.integers(min_value=0, max_value=2),
)
def test_signature_skyline_property(rows, pred_a, use_two, pred_b):
    """Tiny adversarial relations (heavy duplicate points, tiny fanout,
    deep trees) — signature skyline must equal the naive skyline."""
    schema = Schema(("A", "B"), ("X", "Y"))
    bool_rows = [(a, b) for a, b, _, _ in rows]
    pref_rows = [(x / 7.0, y / 7.0) for _, _, x, y in rows]
    relation = Relation(schema, bool_rows, pref_rows)
    system = build_system(relation, fanout=4)
    conjuncts = {"A": pred_a}
    if use_two:
        conjuncts["B"] = pred_b
    predicate = BooleanPredicate(conjuncts)
    tids = system.engine.skyline(predicate).tids
    assert sorted(tids) == sorted(
        naive_skyline(qualifying_points(relation, predicate))
    )


@settings(
    max_examples=20,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    rows=st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=2),
            st.integers(min_value=0, max_value=9),
            st.integers(min_value=0, max_value=9),
        ),
        min_size=1,
        max_size=50,
    ),
    weights=st.tuples(
        st.floats(min_value=0.1, max_value=2.0),
        st.floats(min_value=0.1, max_value=2.0),
    ),
    k=st.integers(min_value=1, max_value=12),
    value=st.integers(min_value=0, max_value=2),
)
def test_signature_topk_property(rows, weights, k, value):
    from repro.query.ranking import LinearFunction

    schema = Schema(("A",), ("X", "Y"))
    bool_rows = [(a,) for a, _, _ in rows]
    pref_rows = [(x / 9.0, y / 9.0) for _, x, y in rows]
    relation = Relation(schema, bool_rows, pref_rows)
    system = build_system(relation, fanout=4)
    predicate = BooleanPredicate({"A": value})
    fn = LinearFunction(weights)
    scores = system.engine.topk(fn, k, predicate).scores
    expected = naive_topk(qualifying_points(relation, predicate), fn, k)
    assert [round(s, 9) for s in scores] == [
        round(s, 9) for _, s in expected
    ]
