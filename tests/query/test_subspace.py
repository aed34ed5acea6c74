"""Subspace skylines: ``preference by N'1, ..., N'j`` (Section III)."""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.baselines.naive import naive_skyline
from repro.cube.relation import Relation
from repro.cube.schema import Schema
from repro.data.workload import sample_predicate
from repro.query.algorithm1 import SkylineStrategy
from repro.query.predicates import BooleanPredicate
from repro.system import build_system


def naive_subspace_skyline(points, positions):
    projected = [
        (tid, tuple(point[d] for d in positions)) for tid, point in points
    ]
    return naive_skyline(projected)


def truth_points(system, predicate):
    relation = system.relation
    return [
        (tid, relation.pref_point(tid))
        for tid in relation.tids()
        if predicate.matches(relation, tid)
    ]


def test_strategy_validation():
    with pytest.raises(ValueError):
        SkylineStrategy(3, subspace=())
    with pytest.raises(ValueError):
        SkylineStrategy(3, subspace=(0, 0))
    with pytest.raises(ValueError):
        SkylineStrategy(3, subspace=(3,))


def test_full_subspace_equals_default(small_system, rng):
    predicate = sample_predicate(small_system.relation, 1, rng)
    default = small_system.engine.skyline(predicate)
    full = small_system.engine.skyline(
        predicate, preference_by=small_system.relation.schema.preference_dims
    )
    assert set(default.tids) == set(full.tids)


@pytest.mark.parametrize("names", [("N1",), ("N2",), ("N1", "N2")])
def test_subspace_matches_naive(small_system, rng, names):
    predicate = sample_predicate(small_system.relation, 1, rng)
    positions = tuple(
        small_system.relation.schema.preference_position(n) for n in names
    )
    tids = small_system.engine.skyline(predicate, preference_by=names).tids
    expected = set(
        naive_subspace_skyline(truth_points(small_system, predicate), positions)
    )
    assert set(tids) == expected


def test_engine_subspace_and_drill_down(small_system, rng):
    predicate = sample_predicate(small_system.relation, 1, rng)
    result = small_system.engine.skyline(predicate, preference_by=("N2",))
    assert result.preference_by == ("N2",)
    positions = (small_system.relation.schema.preference_position("N2"),)
    assert set(result.tids) == set(
        naive_subspace_skyline(truth_points(small_system, predicate), positions)
    )
    # The subspace carries through incremental navigation.
    dim = next(
        d
        for d in small_system.relation.schema.boolean_dims
        if d not in predicate.dims()
    )
    anchor = next(
        t
        for t in small_system.relation.tids()
        if predicate.matches(small_system.relation, t)
    )
    drilled = small_system.engine.drill_down(
        result, dim, small_system.relation.bool_value(anchor, dim)
    )
    new_pred = predicate.drill_down(
        dim, small_system.relation.bool_value(anchor, dim)
    )
    assert set(drilled.tids) == set(
        naive_subspace_skyline(truth_points(small_system, new_pred), positions)
    )


def test_unknown_preference_dim_rejected(small_system):
    with pytest.raises(KeyError):
        small_system.engine.skyline(preference_by=("nope",))


@settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    raw=st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=3),
            st.integers(min_value=0, max_value=5),
            st.integers(min_value=0, max_value=5),
            st.integers(min_value=0, max_value=5),
        ),
        min_size=1,
        max_size=40,
    ),
    subspace=st.sampled_from([(0,), (1,), (2,), (0, 1), (0, 2), (1, 2)]),
)
def test_subspace_property(raw, subspace):
    schema = Schema(("A",), ("N1", "N2", "N3"))
    bool_rows = [(a,) for a, *_ in raw]
    pref_rows = [(x / 5.0, y / 5.0, z / 5.0) for _, x, y, z in raw]
    relation = Relation(schema, bool_rows, pref_rows)
    system = build_system(relation, fanout=4)
    predicate = BooleanPredicate({"A": raw[0][0]})
    names = tuple(schema.preference_dims[d] for d in subspace)
    tids = system.engine.skyline(predicate, preference_by=names).tids
    qualifying = [
        (tid, relation.pref_point(tid))
        for tid in relation.tids()
        if predicate.matches(relation, tid)
    ]
    assert set(tids) == set(naive_subspace_skyline(qualifying, subspace))


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_subspace_skylines_grow_with_the_subspace(seed):
    """Under distinct values (no two tuples share a value on any preference
    dimension) a skyline can only grow with its subspace: for U ⊆ V, a
    point dominated on V is beaten strictly on every dimension of V, so on
    U too — hence ``skyline(U, P) ⊆ skyline(V, P)``.  Every served answer
    also equals the naive one, for 0, 1 and 2 conjuncts, on a deep tree
    whose expansions hand the domination kernel a projected subset of a
    block (the children whose held signature bit is set)."""
    import itertools
    import random

    rng = random.Random(seed)
    n, dims = 240, 4
    schema = Schema(("A", "B", "C"), ("N1", "N2", "N3", "N4"))
    columns = [rng.sample(range(n), n) for _ in range(dims)]
    pref_rows = [tuple(column[i] / n for column in columns) for i in range(n)]
    bool_rows = [tuple(rng.randrange(3) for _ in range(3)) for _ in range(n)]
    relation = Relation(schema, bool_rows, pref_rows)
    system = build_system(relation, fanout=5)
    subspaces = [
        subset
        for size in range(1, dims + 1)
        for subset in itertools.combinations(range(dims), size)
    ]
    for n_conjuncts in (0, 1, 2):
        predicate = (
            sample_predicate(relation, n_conjuncts, rng)
            if n_conjuncts
            else BooleanPredicate()
        )
        qualifying = truth_points(system, predicate)
        skylines = {}
        for subspace in subspaces:
            names = tuple(schema.preference_dims[d] for d in subspace)
            tids = set(system.engine.skyline(predicate, preference_by=names).tids)
            assert tids == set(naive_subspace_skyline(qualifying, subspace))
            skylines[subspace] = tids
        for u, v in itertools.combinations(subspaces, 2):
            if set(u) <= set(v):
                assert skylines[u] <= skylines[v], (predicate, u, v)
