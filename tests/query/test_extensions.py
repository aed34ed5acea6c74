"""Section VII extensions: dynamic skylines and convex hull queries."""

import random

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.cube.relation import Relation
from repro.cube.schema import Schema
from repro.data.workload import sample_predicate
from repro.query.dynamic import (
    naive_dynamic_skyline,
    transform_point,
    transform_rect_lower,
)
from repro.query.predicates import BooleanPredicate
from repro.rtree.geometry import Rect
from repro.system import build_system
from tests.reference import naive_lower_hull


# --------------------------------------------------------------------------- #
# the coordinate transform
# --------------------------------------------------------------------------- #


def test_transform_point():
    assert transform_point((0.2, 0.9), (0.5, 0.5)) == pytest.approx((0.3, 0.4))


def test_transform_rect_lower_cases():
    rect = Rect((0.2, 0.2), (0.4, 0.4))
    # query inside -> zero; left of -> lo - q; right of -> q - hi
    assert transform_rect_lower(rect, (0.3, 0.3)) == (0.0, 0.0)
    assert transform_rect_lower(rect, (0.0, 0.5)) == pytest.approx((0.2, 0.1))


@given(
    st.lists(st.floats(0, 1, allow_nan=False), min_size=2, max_size=2),
    st.lists(st.floats(0, 1, allow_nan=False), min_size=2, max_size=2),
    st.lists(st.floats(0, 1, allow_nan=False), min_size=2, max_size=2),
    st.lists(st.floats(0, 1, allow_nan=False), min_size=2, max_size=2),
)
def test_transform_corner_is_a_lower_bound(a, b, q, t):
    lows = [min(x, y) for x, y in zip(a, b)]
    highs = [max(x, y) for x, y in zip(a, b)]
    rect = Rect(lows, highs)
    corner = transform_rect_lower(rect, q)
    inside = [lo + frac * (hi - lo) for lo, hi, frac in zip(lows, highs, t)]
    transformed = transform_point(inside, q)
    assert all(c <= v + 1e-12 for c, v in zip(corner, transformed))


# --------------------------------------------------------------------------- #
# dynamic skylines
# --------------------------------------------------------------------------- #


def truth_points(system, predicate):
    relation = system.relation
    return [
        (tid, relation.pref_point(tid))
        for tid in relation.tids()
        if predicate.matches(relation, tid)
    ]


@pytest.mark.parametrize("n_conjuncts", [0, 1, 2])
def test_dynamic_skyline_matches_naive(small_system, rng, n_conjuncts):
    for _ in range(3):
        predicate = (
            sample_predicate(small_system.relation, n_conjuncts, rng)
            if n_conjuncts
            else BooleanPredicate()
        )
        query_point = (rng.random(), rng.random())
        result = small_system.engine.dynamic_skyline(query_point, predicate)
        expected = set(
            naive_dynamic_skyline(
                truth_points(small_system, predicate), query_point
            )
        )
        assert set(result.tids) == expected
        assert result.stats.results == len(expected)


def test_dynamic_skyline_at_origin_equals_static(small_system, rng):
    """With q at the origin the transform is the identity on [0,1]^d."""
    predicate = sample_predicate(small_system.relation, 1, rng)
    dynamic = small_system.engine.dynamic_skyline((0.0, 0.0), predicate)
    static = small_system.engine.skyline(predicate)
    assert set(dynamic.tids) == set(static.tids)


def test_dynamic_skyline_query_point_validation(small_system):
    with pytest.raises(ValueError):
        small_system.engine.dynamic_skyline((0.5,))  # wrong dimensionality


def test_dynamic_skyline_includes_exact_hit(small_system):
    """A tuple exactly at q transforms to the zero vector and must be an
    answer (nothing can dominate it)."""
    relation = small_system.relation
    target_tid = 17
    query_point = relation.pref_point(target_tid)
    tids = small_system.engine.dynamic_skyline(query_point).tids
    assert target_tid in tids


# --------------------------------------------------------------------------- #
# engine integration
# --------------------------------------------------------------------------- #


def test_engine_dynamic_skyline(small_system, rng):
    predicate = sample_predicate(small_system.relation, 1, rng)
    query_point = (0.4, 0.6)
    result = small_system.engine.dynamic_skyline(query_point, predicate)
    assert result.kind == "dynamic_skyline"
    expected = set(
        naive_dynamic_skyline(truth_points(small_system, predicate), query_point)
    )
    assert set(result.tids) == expected


def test_engine_lower_hull(small_system, rng):
    predicate = sample_predicate(small_system.relation, 1, rng)
    result = small_system.engine.lower_hull(predicate)
    assert result.kind == "lower_hull"
    expected = naive_lower_hull(truth_points(small_system, predicate))
    assert [small_system.relation.pref_point(t) for t in result.tids] == [
        small_system.relation.pref_point(t) for t in expected
    ]


def test_engine_rejects_incremental_on_extensions(small_system, rng):
    predicate = sample_predicate(small_system.relation, 1, rng)
    result = small_system.engine.dynamic_skyline((0.5, 0.5), predicate)
    free_dim = next(
        d
        for d in small_system.relation.schema.boolean_dims
        if d not in predicate.dims()
    )
    with pytest.raises(ValueError):
        small_system.engine.drill_down(result, free_dim, 0)
    with pytest.raises(ValueError):
        small_system.engine.roll_up(result, predicate.dims()[0])


# --------------------------------------------------------------------------- #
# convex hull queries
# --------------------------------------------------------------------------- #


def hull_coords(relation, tids):
    return [relation.pref_point(tid) for tid in tids]


def test_lower_hull_matches_naive(small_system, rng):
    for n_conjuncts in (0, 1, 2):
        predicate = (
            sample_predicate(small_system.relation, n_conjuncts, rng)
            if n_conjuncts
            else BooleanPredicate()
        )
        result = small_system.engine.lower_hull(predicate)
        expected = naive_lower_hull(truth_points(small_system, predicate))
        assert hull_coords(small_system.relation, result.tids) == hull_coords(
            small_system.relation, expected
        )
        assert result.stats.total_io() > 0


def test_lower_hull_vertices_are_extreme(small_system, rng):
    """Definitional check: every hull vertex minimises some non-negative
    linear function over the subset; every edge has no point below it."""
    predicate = sample_predicate(small_system.relation, 1, rng)
    tids = small_system.engine.lower_hull(predicate).tids
    points = [p for _, p in truth_points(small_system, predicate)]
    vertices = hull_coords(small_system.relation, tids)
    for (ax, ay), (bx, by) in zip(vertices, vertices[1:]):
        assert ax < bx and ay > by  # strictly monotone chain
        normal = (ay - by, bx - ax)
        edge_value = normal[0] * ax + normal[1] * ay
        for px, py in points:
            assert normal[0] * px + normal[1] * py >= edge_value - 1e-9


def test_lower_hull_requires_2d(fresh_system):
    system = fresh_system(n_tuples=100, n_preference=3, seed=1)
    with pytest.raises(ValueError):
        system.engine.lower_hull()


def test_lower_hull_empty_selection(small_system):
    tids = small_system.engine.lower_hull(BooleanPredicate({"A1": 999})).tids
    assert tids == []


def test_lower_hull_single_point():
    schema = Schema(("A",), ("X", "Y"))
    relation = Relation(schema, [("a",)], [(0.4, 0.6)])
    system = build_system(relation, fanout=4, with_indexes=False)
    tids = system.engine.lower_hull(BooleanPredicate({"A": "a"})).tids
    assert tids == [0]


@settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    raw=st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=9),
            st.integers(min_value=0, max_value=9),
        ),
        min_size=1,
        max_size=40,
    )
)
# Three points tie on the first split's extreme and the search returns the
# middle one, (2, 2): collinear-interior on the edge (1, 3)-(3, 1).
@example(raw=[(0, 5), (0, 5), (1, 3), (2, 2), (3, 1), (5, 0)])
def test_lower_hull_property(raw):
    """Small grids (heavy ties / collinearity) against the naive chain."""
    schema = Schema(("A",), ("X", "Y"))
    points = [(x / 9.0, y / 9.0) for x, y in raw]
    relation = Relation(schema, [("a",)] * len(points), points)
    system = build_system(relation, fanout=4, with_indexes=False)
    tids = system.engine.lower_hull(BooleanPredicate({"A": "a"})).tids
    expected = naive_lower_hull(list(enumerate(points)))
    assert [relation.pref_point(t) for t in tids] == [
        relation.pref_point(t) for t in expected
    ]


@settings(
    max_examples=30,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    raw=st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=7),
            st.integers(min_value=0, max_value=7),
        ),
        min_size=1,
        max_size=30,
    ),
    qx=st.integers(min_value=0, max_value=7),
    qy=st.integers(min_value=0, max_value=7),
)
def test_dynamic_skyline_property(raw, qx, qy):
    schema = Schema(("A",), ("X", "Y"))
    points = [(x / 7.0, y / 7.0) for x, y in raw]
    relation = Relation(schema, [("a",)] * len(points), points)
    system = build_system(relation, fanout=4, with_indexes=False)
    query_point = (qx / 7.0, qy / 7.0)
    tids = system.engine.dynamic_skyline(query_point).tids
    expected = set(naive_dynamic_skyline(list(enumerate(points)), query_point))
    assert set(tids) == expected


def test_dynamic_skyline_float_tie_regression():
    """Sum-key ties must not let a dominated point pop before its dominator.

    With q = (1/7, 5/7), the transformed coordinates of (4/7, 4/7) and
    (4/7, 6/7) differ by one ulp per dimension yet their float *sums* are
    identical, so without a lexicographic tie-break BBS reports the
    dominated point first and wrongly keeps it (hypothesis's original
    falsifying example, pinned here explicitly)."""
    schema = Schema(("A",), ("X", "Y"))
    points = [(4 / 7.0, 4 / 7.0), (4 / 7.0, 6 / 7.0)]
    relation = Relation(schema, [("a",)] * len(points), points)
    system = build_system(relation, fanout=4, with_indexes=False)
    query_point = (1 / 7.0, 5 / 7.0)
    tids = system.engine.dynamic_skyline(query_point).tids
    assert set(tids) == {1}
