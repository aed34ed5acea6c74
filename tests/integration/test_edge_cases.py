"""Degenerate inputs end to end: tiny relations, ties, saturated predicates."""

import pytest

from repro.baselines.naive import naive_skyline, naive_topk
from repro.cube.relation import Relation
from repro.cube.schema import Schema
from repro.query.predicates import BooleanPredicate
from repro.query.ranking import LinearFunction
from repro.system import build_system


def tiny_system(rows, n_pref=2, **kwargs):
    schema = Schema(("A",), tuple(f"N{i}" for i in range(n_pref)))
    bool_rows = [(r[0],) for r in rows]
    pref_rows = [tuple(r[1:]) for r in rows]
    relation = Relation(schema, bool_rows, pref_rows)
    kwargs.setdefault("fanout", 4)
    return relation, build_system(relation, **kwargs)


def test_single_tuple_relation():
    relation, system = tiny_system([("a", 0.5, 0.5)])
    result = system.engine.skyline(BooleanPredicate({"A": "a"}))
    assert result.tids == [0]
    miss = system.engine.skyline(BooleanPredicate({"A": "zzz"}))
    assert miss.tids == []


def test_all_points_identical():
    relation, system = tiny_system([("a", 0.3, 0.3)] * 9 + [("b", 0.3, 0.3)])
    result = system.engine.skyline(BooleanPredicate({"A": "a"}))
    # Equal points do not dominate each other: all 9 are skyline points.
    assert sorted(result.tids) == list(range(9))


def test_predicate_selecting_everything():
    rows = [("a", i / 10, 1 - i / 10) for i in range(10)]
    relation, system = tiny_system(rows)
    result = system.engine.skyline(BooleanPredicate({"A": "a"}))
    assert sorted(result.tids) == list(range(10))  # an anti-chain


def test_topk_with_ties_returns_exactly_k():
    rows = [("a", 0.5, 0.5)] * 6
    relation, system = tiny_system(rows)
    result = system.engine.topk(
        LinearFunction([1.0, 1.0]), k=3, predicate=BooleanPredicate({"A": "a"})
    )
    assert len(result.tids) == 3
    assert all(s == pytest.approx(1.0) for s in result.scores)


def test_topk_k_one():
    rows = [("a", v, v) for v in (0.9, 0.1, 0.5)]
    relation, system = tiny_system(rows)
    result = system.engine.topk(
        LinearFunction([1.0, 1.0]), k=1, predicate=BooleanPredicate({"A": "a"})
    )
    assert result.tids == [1]


def test_string_boolean_values():
    rows = [("alpha", 0.1, 0.9), ("beta", 0.9, 0.1), ("alpha", 0.5, 0.5)]
    relation, system = tiny_system(rows)
    result = system.engine.skyline(BooleanPredicate({"A": "alpha"}))
    assert sorted(result.tids) == [0, 2]


def test_one_dimensional_preference_space():
    rows = [("a", 0.7), ("a", 0.2), ("b", 0.1), ("a", 0.2)]
    relation, system = tiny_system(rows, n_pref=1)
    result = system.engine.skyline(BooleanPredicate({"A": "a"}))
    # 1-D skyline = all minima (ties included).
    assert sorted(result.tids) == [1, 3]
    topk = system.engine.topk(
        LinearFunction([1.0]), k=2, predicate=BooleanPredicate({"A": "a"})
    )
    assert sorted(topk.tids) == [1, 3]


def test_high_dimensional_preference_space():
    import random

    rng = random.Random(3)
    rows = [
        ("a",) + tuple(rng.random() for _ in range(6)) for _ in range(120)
    ]
    relation, system = tiny_system(rows, n_pref=6, fanout=8)
    predicate = BooleanPredicate({"A": "a"})
    result = system.engine.skyline(predicate)
    expected = set(
        naive_skyline(
            [(tid, relation.pref_point(tid)) for tid in relation.tids()]
        )
    )
    assert set(result.tids) == expected


def test_boundary_coordinates():
    rows = [("a", 0.0, 1.0), ("a", 1.0, 0.0), ("a", 0.0, 0.0), ("a", 1.0, 1.0)]
    relation, system = tiny_system(rows)
    result = system.engine.skyline(BooleanPredicate({"A": "a"}))
    assert result.tids == [2]  # the origin dominates everything else


def test_negative_coordinates():
    rows = [("a", -1.0, 2.0), ("a", 0.0, 0.0), ("a", -2.0, 3.0)]
    relation, system = tiny_system(rows)
    result = system.engine.skyline(BooleanPredicate({"A": "a"}))
    expected = set(
        naive_skyline(
            [(tid, relation.pref_point(tid)) for tid in relation.tids()]
        )
    )
    assert set(result.tids) == expected


def test_two_conjunct_skyline_on_a_deep_tree():
    import random

    rng = random.Random(5)
    schema = Schema(("A", "B"), ("X", "Y"))
    rows = [
        (
            (rng.randrange(3), rng.randrange(3)),
            (rng.random(), rng.random()),
        )
        for _ in range(200)
    ]
    relation = Relation(schema, [r[0] for r in rows], [r[1] for r in rows])
    system = build_system(relation, fanout=4)
    predicate = BooleanPredicate({"A": 1, "B": 2})
    result = system.engine.skyline(predicate)
    expected = set(
        naive_skyline(
            [
                (tid, relation.pref_point(tid))
                for tid in relation.tids()
                if predicate.matches(relation, tid)
            ]
        )
    )
    assert set(result.tids) == expected


def test_topk_scores_match_naive_under_distance_function():
    import random

    from repro.query.ranking import WeightedSquaredDistance

    rng = random.Random(7)
    rows = [
        ("x" if rng.random() < 0.5 else "y", rng.random(), rng.random())
        for _ in range(300)
    ]
    relation, system = tiny_system(rows, fanout=6)
    fn = WeightedSquaredDistance(target=(0.5, 0.5), weights=(2.0, 1.0))
    predicate = BooleanPredicate({"A": "x"})
    result = system.engine.topk(fn, 7, predicate)
    expected = naive_topk(
        [
            (tid, relation.pref_point(tid))
            for tid in relation.tids()
            if predicate.matches(relation, tid)
        ],
        fn,
        7,
    )
    assert [round(s, 9) for s in result.scores] == [
        round(s, 9) for _, s in expected
    ]
