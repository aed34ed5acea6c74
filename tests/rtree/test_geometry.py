"""Rectangles and dominance; mindist held against the scalar oracle."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.rtree.geometry import Rect, dominates
from tests.kernels import reference


def mindist(rect, point):
    return reference.mindist_block([rect.lows], [rect.highs], point)[0]


def test_rect_validation():
    with pytest.raises(ValueError):
        Rect((0, 0), (1,))
    with pytest.raises(ValueError):
        Rect((2, 0), (1, 1))


def test_rect_is_immutable():
    rect = Rect((0, 0), (1, 1))
    with pytest.raises(AttributeError):
        rect.lows = (5, 5)


def test_from_point_is_degenerate():
    rect = Rect.from_point((0.5, 0.7))
    assert rect.lows == rect.highs == (0.5, 0.7)
    assert rect.area() == 0.0


def test_union_and_union_all():
    a = Rect((0, 0), (1, 1))
    b = Rect((2, -1), (3, 0.5))
    union = a.union(b)
    assert union == Rect((0, -1), (3, 1))
    assert Rect.union_all([a, b]) == union


def test_union_all_empty_rejected():
    with pytest.raises(ValueError):
        Rect.union_all([])


def test_area():
    rect = Rect((0, 0), (2, 3))
    assert rect.area() == 6.0


def test_enlargement():
    a = Rect((0, 0), (1, 1))
    inside = Rect((0.2, 0.2), (0.8, 0.8))
    outside = Rect((2, 2), (3, 3))
    assert a.enlargement(inside) == 0.0
    assert a.enlargement(outside) == pytest.approx(9.0 - 1.0)


def test_mindist_cases():
    rect = Rect((1, 1), (2, 2))
    assert mindist(rect, (1.5, 1.5)) == 0.0  # inside
    assert mindist(rect, (0, 1.5)) == 1.0  # left of
    assert mindist(rect, (0, 0)) == 2.0  # diagonal corner


def test_sum_lower_bound():
    assert reference.sum_block([Rect((1, 2, 3), (9, 9, 9)).lows]) == [6.0]


def test_dominates_semantics():
    assert dominates((1, 1), (2, 2))
    assert dominates((1, 2), (1, 3))
    assert not dominates((1, 1), (1, 1))  # equal: not strict anywhere
    assert not dominates((1, 3), (2, 2))  # incomparable


points = st.lists(
    st.floats(min_value=0, max_value=1, allow_nan=False), min_size=2, max_size=2
)


@given(points, points)
def test_dominance_is_antisymmetric(p, q):
    assert not (dominates(p, q) and dominates(q, p))


@given(points, points, points)
def test_dominance_is_transitive(p, q, r):
    if dominates(p, q) and dominates(q, r):
        assert dominates(p, r)


@given(points, points, points)
def test_mindist_lower_bounds_point_distance(p, q, r):
    rect = Rect.from_point(p).union(Rect.from_point(q))
    dist = sum((a - b) ** 2 for a, b in zip(p, r))
    assert mindist(rect, r) <= dist + 1e-12
