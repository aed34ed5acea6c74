"""Ranking functions: scores, the lower-bound contract and their parameters."""

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.query.ranking import (
    LinearFunction,
    SeparableFunction,
    WeightedSquaredDistance,
)
from repro.rtree.geometry import Rect


def test_linear_score():
    fn = LinearFunction([2.0, 3.0])
    assert fn.score((1.0, 1.0)) == 5.0


def test_linear_lower_bound_nonnegative_weights():
    fn = LinearFunction([1.0, 2.0])
    rect = Rect((1, 1), (5, 5))
    assert fn.lower_bound(rect) == 3.0


def test_linear_lower_bound_negative_weights():
    fn = LinearFunction([-1.0, 2.0])
    rect = Rect((1, 1), (5, 5))
    # minimum at (high, low): -5 + 2 = -3
    assert fn.lower_bound(rect) == -3.0


def test_linear_validation():
    with pytest.raises(ValueError):
        LinearFunction([])


def test_weighted_distance_example_1():
    # (price - 15)² + 0.5 (mileage - 30)², in thousands.
    fn = WeightedSquaredDistance(target=(15.0, 30.0), weights=(1.0, 0.5))
    assert fn.score((15.0, 30.0)) == 0.0
    assert fn.score((16.0, 32.0)) == pytest.approx(1.0 + 0.5 * 4.0)


def test_weighted_distance_lower_bound_clamps():
    fn = WeightedSquaredDistance(target=(0.5, 0.5))
    inside = Rect((0, 0), (1, 1))
    assert fn.lower_bound(inside) == 0.0
    left = Rect((2, 0), (3, 1))
    assert fn.lower_bound(left) == pytest.approx(1.5**2)


def test_weighted_distance_validation():
    with pytest.raises(ValueError):
        WeightedSquaredDistance((0, 0), weights=(1.0,))
    with pytest.raises(ValueError):
        WeightedSquaredDistance((0, 0), weights=(-1.0, 1.0))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize(
    "make",
    [
        lambda x: LinearFunction([x, 1.0]),
        lambda x: WeightedSquaredDistance((x, 0.5)),
        lambda x: WeightedSquaredDistance((0.5, 0.5), (1.0, x)),
        lambda x: SeparableFunction([(0, "squared", 1.0, x)]),
        lambda x: SeparableFunction([(0, "linear", x, 0.0)]),
        lambda x: SeparableFunction([(0, "linear", 1.0, x)]),
    ],
    ids=["linear-weight", "wsd-target", "wsd-weight", "sep-target",
         "sep-coeff", "sep-linear-target"],
)
def test_a_non_finite_parameter_is_refused(make, bad):
    # NaN scores compare false with every bound, so no node is ever pruned:
    # such a function used to return the whole relation as its "top k".
    with pytest.raises(ValueError, match="finite"):
        make(bad)


def test_misfit_names_a_function_that_does_not_fit_the_dimensions():
    assert LinearFunction([1.0, 1.0]).misfit(2) is None
    assert "5 weights" in LinearFunction([1.0] * 5).misfit(2)
    assert WeightedSquaredDistance((0.5, 0.5)).misfit(2) is None
    assert "1 dims" in WeightedSquaredDistance((0.5,)).misfit(2)
    # A separable function may leave dimensions out, never name a missing one.
    assert SeparableFunction([(1, "linear", 1.0, 0.0)]).misfit(2) is None
    assert "dimension 5" in SeparableFunction([(5, "linear", 1.0, 0.0)]).misfit(2)


rect_and_point = st.tuples(
    st.lists(st.floats(0, 1, allow_nan=False), min_size=2, max_size=2),
    st.lists(st.floats(0, 1, allow_nan=False), min_size=2, max_size=2),
    st.lists(st.floats(0, 1, allow_nan=False), min_size=2, max_size=2),
)


def make_rect(a, b):
    lows = [min(x, y) for x, y in zip(a, b)]
    highs = [max(x, y) for x, y in zip(a, b)]
    return Rect(lows, highs), lows, highs


@given(rect_and_point, st.lists(st.floats(-2, 2, allow_nan=False), min_size=2, max_size=2))
def test_linear_lower_bound_property(data, weights):
    a, b, t = data
    rect, lows, highs = make_rect(a, b)
    fn = LinearFunction(weights)
    lb = fn.lower_bound(rect)
    # Any point inside (corners and the interpolated t) scores >= lb.
    for point in (
        lows,
        highs,
        [lo + frac * (hi - lo) for lo, hi, frac in zip(lows, highs, t)],
    ):
        assert fn.score(point) >= lb - 1e-9


@given(rect_and_point)
def test_distance_lower_bound_property(data):
    a, b, t = data
    rect, lows, highs = make_rect(a, b)
    fn = WeightedSquaredDistance(target=(0.4, 0.6), weights=(1.0, 2.0))
    lb = fn.lower_bound(rect)
    point = [lo + frac * (hi - lo) for lo, hi, frac in zip(lows, highs, t)]
    assert fn.score(point) >= lb - 1e-9

