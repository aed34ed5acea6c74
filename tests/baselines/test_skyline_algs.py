"""Classic skyline algorithms agree with the naive reference."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.naive import naive_skyline
from repro.baselines.skyline_algs import sfs_skyline
from tests.reference import bnl_skyline, dnc_skyline

ALGORITHMS = [sfs_skyline, bnl_skyline, dnc_skyline]


def random_points(n, dims, seed):
    rng = random.Random(seed)
    return [
        (tid, tuple(rng.random() for _ in range(dims))) for tid in range(n)
    ]


@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_empty(algorithm):
    assert algorithm([]) == []


@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_single_point(algorithm):
    assert algorithm([(7, (0.5, 0.5))]) == [7]


@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_all_duplicates_survive(algorithm):
    points = [(0, (0.5, 0.5)), (1, (0.5, 0.5)), (2, (0.5, 0.5))]
    assert sorted(algorithm(points)) == [0, 1, 2]


@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_chain_has_single_winner(algorithm):
    points = [(i, (i / 10, i / 10)) for i in range(10)]
    assert algorithm(points) == [0]


@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_anti_chain_all_survive(algorithm):
    points = [(i, (i / 10, 1 - i / 10)) for i in range(10)]
    assert sorted(algorithm(points)) == list(range(10))


@pytest.mark.parametrize("algorithm", ALGORITHMS)
@pytest.mark.parametrize("dims", [2, 3, 4])
@pytest.mark.parametrize("seed", [1, 2])
def test_matches_naive_random(algorithm, dims, seed):
    points = random_points(250, dims, seed)
    assert sorted(algorithm(points)) == sorted(naive_skyline(points))


def test_bnl_small_window_still_correct():
    points = random_points(300, 2, 5)
    assert sorted(bnl_skyline(points, window=4)) == sorted(
        naive_skyline(points)
    )


def test_bnl_window_one():
    points = random_points(100, 2, 6)
    assert sorted(bnl_skyline(points, window=1)) == sorted(
        naive_skyline(points)
    )


def test_dnc_small_threshold():
    points = random_points(200, 3, 7)
    assert sorted(dnc_skyline(points, threshold=4)) == sorted(
        naive_skyline(points)
    )


small_point_sets = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=4),
        st.integers(min_value=0, max_value=4),
    ),
    max_size=30,
)


@settings(max_examples=60, deadline=None)
@given(small_point_sets)
def test_all_algorithms_agree_property(raw):
    """Low-cardinality grids force heavy ties — the hard case."""
    points = [(tid, (float(x), float(y))) for tid, (x, y) in enumerate(raw)]
    expected = sorted(naive_skyline(points))
    assert sorted(sfs_skyline(points)) == expected
    assert sorted(bnl_skyline(points, window=3)) == expected
    assert sorted(dnc_skyline(points, threshold=2)) == expected


def test_skyline_points_are_undominated_and_complete():
    """Definitional check on a bigger instance."""
    from repro.rtree.geometry import dominates

    points = random_points(500, 3, 11)
    skyline = set(sfs_skyline(points))
    by_tid = dict(points)
    for tid, point in points:
        dominated = any(
            dominates(by_tid[s], point) for s in skyline if s != tid
        )
        assert (tid in skyline) == (not dominated)
