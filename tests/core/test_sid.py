"""SID arithmetic: the injective path numeration."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.sid import child_sid, sid_of_path
from tests.reference import ancestor_sids, path_of_sid


def test_root_is_zero():
    assert sid_of_path((), 10) == 0
    assert path_of_sid(0, 10) == ()


def test_paper_example():
    assert sid_of_path((1, 1), 2) == 4  # node N3 in the paper


def test_single_components():
    for fanout in (2, 5, 100):
        for position in range(1, fanout + 1):
            assert sid_of_path((position,), fanout) == position


def test_component_bounds():
    with pytest.raises(ValueError):
        sid_of_path((0,), 4)
    with pytest.raises(ValueError):
        sid_of_path((5,), 4)


def test_invalid_sid_inversion():
    # SID 3 with fanout 2 would need digit 0.
    with pytest.raises(ValueError):
        path_of_sid(3, 2)
    with pytest.raises(ValueError):
        path_of_sid(-1, 2)


def test_child():
    fanout = 7
    sid = sid_of_path((3, 5, 2), fanout)
    assert child_sid(sid_of_path((3, 5), fanout), 2, fanout) == sid


def test_child_position_bounds():
    with pytest.raises(ValueError):
        child_sid(0, 0, 4)
    with pytest.raises(ValueError):
        child_sid(0, 5, 4)


def test_ancestor_sids():
    fanout = 3
    path = (2, 1, 3)
    sids = ancestor_sids(path, fanout)
    assert sids == [
        0,
        sid_of_path((2,), fanout),
        sid_of_path((2, 1), fanout),
        sid_of_path((2, 1, 3), fanout),
    ]


paths = st.integers(min_value=2, max_value=200).flatmap(
    lambda m: st.tuples(
        st.just(m),
        st.lists(st.integers(min_value=1, max_value=m), max_size=8).map(tuple),
    )
)


@given(paths)
def test_roundtrip_property(data):
    fanout, path = data
    assert path_of_sid(sid_of_path(path, fanout), fanout) == path


@given(paths, paths)
def test_injectivity_property(a, b):
    fanout_a, path_a = a
    fanout_b, path_b = b
    if fanout_a == fanout_b and path_a != path_b:
        assert sid_of_path(path_a, fanout_a) != sid_of_path(path_b, fanout_b)
