"""Signature trees: construction, bit tests, path enumeration."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bitmap.bitarray import BitArray
from repro.core.signature import Signature
from repro.core.sid import sid_of_path
from tests.reference import check_bit, contains_subtree, set_bit_count, tuple_paths


def test_empty_signature():
    signature = Signature(4)
    assert not signature
    assert list(signature.node_sids()) == []
    assert not signature.check_path((1,))
    assert list(tuple_paths(signature)) == []


def test_add_path_sets_all_prefix_bits():
    signature = Signature(4)
    signature.add_path((2, 3, 1))
    assert check_bit(signature, 0, 2)
    assert check_bit(signature, sid_of_path((2,), 4), 3)
    assert check_bit(signature, sid_of_path((2, 3), 4), 1)
    assert not check_bit(signature, 0, 1)
    assert signature.check_path((2, 3, 1))
    assert signature.check_path((2, 3))  # prefix of a data path
    assert not signature.check_path((2, 1))


def test_add_path_idempotent():
    signature = Signature(4)
    signature.add_path((1, 2))
    signature.add_path((1, 2))
    assert signature == Signature.from_paths([(1, 2)], 4)


def test_add_path_validation():
    signature = Signature(4)
    with pytest.raises(ValueError):
        signature.add_path(())
    with pytest.raises(ValueError):
        signature.add_path((5,))
    with pytest.raises(ValueError):
        signature.add_path((0,))


def test_from_paths_equals_incremental():
    paths = [(1, 2), (1, 3), (4, 1), (2, 2)]
    incremental = Signature(4)
    for path in paths:
        incremental.add_path(path)
    assert Signature.from_paths(paths, 4) == incremental


def test_tuple_paths_roundtrip():
    paths = {(1, 2, 1), (1, 2, 3), (2, 1, 1), (3, 3, 3)}
    signature = Signature.from_paths(paths, 3)
    assert set(tuple_paths(signature)) == paths


def test_contains_subtree():
    signature = Signature.from_paths([(2, 1)], 4)
    assert contains_subtree(signature, ())
    assert contains_subtree(signature, (2,))
    assert contains_subtree(signature, (2, 1))
    assert not contains_subtree(signature, (1,))
    assert not contains_subtree(Signature(4), ())


def test_set_node():
    signature = Signature(4)
    signature.set_node(0, BitArray(4, 0b0101))
    assert check_bit(signature, 0, 1)
    signature.set_node(0, BitArray(4))  # all-zero removes the node
    assert list(signature.node_sids()) == []


def test_set_node_width_checked():
    signature = Signature(4)
    with pytest.raises(ValueError):
        signature.set_node(0, BitArray(5))


def test_signatures_unhashable():
    with pytest.raises(TypeError):
        hash(Signature(4))


def test_set_bit_count():
    signature = Signature.from_paths([(1, 1), (1, 2)], 4)
    # root: bit 1; node ⟨1⟩: bits 1 and 2 -> 3 total
    assert set_bit_count(signature) == 3


def test_fanout_minimum():
    with pytest.raises(ValueError):
        Signature(1)


path_sets = st.integers(min_value=2, max_value=12).flatmap(
    lambda m: st.tuples(
        st.just(m),
        st.sets(
            st.lists(
                st.integers(min_value=1, max_value=m), min_size=1, max_size=4
            ).map(tuple),
            min_size=0,
            max_size=30,
        ),
    )
)


@settings(max_examples=60, deadline=None)
@given(path_sets)
def test_check_path_accepts_exactly_prefixes(data):
    """check_path(p) holds iff p is a prefix of some inserted path."""
    fanout, paths = data
    signature = Signature.from_paths(paths, fanout)
    prefixes = {path[:i] for path in paths for i in range(1, len(path) + 1)}
    # Probe all prefixes plus some perturbed non-members.
    for prefix in prefixes:
        assert signature.check_path(prefix)
    for path in paths:
        probe = path + (1,) if len(path) < 4 else path[:-1] + (
            path[-1] % fanout + 1,
        )
        assert signature.check_path(probe) == (
            probe in prefixes or any(
                other[: len(probe)] == probe for other in paths
            )
        )
