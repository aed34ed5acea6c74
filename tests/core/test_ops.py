"""Union / intersection semantics (Fig. 3) and the plain-AND upper bound."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.ops import (
    intersect,
    intersect_all,
    union,
    union_all,
)
from repro.core.readers import AssembledReader, SignatureAdapter
from repro.core.signature import Signature
from tests.reference import check_bit

FANOUT = 4

# Tuple paths over one R-tree template all share the tree's height, so a
# leaf slot can never double as an internal node.  The strategies honour
# that invariant with fixed-length paths.
path_lists = st.lists(
    st.lists(
        st.integers(min_value=1, max_value=FANOUT), min_size=3, max_size=3
    ).map(tuple),
    max_size=25,
)


def sig(paths):
    return Signature.from_paths(paths, FANOUT)


def plain_and(*signatures):
    """The plain AND of the signatures' bits — the upper bound of their
    intersection: leaf depth 0 means the reader never looks below a bit."""
    return AssembledReader([SignatureAdapter(s) for s in signatures], 0)


def test_union_is_path_union():
    a = sig([(1, 1), (2, 2)])
    b = sig([(1, 2), (2, 2)])
    assert union(a, b) == sig([(1, 1), (1, 2), (2, 2)])


def test_union_does_not_mutate_inputs():
    a = sig([(1, 1)])
    b = sig([(2, 2)])
    union(a, b)
    assert a == sig([(1, 1)])
    assert b == sig([(2, 2)])


def test_intersection_is_path_intersection():
    a = sig([(1, 1), (2, 2), (3, 1)])
    b = sig([(1, 1), (2, 1), (3, 1)])
    assert intersect(a, b) == sig([(1, 1), (3, 1)])


def test_intersection_clears_empty_internal_bits():
    """Both inputs have data under node ⟨1⟩ but no common tuple there: the
    recursive operator must clear the root bit (the Fig. 3c situation)."""
    a = sig([(1, 1), (2, 1)])
    b = sig([(1, 2), (2, 1)])
    result = intersect(a, b)
    assert result == sig([(2, 1)])
    assert not check_bit(result, 0, 1)


@pytest.mark.parametrize("subtree_first", [True, False])
def test_a_subtree_against_a_leaf_slot_is_not_kept(subtree_first):
    """Signatures that disagree about the tree shape — one has a subtree
    under root slot 1, the other a leaf slot there — cannot come from one
    template, but the operator still answers: the missing child node
    counts as empty, so that bit is cleared whichever side has the
    subtree, and the bit both sides see the same subtree under is kept."""
    with_subtree = sig([(1, 1), (2, 1)])
    with_slot = sig([(1,), (2, 1)])
    assert check_bit(with_slot, 0, 1) and with_slot.node(1) == 0
    pair = (with_subtree, with_slot) if subtree_first else (with_slot, with_subtree)
    result = intersect(*pair)
    assert result == sig([(2, 1)])
    assert not check_bit(result, 0, 1)


def test_intersection_empty_result():
    a = sig([(1, 1)])
    b = sig([(2, 2)])
    result = intersect(a, b)
    assert not result
    assert list(result.masks()) == []


def test_intersect_with_empty_signature():
    a = sig([(1, 1)])
    assert not intersect(a, Signature(FANOUT))


def test_fanout_mismatch_rejected():
    with pytest.raises(ValueError):
        union(Signature(3), Signature(4))
    with pytest.raises(ValueError):
        intersect(Signature(3), Signature(4))


def test_union_all_and_intersect_all():
    a, b, c = sig([(1, 1)]), sig([(1, 1), (2, 2)]), sig([(1, 1), (3, 3)])
    assert union_all([a, b, c]) == sig([(1, 1), (2, 2), (3, 3)])
    assert intersect_all([a, b, c]) == sig([(1, 1)])
    assert intersect_all([a]) is a
    with pytest.raises(ValueError):
        union_all([])
    with pytest.raises(ValueError):
        intersect_all([])


@settings(max_examples=60, deadline=None)
@given(path_lists, path_lists)
def test_union_intersection_set_semantics(paths_a, paths_b):
    """Union/intersection of signatures equal the signatures of the path
    set union/intersection — the defining property."""
    a, b = sig(paths_a), sig(paths_b)
    assert union(a, b) == sig(list(set(paths_a) | set(paths_b)))
    assert intersect(a, b) == sig(list(set(paths_a) & set(paths_b)))


@settings(max_examples=40, deadline=None)
@given(path_lists, path_lists)
def test_plain_and_is_conservative_and_leaf_exact(paths_a, paths_b):
    a, b = sig(paths_a), sig(paths_b)
    exact = intersect(a, b)
    lazy = plain_and(a, b)
    shared = set(paths_a) & set(paths_b)
    # Exact on full tuple paths (leaf slots).
    for path in set(paths_a) | set(paths_b):
        assert lazy.check_path(path) == (path in shared)
    # Conservative on internal prefixes: everything the exact operator
    # keeps, the lazy view also passes.
    for path in shared:
        for i in range(1, len(path)):
            assert lazy.check_path(path[:i])
            assert exact.check_path(path[:i])


def test_plain_and_keeps_an_inner_false_positive():
    a = sig([(1, 1)])
    b = sig([(1, 2)])
    lazy = plain_and(a, b)
    assert lazy.check_entry((), 1)  # both have data under node 1 (false pos.)
    assert not check_bit(intersect(a, b), 0, 1)  # exact clears it
