"""The paper's running example, verified bit for bit.

Table I (the eight-tuple database with paths), Figure 1 (the R-tree with
m = 1, M = 2), Figure 2 (the (A=a1)-signature and its SIDs), Figure 3
(union / intersection assembly for (A=a2) and (B=b2)) and Figure 4
(inserting t4 flips exactly the entries on its path).
"""

import pytest

from repro.core.ops import intersect, union
from repro.core.partial import decompose
from repro.core.sid import sid_of_path
from repro.core.signature import Signature

from tests.conftest import PAPER_PATHS
from tests.reference import reassemble, signature_by_recursive_sort, tuple_paths

M = 2  # the example's fanout


def bits(pattern: str) -> int:
    """A width-M node mask from a left-to-right pattern like "10"."""
    assert len(pattern) == M
    return sum(1 << i for i, ch in enumerate(pattern) if ch == "1")


def cell_paths(paper_relation, dim, value):
    return [
        PAPER_PATHS[tid]
        for tid in range(8)
        if paper_relation.bool_row(tid)[0 if dim == "A" else 1] == value
    ]


# --------------------------------------------------------------------------- #
# Table I / Figure 1
# --------------------------------------------------------------------------- #


def test_paper_rtree_reproduces_table_i_paths(paper_rtree):
    paths = paper_rtree.all_paths()
    for tid, path in PAPER_PATHS.items():
        assert paths[tid] == path


def test_paper_rtree_shape(paper_rtree):
    assert paper_rtree.root.level == 2
    assert paper_rtree.node_count() == 7  # root, N1-N2, N3-N6


# --------------------------------------------------------------------------- #
# Figure 2: the (A=a1)-signature
# --------------------------------------------------------------------------- #


def test_a1_signature_matches_figure_2(paper_relation):
    signature = signature_by_recursive_sort(
        cell_paths(paper_relation, "A", "a1"), M
    )
    # Figure 2a: root 10, N1 11, N3 10, N4 10 — nothing else.
    assert signature.node(sid_of_path((), M)) == bits("10")
    assert signature.node(sid_of_path((1,), M)) == bits("11")
    assert signature.node(sid_of_path((1, 1), M)) == bits("10")
    assert signature.node(sid_of_path((1, 2), M)) == bits("10")
    assert len(list(signature.masks())) == 4


def test_sid_example_from_paper():
    # "the path of the node N3 is ⟨1, 1⟩. Its SID is 4." (M = 2)
    assert sid_of_path((1, 1), M) == 4
    assert sid_of_path((1,), M) == 1  # N1, used as a partial reference
    assert sid_of_path((), M) == 0  # the root


def test_signature_paths_recover_tuples(paper_relation):
    signature = signature_by_recursive_sort(
        cell_paths(paper_relation, "A", "a1"), M
    )
    assert sorted(tuple_paths(signature)) == sorted(
        [PAPER_PATHS[0], PAPER_PATHS[2]]
    )


# --------------------------------------------------------------------------- #
# Figure 3: assembling (A=a2) and (B=b2)
# --------------------------------------------------------------------------- #


@pytest.fixture
def a2_signature(paper_relation):
    return signature_by_recursive_sort(cell_paths(paper_relation, "A", "a2"), M)


@pytest.fixture
def b2_signature(paper_relation):
    return signature_by_recursive_sort(cell_paths(paper_relation, "B", "b2"), M)


def test_a2_signature_structure(a2_signature):
    # A=a2 holds t2 ⟨1,1,2⟩ and t6 ⟨2,1,2⟩.
    assert a2_signature.node(0) == bits("11")
    assert a2_signature.node(sid_of_path((1,), M)) == bits("10")
    assert a2_signature.node(sid_of_path((2,), M)) == bits("10")
    assert a2_signature.node(sid_of_path((1, 1), M)) == bits("01")
    assert a2_signature.node(sid_of_path((2, 1), M)) == bits("01")


def test_b2_signature_structure(b2_signature):
    # B=b2 holds t2 ⟨1,1,2⟩ and t7 ⟨2,2,1⟩.
    assert b2_signature.node(0) == bits("11")
    assert b2_signature.node(sid_of_path((1,), M)) == bits("10")
    assert b2_signature.node(sid_of_path((2,), M)) == bits("01")
    assert b2_signature.node(sid_of_path((1, 1), M)) == bits("01")
    assert b2_signature.node(sid_of_path((2, 2), M)) == bits("10")


def test_figure_3b_union(a2_signature, b2_signature, paper_relation):
    """(A=a2 OR B=b2) selects t2, t6, t7 — the union signature is exactly
    the signature built from those tuples' paths."""
    combined = union(a2_signature, b2_signature)
    expected = Signature.from_paths(
        [PAPER_PATHS[1], PAPER_PATHS[5], PAPER_PATHS[6]], M
    )
    assert combined == expected


def test_figure_3c_intersection(a2_signature, b2_signature):
    """(A=a2 AND B=b2) selects only t2 ⟨1,1,2⟩.  Both inputs have root bit
    2 set (t6 and t7 live under node N2) but share no tuple there — the
    recursive operator must clear it."""
    combined = intersect(a2_signature, b2_signature)
    expected = Signature.from_paths([PAPER_PATHS[1]], M)
    assert combined == expected
    assert combined.node(0) == bits("10")  # root bit 2 cleared


# --------------------------------------------------------------------------- #
# Figure 4: inserting t4
# --------------------------------------------------------------------------- #


def test_figure_4_insertion_flips_only_the_new_path(paper_relation):
    """Before t4: the (A=a3)-signature covers only t8 ⟨2,2,2⟩.  Inserting
    t4 at path ⟨1,2,2⟩ flips exactly the entries on that path."""
    before = Signature.from_paths([PAPER_PATHS[7]], M)
    assert before.node(0) == bits("01")
    after = Signature.from_paths([PAPER_PATHS[7]], M)
    after.add_path(PAPER_PATHS[3])  # t4 -> ⟨1,2,2⟩
    expected = Signature.from_paths([PAPER_PATHS[7], PAPER_PATHS[3]], M)
    assert after == expected
    assert after.node(0) == bits("11")
    assert after.node(sid_of_path((1,), M)) == bits("01")
    assert after.node(sid_of_path((1, 2), M)) == bits("01")
    # t8's side is untouched.
    assert after.node(sid_of_path((2,), M)) == before.node(
        sid_of_path((2,), M)
    )


# --------------------------------------------------------------------------- #
# Section IV-B.1's decomposition walkthrough
# --------------------------------------------------------------------------- #


def test_decomposition_walkthrough(paper_relation):
    """With a page too small for the whole (A=a1)-signature, the first
    partial is referenced by the root (SID 0) and a later one by N1
    (SID 1), exactly as the paper's example narrates."""
    signature = signature_by_recursive_sort(
        cell_paths(paper_relation, "A", "a1"), M
    )
    # Each coded node costs 4 bytes here; a 24-byte page (16-byte header
    # plus two nodes) fits the root and N1 but not the leaves.
    partials = decompose(signature, page_size=24, codec="raw")
    assert partials[0].ref_sid == 0
    assert len(partials) > 1
    assert partials[1].ref_sid == sid_of_path((1,), M)
    assert reassemble(partials, M) == signature
