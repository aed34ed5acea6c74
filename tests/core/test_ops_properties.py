"""Property tests for the signature algebra (``repro.core.ops``).

Hypothesis builds random relations, lets ``build_system`` grow a real
R-tree over them (tiny fanout, so the trees are deep and split-heavy), and
checks the algebraic laws the assembly layer silently relies on:

* union and intersection are commutative, associative and idempotent on
  signatures generated from data;
* online assembly is exact — intersecting the atomic cell signatures of a
  conjunction equals the signature generated directly from the merged
  cell's tuple group (the paper's Fig. 3 claim, fuzzed);
* the plain AND is conservative at internal nodes but exact on full tuple
  paths.
"""

from __future__ import annotations

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.ops import (
    intersect,
    intersect_all,
    union,
    union_all,
)
from repro.core.readers import AssembledReader, SignatureAdapter
from repro.core.signature import Signature
from repro.cube.cuboid import Cell, Cuboid
from repro.cube.relation import Relation
from repro.cube.schema import Schema
from repro.system import build_system
from tests.reference import generate_cuboid_signatures, path_of_sid

ALGEBRA_SETTINGS = settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

#: (A, B, X, Y) rows over small domains: few distinct cells, many shared
#: tuples per cell pair, deep fanout-4 trees.
rows_strategy = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=2),
        st.integers(min_value=0, max_value=2),
        st.integers(min_value=0, max_value=7),
        st.integers(min_value=0, max_value=7),
    ),
    min_size=1,
    max_size=40,
)


def grown_tree(rows):
    """Random relation → real insert-grown R-tree → (relation, paths)."""
    schema = Schema(("A", "B"), ("X", "Y"))
    relation = Relation(
        schema,
        [(a, b) for a, b, _, _ in rows],
        [(x / 7.0, y / 7.0) for _, _, x, y in rows],
    )
    system = build_system(relation, fanout=4, with_indexes=False)
    return relation, system.rtree.all_paths()


def atomic_signatures(relation, paths, dim: str):
    return generate_cuboid_signatures(relation, Cuboid((dim,)), paths, 4)


@ALGEBRA_SETTINGS
@given(rows=rows_strategy)
def test_union_laws(rows):
    relation, paths = grown_tree(rows)
    sigs = list(atomic_signatures(relation, paths, "A").values()) + list(
        atomic_signatures(relation, paths, "B").values()
    )
    for s in sigs:
        assert union(s, s) == s, "union not idempotent"
    for s1 in sigs:
        for s2 in sigs:
            assert union(s1, s2) == union(s2, s1), "union not commutative"
    if len(sigs) >= 3:
        s1, s2, s3 = sigs[0], sigs[1], sigs[2]
        assert union(union(s1, s2), s3) == union(s1, union(s2, s3))
    # The union of a cuboid's cells is the apex signature: every tuple.
    apex = Signature.from_paths(paths.values(), 4)
    assert union_all(list(atomic_signatures(relation, paths, "A").values())) == apex


@ALGEBRA_SETTINGS
@given(rows=rows_strategy)
def test_intersection_laws(rows):
    relation, paths = grown_tree(rows)
    sigs = list(atomic_signatures(relation, paths, "A").values()) + list(
        atomic_signatures(relation, paths, "B").values()
    )
    for s in sigs:
        assert intersect(s, s) == s, "intersection not idempotent"
    for s1 in sigs:
        for s2 in sigs:
            assert intersect(s1, s2) == intersect(s2, s1), (
                "intersection not commutative"
            )
    if len(sigs) >= 3:
        s1, s2, s3 = sigs[0], sigs[1], sigs[2]
        assert intersect(intersect(s1, s2), s3) == intersect(
            s1, intersect(s2, s3)
        )
        assert intersect_all([s1, s2, s3]) == intersect(
            intersect(s1, s2), s3
        )


@ALGEBRA_SETTINGS
@given(rows=rows_strategy)
def test_assembly_equals_direct_generation(rows):
    """intersect(sig(A=a), sig(B=b)) ≡ the signature generated from the
    merged cell (A=a, B=b) — online assembly is exact, not just safe."""
    relation, paths = grown_tree(rows)
    by_a = atomic_signatures(relation, paths, "A")
    by_b = atomic_signatures(relation, paths, "B")
    merged = generate_cuboid_signatures(
        relation, Cuboid(("A", "B")), paths, 4
    )
    for a_cell, sig_a in by_a.items():
        for b_cell, sig_b in by_b.items():
            assembled = intersect(sig_a, sig_b)
            cell = Cell(("A", "B"), (a_cell.values[0], b_cell.values[0]))
            direct = merged.get(cell)
            if direct is None:
                assert not assembled, (
                    f"assembled {cell} non-empty but no tuple has it"
                )
            else:
                assert assembled == direct


@ALGEBRA_SETTINGS
@given(rows=rows_strategy)
def test_plain_and_exact_on_paths(rows):
    """The plain AND (``AssembledReader`` at leaf depth 0: no look-ahead)
    may over-report internal nodes, never full paths."""
    relation, paths = grown_tree(rows)
    by_a = atomic_signatures(relation, paths, "A")
    by_b = atomic_signatures(relation, paths, "B")
    for sig_a in by_a.values():
        for sig_b in by_b.values():
            exact = intersect(sig_a, sig_b)
            lazy = AssembledReader(
                [SignatureAdapter(sig_a), SignatureAdapter(sig_b)], 0
            )
            for path in paths.values():
                assert lazy.check_path(path) == exact.check_path(path)
            # Conservatism: every bit exact keeps, lazy also reports.
            for sid in exact.node_sids():
                bits = exact.node(sid)
                for position in bits.positions():
                    assert lazy.check_entry(
                        path_of_sid(sid, exact.fanout), position + 1
                    )
