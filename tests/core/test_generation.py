"""Tuple-oriented generation: the recursive sort equals bit insertion, and
the build — which ORs path bits per (cell, node) run instead — equals the
recursive sort."""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.pcube import PCube
from repro.core.signature import Signature
from repro.cube.cuboid import Cell, Cuboid, atomic_cuboids
from repro.cube.relation import Relation
from repro.cube.schema import Schema
from repro.data.synthetic import SyntheticConfig, generate_relation
from repro.rtree.bulk import bulk_load
from repro.rtree.rtree import RTree
from repro.storage.disk import SimulatedDisk
from tests.core.test_store import from_scratch_bytes, stored_bytes
from tests.reference import (
    generate_cuboid_signatures,
    signature_by_recursive_sort,
    tuple_paths,
)


def test_recursive_sort_empty():
    signature = signature_by_recursive_sort([], 4)
    assert list(signature.masks()) == []


def test_recursive_sort_single_path():
    signature = signature_by_recursive_sort([(2, 1, 3)], 4)
    assert signature == Signature.from_paths([(2, 1, 3)], 4)


def test_recursive_sort_validates_components():
    with pytest.raises(ValueError):
        signature_by_recursive_sort([(9,)], 4)


def test_recursive_sort_shared_prefixes():
    paths = [(1, 1, 1), (1, 1, 2), (1, 2, 1)]
    signature = signature_by_recursive_sort(paths, 2)
    assert signature == Signature.from_paths(paths, 2)
    assert set(tuple_paths(signature)) == set(paths)


@settings(max_examples=60, deadline=None)
@given(
    st.integers(min_value=2, max_value=10).flatmap(
        lambda m: st.tuples(
            st.just(m),
            st.lists(
                st.lists(
                    st.integers(min_value=1, max_value=m),
                    min_size=1,
                    max_size=5,
                ).map(tuple),
                max_size=40,
            ),
        )
    )
)
def test_recursive_sort_equals_from_paths(data):
    """The paper's algorithm and plain insertion agree on any input."""
    fanout, paths = data
    assert signature_by_recursive_sort(paths, fanout) == Signature.from_paths(
        paths, fanout
    )


@pytest.fixture
def relation_and_paths():
    schema = Schema(("A", "B"), ("X",))
    rng = random.Random(4)
    bool_rows = [(rng.randrange(3), rng.randrange(2)) for _ in range(60)]
    pref_rows = [(rng.random(),) for _ in range(60)]
    relation = Relation(schema, bool_rows, pref_rows)
    paths = {
        tid: (rng.randrange(1, 5), rng.randrange(1, 5), rng.randrange(1, 5))
        for tid in range(60)
    }
    return relation, paths


def test_generate_cuboid_signatures_covers_all_cells(relation_and_paths):
    relation, paths = relation_and_paths
    cuboid = Cuboid(("A",))
    signatures = generate_cuboid_signatures(relation, cuboid, paths, fanout=4)
    values = {relation.bool_value(tid, "A") for tid in relation.tids()}
    assert {cell.values[0] for cell in signatures} == values
    for cell, signature in signatures.items():
        member_paths = {
            paths[tid] for tid in relation.tids() if cell.matches(relation, tid)
        }
        assert set(tuple_paths(signature)) == member_paths


def test_generate_two_dim_cuboid(relation_and_paths):
    relation, paths = relation_and_paths
    cuboid = Cuboid(("A", "B"))
    signatures = generate_cuboid_signatures(relation, cuboid, paths, fanout=4)
    total = sum(
        len(list(tuple_paths(signature))) for signature in signatures.values()
    )
    # Tuples with identical paths within a cell collapse; with random
    # 3-component paths over [1,4]³ = 64 slots and ≤ 60 tuples, collisions
    # are possible but cells partition the relation.
    assert total <= 60
    cells = set(signatures)
    for tid in relation.tids():
        assert cuboid.cell_for(relation, tid) in cells


# --------------------------------------------------------------------------- #
# the build against its oracle
# --------------------------------------------------------------------------- #


def assert_cube_matches_oracle(pcube):
    """Every cell of every cuboid, two ways: the stored bits equal the
    recursive sort of its live members' paths, and the stored pages equal
    the oracle's ``decompose`` blob for blob.  A cell without a live
    member is not stored."""
    relation, store = pcube.relation, pcube.store
    paths = pcube.rtree.all_paths()
    expected = set()
    for cuboid in pcube.cuboids:
        for cell, members in cuboid.group(relation).items():
            oracle = signature_by_recursive_sort(
                [paths[tid] for tid in members], pcube.fanout
            )
            assert store.load_full_signature(cell) == oracle, cell
            assert stored_bytes(store, cell) == from_scratch_bytes(store, oracle), cell
            expected.add(cell.cell_id)
    assert expected and set(store.cells()) == expected


@pytest.mark.parametrize("tree_built_by", ["bulk", "insert"])
@pytest.mark.parametrize("tombstones", [False, True])
@pytest.mark.parametrize("fanout", [4, 70])
@pytest.mark.parametrize("lattice", ["atomic", "pairs"])
@pytest.mark.parametrize("seed", [3, 11])
def test_build_matches_the_oracle(seed, lattice, fanout, tombstones, tree_built_by):
    """Build, ``derive_all`` and ``recompute_cell`` all derive a cell by
    ORing its paths' bits per run (a fanout of 70 spreads a node over two
    64-bit words); Fig. 2b's recursive sort, which none of them runs, must
    agree with what each of them stored."""
    disk = SimulatedDisk(page_size=128)  # several partials per cell
    relation = generate_relation(
        SyntheticConfig(
            n_tuples=160, n_boolean=3, cardinality=4, n_preference=2, seed=seed
        ),
        disk=disk,
    )
    if tombstones:
        rng = random.Random(seed)
        for tid in rng.sample(range(len(relation)), 40):
            relation.tombstone(tid)
        # ... and one cell whose every member is gone.
        for tid in relation.tids():
            if relation.bool_row(tid)[0] == 0:
                relation.tombstone(tid)
    if tree_built_by == "bulk":
        rtree = bulk_load(list(relation.pref_points()), dims=2, max_entries=fanout, disk=disk)
    else:
        rtree = RTree(dims=2, max_entries=fanout, disk=disk)
        for tid, point in relation.pref_points():
            rtree.insert(tid, point)
    dims = relation.schema.boolean_dims
    cuboids = (
        atomic_cuboids(dims)
        if lattice == "atomic"
        else [Cuboid(pair) for pair in itertools.combinations(dims, 2)]
    )
    pcube = PCube.build(relation, rtree, cuboids)
    assert_cube_matches_oracle(pcube)

    some_cell = next(iter(cuboids[0].group(relation)))
    recomputed = pcube.recompute_cell(some_cell)
    paths = rtree.all_paths()
    assert recomputed == signature_by_recursive_sort(
        [
            paths[tid]
            for tid in relation.live_tids()
            if some_cell.matches(relation, tid)
        ],
        pcube.fanout,
    )
    assert_cube_matches_oracle(pcube)

    # Rows tombstoned under a built cube: one cell loses every member, and
    # a re-derivation drops it instead of keeping its stale bits.
    for tid in list(relation.live_tids()):
        if relation.bool_row(tid)[1] == 1:
            relation.tombstone(tid)
    pcube.derive_all()
    assert_cube_matches_oracle(pcube)
