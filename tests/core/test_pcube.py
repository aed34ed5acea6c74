"""PCube: build, readers, assembly fallbacks, size accounting."""

import pytest

from repro.core.pcube import PCube
from repro.core.readers import EmptyReader, SignatureAdapter
from repro.core.signature import Signature
from repro.cube.cuboid import Cell, Cuboid
from repro.rtree.rtree import PathChange
from tests.reference import tuple_paths


@pytest.fixture
def system(fresh_system):
    return fresh_system(n_tuples=400, n_boolean=2, cardinality=4, seed=8)


def expected_signature(system, cell):
    paths = system.rtree.all_paths()
    return Signature.from_paths(
        [
            paths[tid]
            for tid in system.relation.tids()
            if cell.matches(system.relation, tid)
        ],
        system.rtree.max_entries,
    )


def test_build_materialises_atomic_cuboids(system):
    pcube = system.pcube
    assert [c.dims for c in pcube.cuboids] == [("A1",), ("A2",)]
    for dim in ("A1", "A2"):
        for value in range(4):
            cell = Cell((dim,), (value,))
            assert pcube.store.has_cell(cell)
            assert pcube.signature_of(cell) == expected_signature(system, cell)


def test_missing_cell_not_materialised(system):
    assert not system.pcube.store.has_cell(Cell(("A1",), (99,)))
    assert not system.pcube.signature_of(Cell(("A1",), (99,)))


def test_reader_for_single_cell(system):
    cell = Cell(("A1",), (1,))
    reader = system.engine.pcube.reader_for_cells([cell])
    signature = expected_signature(system, cell)
    for path in tuple_paths(signature):
        assert reader.check_path(path)


def test_reader_for_conjunction_is_exact_at_tuples(system):
    cells = [Cell(("A1",), (1,)), Cell(("A2",), (2,))]
    reader = system.engine.pcube.reader_for_cells(cells)
    conjunction = Cell(("A1", "A2"), (1, 2))
    paths = system.rtree.all_paths()
    for tid in system.relation.tids():
        expected = conjunction.matches(system.relation, tid)
        assert reader.check_path(paths[tid]) == expected


def test_reader_for_conjunction_equals_recursive_intersection(system):
    """The assembled reader answers every node of the tree with the bits of
    the paper's recursive intersection, to the tree's own leaf depth."""
    from repro.core.ops import intersect
    from tests.core.test_assembled_reader import node_paths

    cells = [Cell(("A1",), (0,)), Cell(("A2",), (3,))]
    reader = system.engine.pcube.reader_for_cells(cells)
    assert reader.leaf_depth == system.rtree.root.level
    expected = intersect(
        expected_signature(system, cells[0]),
        expected_signature(system, cells[1]),
    )
    oracle = SignatureAdapter(expected)
    full = (1 << system.rtree.max_entries) - 1
    paths = node_paths(system)
    assert len(paths) > len(list(expected.node_sids())) > 1
    for path in paths:
        assert reader.check_block(path, full) == oracle.check_block(path, full)


def test_reader_for_an_unmaterialised_pair_assembles_its_atoms(system):
    cell = Cell(("A1", "A2"), (1, 2))
    assert not system.pcube.store.has_cell(cell)
    reader = system.engine.pcube.reader_for_predicate({"A1": 1, "A2": 2})
    paths = system.rtree.all_paths()
    for tid in system.relation.tids():
        assert reader.check_path(paths[tid]) == cell.matches(
            system.relation, tid
        )


def test_reader_for_dead_value_is_empty_reader(system):
    reader = system.engine.pcube.reader_for_predicate({"A1": 99})
    assert isinstance(reader, EmptyReader)
    assert not reader.check_path(())
    assert not reader.check_path((1,))


def test_reader_requires_cells(system):
    with pytest.raises(ValueError):
        system.engine.pcube.reader_for_cells([])


def test_multidim_cuboid_materialisation(fresh_system):
    system = fresh_system(n_tuples=200, n_boolean=2, cardinality=3, seed=5)
    relation, rtree = system.relation, system.rtree
    cuboids = [Cuboid(("A1",)), Cuboid(("A2",)), Cuboid(("A1", "A2"))]
    pcube = PCube.build(relation, rtree, cuboids=cuboids, tag="pcube2")
    cell = Cell(("A1", "A2"), (1, 1))
    if pcube.store.has_cell(cell):
        paths = rtree.all_paths()
        expected = Signature.from_paths(
            [
                paths[tid]
                for tid in relation.tids()
                if cell.matches(relation, tid)
            ],
            rtree.max_entries,
        )
        assert pcube.signature_of(cell) == expected


def test_size_accounting(system):
    assert system.disk.size_bytes(system.pcube.tag) > 0
    assert system.pcube.n_cells() == 8  # 2 dims x 4 values


def test_recompute_cell(system):
    cell = Cell(("A1",), (2,))
    recomputed = system.pcube.recompute_cell(cell)
    assert recomputed == expected_signature(system, cell)


def test_rebuild_cell_is_the_one_rebuild_entry_point(system):
    """A quarantined cell is regenerated from the relation and the R-tree:
    fresh pages replace the old ones (freed), the quarantine lifts, and the
    quarantine and the rebuild are each counted once."""
    pcube, store, disk = system.pcube, system.pcube.store, system.disk
    cell = Cell(("A1",), (2,))
    old_pages = set(store.directory_snapshot()[cell.cell_id].values())
    n_partials = store.n_partials(cell)
    store.quarantine(cell, "corrupt page")
    store.quarantine(cell, "again")  # re-quarantining is not double-counted
    assert store.quarantined_cells() == [cell]
    assert store.fault_stats.quarantines == 1

    rebuilt = pcube.rebuild_cell(cell)
    assert rebuilt == expected_signature(system, cell)
    assert pcube.signature_of(cell) == rebuilt
    assert cell not in store.quarantined_cells()
    assert store.fault_stats.rebuilds == 1
    assert store.n_partials(cell) == n_partials
    assert not old_pages & set(store.directory_snapshot()[cell.cell_id].values())
    # The old pages wait for pinned readers: the epoch manager frees them
    # at the next publish.
    assert old_pages <= system.epochs.deferred_pages()
    with system.epochs.write():
        system.epochs.publish()
    assert not any(disk.exists(page_id) for page_id in old_pages)
    assert not hasattr(store, "rebuild_cell")


def test_apply_changes_without_a_moved_path_rewrites_nothing(fresh_system):
    system = fresh_system(n_tuples=100, seed=3)
    before = system.disk.write_counters.snapshot()
    assert system.pcube.apply_changes([]) == set()
    assert system.pcube.apply_changes([PathChange(5, (1, 2), (1, 2))]) == set()
    assert system.disk.write_counters.snapshot() == before


def test_repr(system):
    assert "PCube" in repr(system.pcube)


def test_recompute_cells_derives_cells_of_several_cuboids_in_the_given_order(
    system,
):
    """One pass per cuboid, stored in the caller's order: here the cells
    of a pair cuboid interleave with their atomic factors'."""
    pcube = PCube.build(
        system.relation,
        system.rtree,
        [Cuboid(("A1",)), Cuboid(("A1", "A2")), Cuboid(("A2",))],
        tag="pcube-mixed",
    )
    cells = [
        Cell(("A1", "A2"), (2, 1)),
        Cell(("A1",), (2,)),
        Cell(("A2",), (1,)),
        Cell(("A1", "A2"), (0, 3)),
    ]
    stored = []
    derived = pcube.recompute_cells(cells, on_cell_stored=stored.append)
    assert stored == cells
    for cell, signature in zip(cells, derived):
        assert signature == expected_signature(system, cell)
        assert pcube.signature_of(cell) == signature
