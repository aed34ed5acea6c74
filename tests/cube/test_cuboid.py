"""Cells, cuboids and the lattice."""

import random

import numpy as np
import pytest

from repro.cube.cuboid import Cell, Cuboid, atomic_cuboids
from repro.cube.relation import Relation
from repro.cube.schema import Schema


@pytest.fixture
def relation():
    schema = Schema(("A", "B", "C"), ("X",))
    bool_rows = [
        ("a1", "b1", "c1"),
        ("a1", "b2", "c1"),
        ("a2", "b1", "c2"),
        ("a1", "b1", "c2"),
    ]
    pref_rows = [(0.1,), (0.2,), (0.3,), (0.4,)]
    return Relation(schema, bool_rows, pref_rows)


def test_cell_id_canonical():
    cell = Cell(("A", "B"), ("a1", "b2"))
    assert cell.cell_id == "A=a1&B=b2"
    assert str(cell) == "A=a1&B=b2"


def test_cell_validation():
    with pytest.raises(ValueError):
        Cell(("A", "B"), ("a1",))
    with pytest.raises(ValueError):
        Cell(("A", "A"), ("a1", "a2"))


def test_cell_matches(relation):
    cell = Cell(("A", "B"), ("a1", "b1"))
    assert cell.matches(relation, 0)
    assert not cell.matches(relation, 1)
    assert cell.matches(relation, 3)


def test_cells_hashable_and_equal():
    assert Cell(("A",), ("a1",)) == Cell(("A",), ("a1",))
    assert len({Cell(("A",), ("a1",)), Cell(("A",), ("a1",))}) == 1


def test_cuboid_group(relation):
    groups = Cuboid(("A",)).group(relation)
    assert groups[Cell(("A",), ("a1",))] == [0, 1, 3]
    assert groups[Cell(("A",), ("a2",))] == [2]


def test_cuboid_group_multi_dim(relation):
    groups = Cuboid(("A", "B")).group(relation)
    assert groups[Cell(("A", "B"), ("a1", "b1"))] == [0, 3]
    assert len(groups) == 3


def as_groups(cells, labels):
    """``Cuboid.label``'s arrays as ``Cuboid.group``'s dict."""
    return {
        cell: [tid for tid, label in enumerate(labels.tolist()) if label == i]
        for i, cell in enumerate(cells)
    }


@pytest.mark.parametrize("dims", [("A",), ("C",), ("A", "B"), ("C", "A", "B")])
@pytest.mark.parametrize("numeric", [False, True])
def test_label_is_group_as_arrays(dims, numeric):
    """Same cells, same first-appearance order, same members — over the
    dictionary-coded columns of string values and the raw integer columns
    of a generated matrix, with tombstones left out or kept."""
    rng = random.Random(len(dims) + numeric)
    rows = [
        tuple(rng.randrange(3) if numeric else rng.choice("xyz") for _ in "ABC")
        for _ in range(200)
    ]
    schema = Schema(("A", "B", "C"), ("X",))
    prefs = [(0.5,)] * len(rows)
    relation = (
        Relation(schema, np.array(rows), np.array(prefs))
        if numeric
        else Relation(schema, rows, prefs)
    )
    for tid in rng.sample(range(len(rows)), 40):
        relation.tombstone(tid)
    cuboid = Cuboid(dims)
    for include_tombstoned in (False, True):
        expected = cuboid.group(relation, include_tombstoned=include_tombstoned)
        cells, labels = cuboid.label(relation, include_tombstoned=include_tombstoned)
        assert list(as_groups(cells, labels).items()) == list(expected.items())
        assert [cell.values for cell in cells] == [cell.values for cell in expected]


def test_cuboid_cell_for(relation):
    cuboid = Cuboid(("B", "C"))
    assert cuboid.cell_for(relation, 2) == Cell(("B", "C"), ("b1", "c2"))


def test_cuboid_duplicate_dim_rejected():
    with pytest.raises(ValueError):
        Cuboid(("A", "A"))


def test_atomic_cuboids():
    cuboids = atomic_cuboids(("A", "B", "C"))
    assert [c.dims for c in cuboids] == [("A",), ("B",), ("C",)]


def test_cuboid_repr_names_its_dims():
    assert repr(Cuboid(("A", "B"))) == "Cuboid(A,B)"
