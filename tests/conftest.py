"""Shared fixtures.

``paper_*`` fixtures reproduce the paper's running example exactly: the
eight-tuple database of Table I, the R-tree of Figure 1 (m = 1, M = 2) and
the paths ⟨1,1,1⟩ ... ⟨2,2,2⟩, so signature/assembly/maintenance behaviour
can be checked bit for bit against Figures 2-4.

The seeded data sets themselves live in :mod:`repro.data.fixtures`, shared
with ``benchmarks/conftest.py`` and the ``python -m benchmarks.sweeps`` runner so
every measurement path sees identical inputs; this module wraps them as
pytest fixtures, and builds the paper example's relation and tree from its
rows.
"""

from __future__ import annotations

import random

import numpy as np
import pytest

from repro.cube.relation import Relation
from repro.cube.schema import Schema
from repro.data.fixtures import (
    PAPER_PATHS,
    PAPER_ROWS,
    small_config as _small_config,
)
from repro.data.synthetic import SyntheticConfig, generate_relation
from repro.rtree.node import Entry
from repro.rtree.rtree import RTree
from repro.system import build_system

__all__ = ["PAPER_PATHS", "PAPER_ROWS"]


@pytest.fixture
def paper_relation() -> Relation:
    """Table I as a fresh :class:`Relation` (schema A, B | X, Y)."""
    schema = Schema(("A", "B"), ("X", "Y"))
    bool_rows = [(a, b) for a, b, _, _ in PAPER_ROWS]
    pref_rows = [(x, y) for _, _, x, y in PAPER_ROWS]
    return Relation(schema, bool_rows, pref_rows)


@pytest.fixture
def paper_rtree(paper_relation: Relation) -> RTree:
    """The exact R-tree of Figure 1: root → {N1, N2} → four leaves of two
    tuples each, in Table I's path order."""
    relation = paper_relation
    tree = RTree(dims=2, max_entries=2, min_entries=1)
    leaves = []
    for first in range(0, 8, 2):
        leaf = tree._new_node(level=0)
        for tid in (first, first + 1):
            leaf.add_point(tid, relation.pref_point(tid))
        tree._sync_page(leaf)
        leaves.append(leaf)
    inner = []
    for half in range(2):
        node = tree._new_node(level=1)
        for leaf in leaves[2 * half : 2 * half + 2]:
            node.add_entry(Entry(leaf.mbr(), child=leaf))
        tree._sync_page(node)
        inner.append(node)
    root = tree._new_node(level=2)
    for node in inner:
        root.add_entry(Entry(node.mbr(), child=node))
    tree._sync_page(root)

    tree._adopt_bulk(root, leaves, [2] * 4, np.arange(8))
    return tree


@pytest.fixture
def rng() -> random.Random:
    return random.Random(20080401)


@pytest.fixture(scope="session")
def small_config() -> SyntheticConfig:
    return _small_config()


@pytest.fixture(scope="session")
def small_relation(small_config):
    return generate_relation(small_config)


@pytest.fixture(scope="session")
def small_system(small_relation):
    """A session-scoped, read-only built system for query-correctness tests.

    Tests that mutate state must build their own (see ``fresh_system``).
    """
    return build_system(small_relation, fanout=8)


@pytest.fixture
def fresh_system():
    """Factory for private mutable systems."""

    def _build(
        n_tuples: int = 600,
        n_boolean: int = 2,
        cardinality: int = 5,
        n_preference: int = 2,
        seed: int = 23,
        **kwargs,
    ):
        config = SyntheticConfig(
            n_tuples=n_tuples,
            n_boolean=n_boolean,
            cardinality=cardinality,
            n_preference=n_preference,
            seed=seed,
        )
        relation = generate_relation(config)
        kwargs.setdefault("fanout", 6)
        return build_system(relation, **kwargs)

    return _build
