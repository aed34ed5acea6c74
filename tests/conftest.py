"""Shared fixtures.

``paper_*`` fixtures reproduce the paper's running example exactly: the
eight-tuple database of Table I, the R-tree of Figure 1 (m = 1, M = 2) and
the paths ⟨1,1,1⟩ ... ⟨2,2,2⟩, so signature/assembly/maintenance behaviour
can be checked bit for bit against Figures 2-4.

The seeded data sets themselves live in :mod:`repro.data.fixtures`, shared
with ``benchmarks/conftest.py`` and the ``python -m benchmarks.sweeps`` runner so
every measurement path sees identical inputs; this module only wraps them
as pytest fixtures.
"""

from __future__ import annotations

import random

import pytest

from repro.cube.relation import Relation
from repro.data.fixtures import (
    PAPER_PATHS,
    PAPER_ROWS,
    build_paper_rtree,
    paper_relation as _paper_relation,
    small_config as _small_config,
)
from repro.data.synthetic import SyntheticConfig, generate_relation
from repro.rtree.rtree import RTree
from repro.system import build_system

__all__ = ["PAPER_PATHS", "PAPER_ROWS"]


@pytest.fixture
def paper_relation() -> Relation:
    return _paper_relation()


@pytest.fixture
def paper_rtree(paper_relation: Relation) -> RTree:
    """The exact R-tree of Figure 1: root → {N1, N2} → four leaves of two
    tuples each, in Table I's path order."""
    return build_paper_rtree(paper_relation)


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
