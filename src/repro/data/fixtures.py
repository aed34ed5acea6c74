"""Seeded data-set fixtures: every input the repo measures against.

They live in the product, beside :mod:`repro.data.workload`, because the
CLIs use them (``serve --smoke``, ``audit``, ``backup``); everything that
*measures* the system lives under ``benchmarks/`` and builds its relations
here, as ``tests/`` does — a bench regression replays under a debugger from
the test suite on the identical input, and vice versa.

Three families:

* the **paper example** — Table I's eight tuples and the ⟨1,1,1⟩ ...
  ⟨2,2,2⟩ paths of its Figure 1 R-tree (m = 1, M = 2), for bit-exact
  checks against Figures 2-4 (``tests/conftest.py`` builds the relation
  and the tree from them);
* the **synthetic sweeps** — the paper's default setting (Db = Dp = 3,
  C = 100, uniform) at the scaled-down sizes of EXPERIMENTS.md, with the
  same derived per-size seed everywhere;
* the **CoverType twin** — the real-data schema of Figures 14-16.
"""

from __future__ import annotations

import random

from repro.data.synthetic import SyntheticConfig, generate_relation
from repro.storage.disk import SimulatedDisk
from repro.system import PCubeSystem, build_system

# --------------------------------------------------------------------- #
# the paper's running example (Table I / Figure 1)
# --------------------------------------------------------------------- #

#: Table I, in order t1..t8 (tids 0..7).
PAPER_ROWS = [
    # (A,    B,    X,     Y)
    ("a1", "b1", 0.00, 0.40),
    ("a2", "b2", 0.20, 0.60),
    ("a1", "b1", 0.30, 0.70),
    ("a3", "b3", 0.50, 0.40),
    ("a4", "b1", 0.60, 0.00),
    ("a2", "b3", 0.72, 0.30),
    ("a4", "b2", 0.72, 0.36),
    ("a3", "b3", 0.85, 0.62),
]

#: The paths column of Table I (1-based slot positions, root first).
PAPER_PATHS = {
    0: (1, 1, 1),
    1: (1, 1, 2),
    2: (1, 2, 1),
    3: (1, 2, 2),
    4: (2, 1, 1),
    5: (2, 1, 2),
    6: (2, 2, 1),
    7: (2, 2, 2),
}


# --------------------------------------------------------------------- #
# synthetic sweeps (the scaled-down Section VI setting)
# --------------------------------------------------------------------- #

#: The scalability sweep (paper: 1M, 5M, 10M).
SWEEP_SIZES = (10_000, 20_000, 50_000)
#: Queries averaged per data point.
N_QUERIES = 5
#: Modeled random-access latency (2008-era disk).
SECONDS_PER_IO = 0.005
#: R-tree fanout for the synthetic sweeps (keeps height 3 at 50k tuples).
SWEEP_FANOUT = 64


def sweep_config(n_tuples: int, **overrides) -> SyntheticConfig:
    """The paper's default synthetic setting: Db = Dp = 3, C = 100.

    The per-size data seed is derived from ``n_tuples`` alone, so every
    consumer — pytest benchmark, bench runner, ad-hoc script — generates
    the same relation for the same size.
    """
    params = dict(
        n_tuples=n_tuples,
        n_boolean=3,
        cardinality=100,
        n_preference=3,
        distribution="uniform",
        seed=n_tuples % 97 + 7,
    )
    params.update(overrides)
    return SyntheticConfig(**params)


def build_sweep_system(
    n_tuples: int, fanout: int = SWEEP_FANOUT, **overrides
) -> PCubeSystem:
    """One fully built sweep system (relation + R-tree + P-Cube)."""
    relation = generate_relation(sweep_config(n_tuples, **overrides))
    return build_system(relation, fanout=fanout)


def build_scenario_system(
    n_tuples: int, seed: int, fanout: int = 6, disk=None, **build_options
) -> PCubeSystem:
    """The maintenance scenarios' system (``audit``, ``backup``, the
    durability sweep's recovery points): Db = Dp = 2 at the default
    cardinality, small enough to rebuild per invocation, on ``disk`` or a
    fresh :class:`SimulatedDisk` of its own."""
    config = SyntheticConfig(
        n_tuples=n_tuples, n_boolean=2, n_preference=2, seed=seed
    )
    if disk is None:
        disk = SimulatedDisk()
    return build_system(
        generate_relation(config, disk=disk), fanout=fanout, **build_options
    )


def small_config() -> SyntheticConfig:
    """The unit-test workhorse: 1.5k tuples, Db = 3 at C = 8, Dp = 2."""
    return SyntheticConfig(
        n_tuples=1500,
        n_boolean=3,
        cardinality=8,
        n_preference=2,
        distribution="uniform",
        seed=11,
    )


# --------------------------------------------------------------------- #
# the CoverType twin (Figures 14-16)
# --------------------------------------------------------------------- #

#: Row count of the scaled-down CoverType twin used everywhere.
COVERTYPE_ROWS = 40_000


def build_covertype_system(
    n_rows: int = COVERTYPE_ROWS, fanout: int = SWEEP_FANOUT
) -> PCubeSystem:
    from repro.data.covertype import covertype_relation

    relation = covertype_relation(n_rows=n_rows)
    return build_system(relation, fanout=fanout)


def covertype_predicates(
    system: PCubeSystem, rng: random.Random, max_conjuncts: int = 4
):
    """A nested predicate chain over the high-cardinality attributes,
    anchored at a live tuple (the Figure 14-16 workload)."""
    from repro.data.workload import sample_predicate

    relation = system.relation
    dims = relation.schema.boolean_dims[:max_conjuncts]
    predicate = sample_predicate(relation, 1, rng, dims=dims[:1])
    chain = [predicate]
    for dim in dims[1:]:
        anchor = next(
            tid for tid in relation.tids() if predicate.matches(relation, tid)
        )
        predicate = predicate.drill_down(
            dim, relation.bool_value(anchor, dim)
        )
        chain.append(predicate)
    return chain
