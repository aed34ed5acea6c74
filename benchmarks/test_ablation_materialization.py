"""Ablation: atomic-only vs two-dimensional cuboid materialisation.

The paper materialises atomic cuboids and assembles conjunctions online
(Figures 14-15 argue that is "good enough"); partial materialisation of
low-dimensional cuboids ([19], [12]) is the alternative.  This bench
measures both sides of the trade on two-predicate queries: storage and
build time vs per-query block reads.
"""

import random
import time

import pytest

from benchmarks.conftest import SWEEP_FANOUT, fmt_seconds, print_table, sweep_config
from repro.core.integrity import iter_cell_checks
from repro.core.pcube import PCube
from repro.cube.cuboid import Cuboid, atomic_cuboids
from repro.data.synthetic import generate_relation
from repro.data.workload import sample_predicate
from repro.query.session import QuerySession
from repro.rtree.bulk import bulk_load

T = 20_000
N_QUERIES = 8


@pytest.fixture(scope="module")
def materialization_comparison():
    relation = generate_relation(sweep_config(T, cardinality=30, seed=19))
    rtree = bulk_load(
        list(relation.pref_points()),
        dims=relation.schema.n_preference,
        max_entries=SWEEP_FANOUT,
        disk=relation.disk,
    )
    dims = relation.schema.boolean_dims

    started = time.perf_counter()
    atomic = PCube.build(
        relation, rtree, cuboids=atomic_cuboids(dims), tag="pcube-atomic"
    )
    atomic_build = time.perf_counter() - started

    pair_cuboids = list(atomic_cuboids(dims)) + [
        Cuboid((dims[i], dims[j]))
        for i in range(len(dims))
        for j in range(i + 1, len(dims))
    ]
    started = time.perf_counter()
    rich = PCube.build(relation, rtree, cuboids=pair_cuboids, tag="pcube-rich")
    rich_build = time.perf_counter() - started

    rng = random.Random(20)
    atomic_io = rich_io = 0
    atomic_ssig = rich_ssig = 0
    for _ in range(N_QUERIES):
        predicate = sample_predicate(relation, 2, rng)
        on_a = QuerySession(relation, rtree, atomic).skyline(predicate)
        on_r = QuerySession(relation, rtree, rich).skyline(predicate)
        assert set(on_a.tids) == set(on_r.tids)
        atomic_io += on_a.stats.sblock
        rich_io += on_r.stats.sblock
        atomic_ssig += on_a.stats.ssig
        rich_ssig += on_r.stats.ssig
    return {
        "atomic": (
            atomic_build,
            relation.disk.size_mb("pcube-atomic"),
            atomic_io / N_QUERIES,
            atomic_ssig / N_QUERIES,
        ),
        "rich": (
            rich_build,
            relation.disk.size_mb("pcube-rich"),
            rich_io / N_QUERIES,
            rich_ssig / N_QUERIES,
        ),
        "built": (relation, rtree, rich),
    }


def test_ablation_materialization_depth(materialization_comparison):
    comparison = materialization_comparison
    rows = []
    for name in ("atomic", "rich"):
        build, size_mb, sblock, ssig = comparison[name]
        rows.append(
            [
                name,
                fmt_seconds(build),
                f"{size_mb:.2f}MB",
                f"{sblock:.0f}",
                f"{ssig:.1f}",
            ]
        )
    print_table(
        f"Ablation: atomic vs atomic+pairs materialisation "
        f"(T={T:,}, 2-predicate skylines)",
        ["cuboids", "build", "size", "SBlock/query", "SSig/query"],
        rows,
    )
    atomic_build, atomic_size, atomic_sblock, _ = comparison["atomic"]
    rich_build, rich_size, rich_sblock, _ = comparison["rich"]
    # Materialising pairs costs build time and space ...
    assert rich_build > atomic_build
    assert rich_size > atomic_size
    # ... and buys partial loads, not pruning: the assembled intersection
    # of two atomic cells sets exactly the pair cell's bits.
    assert rich_sblock == atomic_sblock
    assert comparison["rich"][3] <= comparison["atomic"][3]


def test_audit_lattice_rule_on_the_rich_cuboids(materialization_comparison):
    """The audit's "assembled ≡ generated for every materialised pair"
    (``core/integrity.py``) over every pair cell of the rich P-Cube."""
    relation, rtree, rich = materialization_comparison["built"]
    pairs = 0
    for cell, problems in iter_cell_checks(
        relation,
        rtree.all_paths(),
        rich.cuboids,
        rich.fanout,
        rich.signature_of,
        rich.counted_of,
    ):
        assert problems == [], cell
        pairs += len(cell.dims) == 2
    print(f"\naudit: {pairs} materialised pair cells, assembled ≡ generated")
    assert pairs > 100
