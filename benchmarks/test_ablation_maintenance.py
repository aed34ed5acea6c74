"""Ablation: bit patching vs full cell recomputation.

DESIGN.md design decision: editing a cell's stored bits along the changed
paths (paper Section IV-B.3) costs O(path length) per affected cell; the
paper's fallback recomputes a cell's signature from the tree.  This bench
measures the gap.  It also checks that its inserts add
no R-tree node (a split adds at least one): into STR-packed leaves of fanout
64 every insert here is the paper's "insertion without node splits".
"""

import random
import time

from benchmarks.conftest import SWEEP_FANOUT, fmt_seconds, print_table, sweep_config
from repro.core.maintenance import insert_tuple
from repro.cube.cuboid import Cuboid
from repro.data.synthetic import generate_relation
from repro.system import build_system

T = 10_000
N_UPDATES = 50


def timed_updates() -> tuple[float, float, int]:
    relation = generate_relation(sweep_config(T, seed=21))
    system = build_system(relation, fanout=SWEEP_FANOUT, with_indexes=False)
    nodes_before = system.rtree.node_count()
    rng = random.Random(4)
    started = time.perf_counter()
    for _ in range(N_UPDATES):
        insert_tuple(
            system.relation,
            system.rtree,
            system.pcube,
            tuple(rng.randrange(100) for _ in range(3)),
            tuple(rng.random() for _ in range(3)),
        )
    incremental = (time.perf_counter() - started) / N_UPDATES
    nodes_added = system.rtree.node_count() - nodes_before

    # Recompute path: patch one cell from scratch per insert instead.
    cuboid = Cuboid(("A1",))
    started = time.perf_counter()
    for _ in range(10):
        tid = rng.randrange(len(system.relation))
        cell = cuboid.cell_for(system.relation, tid)
        system.pcube.recompute_cell(cell)
    recompute = (time.perf_counter() - started) / 10
    return incremental, recompute, nodes_added


def test_ablation_maintenance_strategies():
    incremental, recompute, nodes_added = timed_updates()
    print_table(
        f"Ablation: incremental patching vs cell recomputation "
        f"(T={T:,}, per operation)",
        ["nodes added", "bit patch", "recompute cell", "gap"],
        [
            [
                nodes_added,
                fmt_seconds(incremental),
                fmt_seconds(recompute),
                f"{recompute / incremental:.1f}x",
            ]
        ],
    )
    # No insert split a node, so the split policy never ran here.
    assert nodes_added == 0
    # Bit patching beats per-cell recomputation decisively.
    assert incremental < recompute
