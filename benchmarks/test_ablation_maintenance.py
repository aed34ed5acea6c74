"""Ablation: counted-signature patching vs full cell recomputation.

DESIGN.md design decision: counted signatures give O(path length) updates
per affected cell; the paper's fallback recomputes a cell's signature from
the tree.  This bench measures the gap, and the split policies' effect on
update cost (R* forced re-insertion moves more tuples per insert).
"""

import random
import time

import pytest

from benchmarks.conftest import SWEEP_FANOUT, fmt_seconds, print_table, sweep_config
from repro.core.maintenance import insert_tuple
from repro.cube.cuboid import Cuboid
from repro.data.synthetic import generate_relation
from repro.system import build_system

T = 10_000
N_UPDATES = 50


def timed_updates(split: str) -> tuple[float, float]:
    relation = generate_relation(sweep_config(T, seed=21))
    system = build_system(
        relation, fanout=SWEEP_FANOUT, with_indexes=False, split=split
    )
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

    # Recompute path: patch one cell from scratch per insert instead.
    cuboid = Cuboid(("A1",))
    started = time.perf_counter()
    for _ in range(10):
        tid = rng.randrange(len(system.relation))
        cell = cuboid.cell_for(system.relation, tid)
        system.pcube.recompute_cell(cell)
    recompute = (time.perf_counter() - started) / 10
    return incremental, recompute


@pytest.fixture(scope="module")
def maintenance_timings():
    return {
        split: timed_updates(split)
        for split in ("quadratic", "linear", "rstar")
    }


def test_ablation_maintenance_strategies(maintenance_timings):
    rows = []
    for split, (incremental, recompute) in maintenance_timings.items():
        rows.append(
            [
                split,
                fmt_seconds(incremental),
                fmt_seconds(recompute),
                f"{recompute / incremental:.1f}x",
            ]
        )
        # Counted patching beats per-cell recomputation decisively.
        assert incremental < recompute
    print_table(
        f"Ablation: incremental patching vs cell recomputation "
        f"(T={T:,}, per operation)",
        ["split policy", "counted patch", "recompute cell", "gap"],
        rows,
    )
