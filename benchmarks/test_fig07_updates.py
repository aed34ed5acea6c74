"""Figure 7: incremental update time vs number of inserted tuples.

Paper observations: incremental maintenance beats recomputation by orders
of magnitude, and batch maintenance amortises (their 1M run: 0.11 s for one
tuple vs 0.04 s/tuple averaged over 100).
"""

import random
import time

import pytest

from benchmarks.conftest import SWEEP_FANOUT, fmt_seconds, print_table, sweep_config
from repro.core.maintenance import insert_batch, insert_tuple
from repro.core.pcube import PCube
from repro.data.synthetic import generate_relation
from repro.system import build_system

BASE_T = 20_000
BATCH_SIZES = (1, 10, 100)
#: Timed rounds, each one run per side on a fresh system; the best run of
#: a side counts (as in the kernel sweep): one sample each let a busy host
#: invert the order.
REPEATS = 3


def fresh_system():
    relation = generate_relation(sweep_config(BASE_T))
    return build_system(relation, fanout=SWEEP_FANOUT)


def random_rows(n, rng, cardinality=100, dims=3):
    return [
        (
            tuple(rng.randrange(cardinality) for _ in range(3)),
            tuple(rng.random() for _ in range(dims)),
        )
        for _ in range(n)
    ]


def pages_written(disk):
    """Pages the disk has written so far: new pages and rewrites."""
    return disk.write_counters.get("ALLOC") + disk.write_counters.get("WRITE")


def insert_run(n_inserts, batched):
    """One run on a fresh system: its wall per inserted tuple, the pages it
    writes per inserted tuple (the same in every run) and the system."""
    system = fresh_system()
    new_rows = random_rows(n_inserts, random.Random(n_inserts))
    disk = system.relation.disk
    before = pages_written(disk)
    started = time.perf_counter()
    if batched:
        insert_batch(system.relation, system.rtree, system.pcube, new_rows)
    else:
        for bool_row, pref_row in new_rows:
            insert_tuple(
                system.relation, system.rtree, system.pcube, bool_row, pref_row
            )
    wall = time.perf_counter() - started
    return wall / n_inserts, (pages_written(disk) - before) / n_inserts, system


def insert_costs(n_inserts):
    """``{batched: (best wall per tuple, pages per tuple, last system)}``
    over ``REPEATS`` rounds.  Each round runs both sides, the side that goes
    first alternating, so a host that drifts during the measurement slows
    both sides alike instead of the one it happens to fall on."""
    best = {False: float("inf"), True: float("inf")}
    pages, systems = {}, {}
    for round_ in range(REPEATS):
        for batched in (round_ % 2 == 0, round_ % 2 == 1):
            wall, pages[batched], systems[batched] = insert_run(n_inserts, batched)
            best[batched] = min(best[batched], wall)
    return {side: (best[side], pages[side], systems[side]) for side in best}


@pytest.fixture(scope="module")
def update_timings():
    rows = []
    for n_inserts in BATCH_SIZES:
        costs = insert_costs(n_inserts)
        per_tuple, pages_one, _ = costs[False]
        per_batched, pages_batched, system = costs[True]
        # recomputation from scratch (signatures only; tree is shared)
        started = time.perf_counter()
        PCube.build(system.relation, system.rtree, tag="pcube-re")
        recompute = time.perf_counter() - started
        rows.append(
            (n_inserts, per_tuple, per_batched, recompute, pages_one, pages_batched)
        )
    return rows


def test_fig07_incremental_updates(update_timings):
    print_table(
        f"Figure 7: update cost, base T={BASE_T:,} (per inserted tuple)",
        [
            "#inserted",
            "one-by-one",
            "batched",
            "recompute(total)",
            "batch gain",
            "pages one-by-one",
            "pages batched",
        ],
        [
            [
                n,
                fmt_seconds(one),
                fmt_seconds(batch),
                fmt_seconds(re),
                f"{one / batch:.1f}x",
                f"{pages_one:.1f}",
                f"{pages_batched:.1f}",
            ]
            for n, one, batch, re, pages_one, pages_batched in update_timings
        ],
    )
    for n_inserts, per_tuple, per_batched, recompute, pages_one, pages_batched in (
        update_timings
    ):
        # Incremental maintenance beats full recomputation per tuple ...
        assert per_tuple < recompute
        assert per_batched < recompute
        # ... and batching amortises for non-trivial batches: in the pages
        # it writes, and in time.
        if n_inserts == max(BATCH_SIZES):
            assert pages_batched < pages_one
            assert per_batched < per_tuple
