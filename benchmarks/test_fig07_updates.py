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


def fresh_system():
    relation = generate_relation(sweep_config(BASE_T))
    return build_system(relation, fanout=SWEEP_FANOUT, with_indexes=False)


def random_rows(n, rng, cardinality=100, dims=3):
    return [
        (
            tuple(rng.randrange(cardinality) for _ in range(3)),
            tuple(rng.random() for _ in range(dims)),
        )
        for _ in range(n)
    ]


@pytest.fixture(scope="module")
def update_timings():
    rows = []
    for n_inserts in BATCH_SIZES:
        # one-by-one
        system = fresh_system()
        rng = random.Random(n_inserts)
        new_rows = random_rows(n_inserts, rng)
        started = time.perf_counter()
        for bool_row, pref_row in new_rows:
            insert_tuple(
                system.relation, system.rtree, system.pcube, bool_row, pref_row
            )
        per_tuple = (time.perf_counter() - started) / n_inserts

        # batched
        system = fresh_system()
        rng = random.Random(n_inserts)
        new_rows = random_rows(n_inserts, rng)
        started = time.perf_counter()
        insert_batch(system.relation, system.rtree, system.pcube, new_rows)
        per_batched = (time.perf_counter() - started) / n_inserts

        # recomputation from scratch (signatures only; tree is shared)
        started = time.perf_counter()
        PCube.build(system.relation, system.rtree, tag="pcube-re")
        recompute = time.perf_counter() - started
        rows.append((n_inserts, per_tuple, per_batched, recompute))
    return rows


def test_fig07_incremental_updates(update_timings):
    print_table(
        f"Figure 7: update cost, base T={BASE_T:,} (per inserted tuple)",
        ["#inserted", "one-by-one", "batched", "recompute(total)", "batch gain"],
        [
            [
                n,
                fmt_seconds(one),
                fmt_seconds(batch),
                fmt_seconds(re),
                f"{one / batch:.1f}x",
            ]
            for n, one, batch, re in update_timings
        ],
    )
    for n_inserts, per_tuple, per_batched, recompute in update_timings:
        # Incremental maintenance beats full recomputation per tuple ...
        assert per_tuple < recompute
        assert per_batched < recompute
        # ... and batching amortises for non-trivial batches.
        if n_inserts == max(BATCH_SIZES):
            assert per_batched < per_tuple
