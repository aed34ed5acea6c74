"""Extension bench: Section VII preference queries on the same cube.

Demonstrates that the P-Cube built once serves all four preference-query
types — static skyline, dynamic skyline, top-k, lower convex hull — and
that signature pruning pays off for each (block reads vs the same query
without boolean pruning plus post-filtering, i.e. the Domination style).
"""

import random

import pytest

from benchmarks.conftest import SWEEP_SIZES, print_table
from repro.data.workload import sample_linear_function, sample_predicate
from repro.query.dynamic import DynamicSkylineStrategy
from repro.query.algorithm1 import run_algorithm1
from repro.query.stats import QueryStats
from repro.storage.counters import DBLOCK


@pytest.fixture(scope="module")
def extension_comparison():
    # 2-D system for the hull; rebuild a small 2-D one.
    from benchmarks.conftest import SWEEP_FANOUT, sweep_config
    from repro.data.synthetic import generate_relation
    from repro.system import build_system

    relation = generate_relation(
        sweep_config(SWEEP_SIZES[0], n_preference=2, seed=77)
    )
    system = build_system(relation, fanout=SWEEP_FANOUT)
    rng = random.Random(21)
    predicate = sample_predicate(relation, 1, rng)
    query_point = (rng.random(), rng.random())
    fn = sample_linear_function(2, rng)

    rows = []

    engine = system.engine
    rows.append(("static skyline", engine.skyline(predicate).stats))
    rows.append((
        "dynamic skyline",
        engine.dynamic_skyline(query_point, predicate).stats,
    ))
    rows.append(("top-20", engine.topk(fn, 20, predicate).stats))
    rows.append(("lower hull", engine.lower_hull(predicate).stats))

    # The no-signature baseline for the dynamic skyline (predicate-blind
    # search + verification), for the pruning-benefit column.
    blind_stats = QueryStats()
    run_algorithm1(
        engine.rtree,
        DynamicSkylineStrategy(query_point),
        blind_stats,
        reader=None,
        verifier=lambda tid: predicate.matches(relation, tid),
        block_category=DBLOCK,
        keep_lists=False,
    )
    return rows, blind_stats


def test_ext_all_preference_queries_share_the_cube(extension_comparison):
    rows, blind_stats = extension_comparison
    table = [
        [name, stats.sblock, stats.ssig, stats.results]
        for name, stats in rows
    ]
    table.append(
        ["dynamic w/o signature", blind_stats.dblock, 0, blind_stats.results]
    )
    print_table(
        "Extension: one P-Cube, four preference-query types "
        f"(T={SWEEP_SIZES[0]:,}, single predicate)",
        ["query", "blocks", "SSig", "results"],
        table,
    )
    # Signature pruning benefits the dynamic skyline exactly as it does
    # the static one: far fewer block reads than the predicate-blind run.
    dynamic_stats = rows[1][1]
    assert dynamic_stats.sblock < blind_stats.dblock
    # Every query type used the cube (loaded at least one partial).
    for _, stats in rows:
        assert stats.ssig >= 1
