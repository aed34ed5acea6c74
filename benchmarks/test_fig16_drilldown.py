"""Figure 16: drill-down queries vs equivalent fresh queries.

Paper observation: "We observe more than 10 times speed-up by caching the
previous intermediate results and re-constructing the candidate heap upon
them."  (Roll-up behaves similarly.)
"""

import pytest

from benchmarks.conftest import (
    SECONDS_PER_IO,
    covertype_predicates,
    fmt_seconds,
    print_table,
)


@pytest.fixture(scope="module")
def drilldown_sweep(covertype_system):
    import random

    system = covertype_system
    rng = random.Random(16)
    chain = covertype_predicates(system, rng)
    results = []
    current = system.engine.skyline(chain[0])
    for predicate in chain[1:]:
        (new_dim,) = set(predicate.dims()) - set(current.predicate.dims())
        drilled = system.engine.drill_down(
            current, new_dim, predicate.conjuncts[new_dim]
        )
        fresh = system.engine.skyline(predicate)
        assert set(drilled.tids) == set(fresh.tids)
        results.append((len(predicate), drilled.stats, fresh.stats))
        current = drilled
    # Roll-up ("the performance for roll-up query is similar"): walk back
    # up the same chain and compare against fresh queries too.
    rollups = []
    for predicate in reversed(chain[:-1]):
        (removed,) = set(current.predicate.dims()) - set(predicate.dims())
        rolled = system.engine.roll_up(current, removed)
        fresh = system.engine.skyline(predicate)
        assert set(rolled.tids) == set(fresh.tids)
        rollups.append((len(predicate), rolled.stats, fresh.stats))
        current = rolled
    return results, rollups


def test_fig16_drilldown_vs_new(drilldown_sweep):
    drilldown_sweep, rollup_sweep = drilldown_sweep
    rows = []
    for n_preds, drill_stats, fresh_stats in drilldown_sweep:
        drill_modeled = drill_stats.modeled_seconds(SECONDS_PER_IO)
        fresh_modeled = fresh_stats.modeled_seconds(SECONDS_PER_IO)
        rows.append(
            [
                n_preds,
                fmt_seconds(fresh_modeled),
                fmt_seconds(drill_modeled),
                fresh_stats.total_io(),
                drill_stats.total_io(),
                f"{fresh_modeled / drill_modeled:.1f}x",
            ]
        )
        # The incremental restart never reads more than the fresh search.
        assert drill_stats.total_io() <= fresh_stats.total_io()
    print_table(
        "Figure 16: drill-down vs new query "
        "(CoverType twin, modeled at 5 ms/page; paper: >10x speed-up)",
        ["#preds", "new", "drill", "new I/O", "drill I/O", "speedup"],
        rows,
    )
    # Deep drill-downs show substantial speed-ups.
    deepest = rows[-1]
    assert deepest[3] >= 2 * max(1, deepest[4])

    # Roll-up behaves "similarly" (paper's remark): never more I/O than a
    # fresh query on the relaxed predicate.
    rollup_rows = []
    for n_preds, rolled_stats, fresh_stats in rollup_sweep:
        rollup_rows.append(
            [
                n_preds,
                fresh_stats.total_io(),
                rolled_stats.total_io(),
                f"{fmt_seconds(rolled_stats.modeled_seconds(SECONDS_PER_IO))}",
            ]
        )
        assert rolled_stats.total_io() <= fresh_stats.total_io()
    print_table(
        "Figure 16 (companion): roll-up vs new query",
        ["#preds", "new I/O", "roll I/O", "roll@5ms"],
        rollup_rows,
    )
