#!/usr/bin/env python3
"""An analyst session on the (simulated) Forest CoverType data set.

Reproduces the paper's real-data scenario (Section VI-B.4) as a runnable
walkthrough: skyline queries with 1-4 boolean predicates, executed three
ways (Signature, Boolean-first, Domination-first), followed by an
incremental drill-down chain — printing the disk-access breakdowns that
Figures 14-16 chart.

The data is an offline synthetic twin of CoverType with the original's
schema and cardinalities (see DESIGN.md §4).

Run:  python examples/covertype_drilldown.py [n_rows]
"""

import random
import sys

from repro import build_system
from repro.baselines import boolean_first_skyline, domination_first_skyline
from repro.data.covertype import covertype_relation, scale_factor
from repro.data.workload import sample_predicate


def main() -> None:
    n_rows = int(sys.argv[1]) if len(sys.argv) > 1 else 40_000
    print(
        f"Generating CoverType twin: {n_rows:,} rows "
        f"(scale {scale_factor(n_rows):.3f} of the original 581,012) ..."
    )
    relation = covertype_relation(n_rows=n_rows)
    system = build_system(relation)
    rng = random.Random(2008)

    # --- one query per predicate count, three methods --------------------- #
    print(f"\n{'#preds':<7} {'method':<12} {'time(ms)':>9} {'disk I/O':>9} "
          f"{'peak heap':>10} {'skyline':>8}")
    # Draw predicates over the four high-cardinality attributes so the
    # selection stays selective, like the paper's workloads.
    high_card_dims = relation.schema.boolean_dims[:4]
    predicate = sample_predicate(relation, 1, rng, dims=high_card_dims)
    for n_preds in range(1, 5):
        if len(predicate) < n_preds:
            dim = next(
                d for d in high_card_dims if d not in predicate.dims()
            )
            anchor = next(
                tid
                for tid in relation.tids()
                if predicate.matches(relation, tid)
            )
            predicate = predicate.drill_down(
                dim, relation.bool_value(anchor, dim)
            )
        engine = system.engine  # every method reads its snapshot
        sig = engine.skyline(predicate)
        print(
            f"{n_preds:<7} {'Signature':<12} "
            f"{sig.stats.elapsed_seconds * 1000:>9.1f} "
            f"{sig.stats.total_io():>9} {sig.stats.peak_heap:>10} "
            f"{len(sig):>8}"
        )
        bool_tids, bool_stats = boolean_first_skyline(
            engine.relation, system.indexes, predicate
        )
        print(
            f"{'':<7} {'Boolean':<12} "
            f"{bool_stats.elapsed_seconds * 1000:>9.1f} "
            f"{bool_stats.total_io():>9} {bool_stats.peak_heap:>10} "
            f"{len(bool_tids):>8}"
        )
        dom_tids, dom_stats, _ = domination_first_skyline(
            engine.relation, engine.rtree, predicate
        )
        print(
            f"{'':<7} {'Domination':<12} "
            f"{dom_stats.elapsed_seconds * 1000:>9.1f} "
            f"{dom_stats.total_io():>9} {dom_stats.peak_heap:>10} "
            f"{len(dom_tids):>8}"
        )
        assert set(sig.tids) == set(bool_tids) == set(dom_tids)

    # --- the incremental drill-down chain (Figure 16) --------------------- #
    print("\nDrill-down chain (incremental vs fresh):")
    dims = predicate.dims()
    conjuncts = predicate.conjuncts
    current = system.engine.skyline(
        type(predicate)({dims[0]: conjuncts[dims[0]]})
    )
    for depth, dim in enumerate(dims[1:], start=2):
        drilled = system.engine.drill_down(current, dim, conjuncts[dim])
        fresh = system.engine.skyline(drilled.predicate)
        assert set(drilled.tids) == set(fresh.tids)
        speedup = fresh.stats.elapsed_seconds / max(
            drilled.stats.elapsed_seconds, 1e-9
        )
        print(
            f"  {depth} predicates: drill-down {drilled.stats.total_io():>4} I/O "
            f"/ {drilled.stats.elapsed_seconds * 1000:6.2f} ms   "
            f"fresh {fresh.stats.total_io():>4} I/O "
            f"/ {fresh.stats.elapsed_seconds * 1000:6.2f} ms   "
            f"({speedup:.1f}x faster incrementally)"
        )
        current = drilled

    # --- signature loading share (Figure 15) ------------------------------ #
    load = current.stats.sig_load_seconds
    total = current.stats.elapsed_seconds
    print(
        f"\nAt {len(current.predicate)} predicates, signature loading took "
        f"{load * 1000:.2f} ms of {total * 1000:.2f} ms total "
        f"({100 * load / max(total, 1e-9):.1f}% — the paper's 'atomic "
        f"cuboids are good enough' observation)"
    )


if __name__ == "__main__":
    main()
