#!/usr/bin/env python3
"""Quickstart: the paper's Example 1 — a used-car database.

Schema (type, maker, color | price, mileage): the first three are boolean
dimensions, the last two preference dimensions.  A buyer wants the top-10
red sedans closest to price $15k and mileage 30k miles:

    SELECT TOP 10 * FROM cars
    WHERE type = 'sedan' AND color = 'red'
    ORDER BY (price - 15000)^2 + alpha * (mileage - 30000)^2

Run:  python examples/quickstart.py
"""

import random

from repro import (
    BooleanPredicate,
    Relation,
    Schema,
    WeightedSquaredDistance,
    build_system,
)

TYPES = ["sedan", "suv", "truck", "coupe", "wagon"]
MAKERS = ["toyota", "honda", "ford", "bmw", "subaru", "kia"]
COLORS = ["red", "black", "white", "silver", "blue"]


def make_inventory(n_cars: int = 20_000, seed: int = 15) -> Relation:
    """A synthetic dealer inventory with realistic price/mileage skew."""
    rng = random.Random(seed)
    bool_rows = []
    pref_rows = []
    for _ in range(n_cars):
        car_type = rng.choice(TYPES)
        maker = rng.choice(MAKERS)
        color = rng.choice(COLORS)
        age = rng.uniform(0, 12)  # years
        base = {"sedan": 22, "suv": 30, "truck": 34, "coupe": 28, "wagon": 24}
        price = max(2.0, base[car_type] * (0.88**age) * rng.uniform(0.8, 1.2))
        mileage = max(1.0, age * rng.uniform(8, 15))  # thousands of miles
        bool_rows.append((car_type, maker, color))
        pref_rows.append((price * 1000, mileage * 1000))
    schema = Schema(("type", "maker", "color"), ("price", "mileage"))
    return Relation(schema, bool_rows, pref_rows)


def main() -> None:
    print("Building inventory and P-Cube ...")
    relation = make_inventory()
    system = build_system(relation)
    print(
        f"  {len(relation):,} cars | R-tree fanout M={system.rtree.max_entries} "
        f"| P-Cube cells={system.pcube.n_cells()}"
    )
    print(
        f"  sizes: R-tree {system.rtree_size_mb():.2f} MB, "
        f"P-Cube {system.pcube_size_mb():.2f} MB"
    )

    # --- the Example 1 query -------------------------------------------- #
    predicate = BooleanPredicate({"type": "sedan", "color": "red"})
    alpha = 0.5  # the user's price/mileage trade-off
    ranking = WeightedSquaredDistance(
        target=(15_000.0, 30_000.0), weights=(1.0, alpha)
    )
    result = system.engine.topk(ranking, k=10, predicate=predicate)

    print(f"\nTop 10 for {predicate}:")
    print(f"  {'rank':<5} {'type':<7} {'maker':<8} {'color':<7} "
          f"{'price':>9} {'mileage':>9}")
    for rank, tid in enumerate(result.tids, start=1):
        car_type, maker, color = relation.bool_row(tid)
        price, mileage = relation.pref_point(tid)
        print(
            f"  {rank:<5} {car_type:<7} {maker:<8} {color:<7} "
            f"${price:>8,.0f} {mileage:>8,.0f}mi"
        )

    stats = result.stats
    print(
        f"\nCost: {stats.elapsed_seconds * 1000:.1f} ms, "
        f"{stats.total_io()} disk accesses "
        f"(R-tree blocks {stats.sblock}, signature loads {stats.ssig}), "
        f"peak heap {stats.peak_heap} entries"
    )

    # --- the same buyer widens the search (roll-up on color) ------------- #
    rolled = system.engine.roll_up(result, "color")
    print(
        f"\nRoll-up to {rolled.predicate}: best price now "
        f"${relation.pref_point(rolled.tids[0])[0]:,.0f} "
        f"({rolled.stats.total_io()} disk accesses — incremental, "
        f"not from scratch)"
    )


if __name__ == "__main__":
    main()
