#!/usr/bin/env python3
"""The P-Cube life cycle under a live workload.

Builds a system, then interleaves insertions (with R-tree node splits),
deletions (with tree condensation) and updates while running queries —
demonstrating Section IV-B.3's incremental signature maintenance and
verifying answers against a brute-force oracle after every phase.  Every
write goes through the system's WAL-protected methods, each of which
publishes the epoch ``system.engine`` reads next.

Run:  python examples/incremental_updates.py
"""

import random
import time

from repro import BooleanPredicate, build_system
from repro.baselines.naive import naive_skyline
from repro.cube.relation import Relation
from repro.data.synthetic import SyntheticConfig, generate_relation


def oracle_skyline(relation, alive, predicate):
    return set(
        naive_skyline(
            [
                (tid, relation.pref_point(tid))
                for tid in alive
                if predicate.matches(relation, tid)
            ]
        )
    )


def main() -> None:
    config = SyntheticConfig(
        n_tuples=15_000, n_boolean=3, cardinality=20, n_preference=2, seed=41
    )
    print(f"Building base system ({config.n_tuples:,} tuples) ...")
    relation = generate_relation(config)
    system = build_system(relation, rtree_method="bulk")
    rng = random.Random(99)
    alive = set(relation.tids())
    predicate = BooleanPredicate({"A1": 7})

    def check(phase: str) -> None:
        result = system.engine.skyline(predicate)
        expected = oracle_skyline(relation, alive, predicate)
        status = "OK" if set(result.tids) == expected else "MISMATCH"
        print(
            f"  [{status}] skyline({predicate}) after {phase}: "
            f"{len(result.tids)} points"
        )
        assert status == "OK"

    check("initial build")

    # --- single-tuple inserts (the paper's 0.11 s/1-tuple experiment) ----- #
    started = time.perf_counter()
    for _ in range(100):
        row = (
            (rng.randrange(20), rng.randrange(20), rng.randrange(20)),
            (rng.random(), rng.random()),
        )
        tid, dirty = system.insert(*row)
        alive.add(tid)
    per_tuple = (time.perf_counter() - started) / 100
    print(f"\n100 single inserts: {per_tuple * 1000:.2f} ms/tuple")
    check("single inserts")

    # --- batch insert (the paper: batch maintenance amortises) ------------ #
    rows = [
        (
            (rng.randrange(20), rng.randrange(20), rng.randrange(20)),
            (rng.random(), rng.random()),
        )
        for _ in range(100)
    ]
    started = time.perf_counter()
    tids, dirty = system.insert_batch(rows)
    per_batched = (time.perf_counter() - started) / len(rows)
    alive.update(tids)
    print(
        f"100 batched inserts: {per_batched * 1000:.2f} ms/tuple "
        f"({per_tuple / max(per_batched, 1e-9):.1f}x cheaper than one-by-one; "
        f"{len(dirty)} cells rewritten once)"
    )
    check("batch insert")

    # --- deletions (condensation + signature bit clearing) ---------------- #
    victims = rng.sample(sorted(alive), 500)
    started = time.perf_counter()
    for tid in victims:
        system.delete(tid)
        alive.discard(tid)
    print(
        f"\n500 deletes: "
        f"{(time.perf_counter() - started) / 500 * 1000:.2f} ms/tuple"
    )
    check("deletes")

    # --- updates (move tuples in preference space) ------------------------ #
    movers = rng.sample(sorted(alive), 200)
    started = time.perf_counter()
    for tid in movers:
        system.update(tid, (rng.random(), rng.random()))
    print(
        f"200 updates:  "
        f"{(time.perf_counter() - started) / 200 * 1000:.2f} ms/tuple"
    )
    check("updates")

    # --- compare with full recomputation ----------------------------------- #
    # A system owns its relation, so the recomputation runs over a copy of
    # the current rows (tombstones included).
    tids = relation.tids()
    current = Relation(
        relation.schema,
        [relation.bool_row(tid) for tid in tids],
        [relation.pref_point(tid) for tid in tids],
    )
    for tid in tids:
        if not relation.is_live(tid):
            current.tombstone(tid)
    started = time.perf_counter()
    rebuilt = build_system(current)
    rebuild_seconds = time.perf_counter() - started
    print(
        f"\nFull recomputation of R-tree + P-Cube would cost "
        f"{rebuild_seconds:.2f} s — vs ~{per_tuple * 1000:.1f} ms per "
        f"incremental insert (the Figure 7 argument)."
    )
    del rebuilt


if __name__ == "__main__":
    main()
