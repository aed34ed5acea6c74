"""Routing sweep: result cache + serving chain vs pinned engines.

One seeded system, one seeded *Zipfian* workload (a few hot query templates
dominate, a long tail appears once — the regime a result cache exists for),
under the serving benchmark's modeled per-read latency.  Four passes:

* **pinned-<engine>** — every query pinned to one engine (cache off,
  cold pool per query).  Per-engine io/wall over the queries that engine
  *covers* (index-merge covers only top-k; the others cover everything).
* **routed-cold** — the default router, cache off.  It is pinned-signature
  by construction: the bench asserts every query is served by
  ``signature``, that the series' counted I/O equals pinned-signature's —
  routing itself costs zero counted I/O — and that it is ≤ the best
  full-coverage pinned engine's I/O × 1.1.  Its wall against each pinned
  engine is printed ungated, in the figure's title: at this scale the
  boolean-first scan is faster on wall while reading more pages.
* **routed-warm** — the router with the epoch-keyed cache.  The bench
  asserts a cache hit-rate ≥ 0.5 (Zipf repeats at a stable epoch) and
  total wall ≤ the best full-coverage pinned engine's wall × 1.1, and
  that every answer is byte-identical to the canonical reference.
* **served** — the end-to-end path: a ``QueryExecutor(routing=True)``
  serving the same stream, with the ``ServingStats`` routing counters
  reconciled exactly against the workload.

Gate fields (``--compare``): per-series ``io.total``, ``results``,
``cache_misses`` and the per-engine route counts — all deterministic
functions of the seed.  ``wall_ms``, ``hit_rate`` and
``wall_ratio_vs_best_pinned`` are informational (see
:data:`repro.bench.compare.WALL_FIELDS`).
"""

from __future__ import annotations

import random
import time
from typing import Any

from repro.data.fixtures import build_sweep_system
from repro.data.workload import zipfian_workload
from repro.query.session import QuerySession
from repro.route import (
    NAIVE,
    SIGNATURE,
    STRATEGY_ORDER,
    QueryRouter,
    RoutingPolicy,
    StrategyUnsupported,
)
from repro.serve.executor import QueryExecutor

ROUTING_SCHEMA = "repro.routing-bench/v1"

DEFAULT_TUPLES = 2_000
DEFAULT_QUERIES = 160
DEFAULT_TEMPLATES = 24
DEFAULT_READ_LATENCY = 2e-4
#: Engines that can answer every query in the workload (index-merge
#: cannot: it is top-k only), i.e. the candidates for "best pinned wall".
FULL_COVERAGE = tuple(n for n in STRATEGY_ORDER if n != "index-merge")


def _canonical(result) -> tuple:
    """The comparable bytes of an answer (scores rounded for float repr)."""
    if result.scores is None:
        return (tuple(result.tids), None)
    return (
        tuple(result.tids),
        tuple(round(score, 9) for score in result.scores),
    )


def _same_answer(answer: tuple, expected: tuple, kind: str) -> bool:
    """Byte-identity up to the repo's differential convention: skylines by
    tids, top-k by the sorted score vector (membership ties at the k
    boundary are legitimately engine-specific; the scores never are)."""
    if kind == "topk":
        return answer[1] == expected[1]
    return answer[0] == expected[0]


def _route_one(router: QueryRouter, session: QuerySession, query: dict):
    return router.route(
        session,
        query["kind"],
        predicate=query["predicate"],
        fn=query["fn"],
        k=query["k"],
    )


def run_routing_benchmark(
    seed: int = 7,
    n_tuples: int = DEFAULT_TUPLES,
    n_queries: int = DEFAULT_QUERIES,
    n_templates: int = DEFAULT_TEMPLATES,
    read_latency: float = DEFAULT_READ_LATENCY,
) -> dict[str, Any]:
    """The full routing sweep; returns a ``repro.bench``-shaped report."""
    system = build_sweep_system(n_tuples)
    system.disk.read_latency = read_latency
    rng = random.Random(seed)
    workload = zipfian_workload(
        system.relation, rng, n_queries, n_templates=n_templates
    )
    system.enable_epochs()
    snapshot = system.pin_snapshot()
    series: dict[str, Any] = {}

    # ---- pinned passes: one engine each, cache off --------------------- #
    pinned_io: dict[str, int] = {}
    pinned_wall: dict[str, float] = {}
    pinned_answers: dict[str, dict[int, tuple]] = {}
    for engine in STRATEGY_ORDER:
        router = QueryRouter.for_system(
            system, policy=RoutingPolicy(chain=(engine,), cache=False)
        )
        session = QuerySession.for_snapshot(snapshot)
        answers: dict[int, tuple] = {}
        io = results = 0
        started = time.perf_counter()
        for index, query in enumerate(workload):
            try:
                result = _route_one(router, session, query)
            except StrategyUnsupported:
                continue  # this engine does not cover this query shape
            io += result.stats.total_io()
            answers[index] = _canonical(result)
            results += len(result.tids)
        wall = time.perf_counter() - started
        pinned_io[engine] = io
        pinned_wall[engine] = wall
        pinned_answers[engine] = answers
        series[f"pinned-{engine}"] = {
            "points": [
                {
                    "x": 1,
                    "wall_ms": wall * 1e3,
                    "io": {"total": io},
                    "covered": len(answers),
                    "results": results,
                }
            ]
        }
    assert len(pinned_answers[NAIVE]) == len(workload)
    reference = [pinned_answers[NAIVE][i] for i in range(len(workload))]
    # Every pinned engine's canonical answer must match ground truth
    # wherever it covered the query.  (Top-k score ties at the k boundary
    # are legitimately engine-specific in *membership*, but the scores are
    # identical — compare scores for topk, tids for skylines.)
    for engine, answers in pinned_answers.items():
        for index, answer in answers.items():
            if not _same_answer(
                answer, reference[index], workload[index]["kind"]
            ):
                raise AssertionError(
                    f"pinned {engine} diverges from naive on query {index}"
                )

    best_pinned_wall = min(pinned_wall[name] for name in FULL_COVERAGE)

    # ---- routed-cold: the default chain, no cache ----------------------- #
    router = QueryRouter.for_system(system, policy=RoutingPolicy(cache=False))
    session = QuerySession.for_snapshot(snapshot)
    cold_io = cold_results = 0
    started = time.perf_counter()
    for index, query in enumerate(workload):
        result = _route_one(router, session, query)
        cold_io += result.stats.total_io()
        cold_results += len(result.tids)
        if not _same_answer(
            _canonical(result), reference[index], query["kind"]
        ):
            raise AssertionError(f"routed query {index} diverges from naive")
    cold_wall = time.perf_counter() - started
    routes = router.stats.snapshot()["served_by"]
    if routes != {SIGNATURE: len(workload)} or cold_io != pinned_io[SIGNATURE]:
        raise AssertionError(
            f"routed-cold was served by {routes} at {cold_io} I/Os; expected "
            f"signature for every query at pinned-signature's "
            f"{pinned_io[SIGNATURE]} — routing must not change an engine's "
            "disk accesses"
        )
    best_pinned_io = min(pinned_io[name] for name in FULL_COVERAGE)
    if cold_io > best_pinned_io * 1.1:
        raise AssertionError(
            f"routed-cold cost {cold_io} I/Os with the cache off, more than "
            f"10% over the best pinned engine's {best_pinned_io}"
        )
    series["routed-cold"] = {
        "points": [
            {
                "x": 1,
                "wall_ms": cold_wall * 1e3,
                "io": {"total": cold_io},
                "results": cold_results,
                "routes": routes,
            }
        ]
    }

    # ---- routed-warm: the same chain behind the epoch-keyed cache ------ #
    router = QueryRouter.for_system(system, policy=RoutingPolicy())
    session = QuerySession.for_snapshot(snapshot)
    warm_io = warm_results = 0
    started = time.perf_counter()
    for index, query in enumerate(workload):
        result = _route_one(router, session, query)
        warm_io += result.stats.total_io()
        warm_results += len(result.tids)
        if not _same_answer(
            _canonical(result), reference[index], query["kind"]
        ):
            raise AssertionError(
                f"warm query {index} ({result.stats.cache_outcome}) "
                "diverges from naive"
            )
    warm_wall = time.perf_counter() - started
    routing = router.stats.snapshot()
    hit_rate = routing["cache_hits"] / max(1, routing["routed"])
    if hit_rate < 0.5:
        raise AssertionError(
            f"warm cache hit-rate {hit_rate:.2f} < 0.5 on the Zipfian "
            "workload — the result cache is not catching repeats"
        )
    wall_ratio = warm_wall / best_pinned_wall
    if wall_ratio > 1.1:
        raise AssertionError(
            f"routed+cached wall {warm_wall:.3f}s exceeds the best pinned "
            f"engine's {best_pinned_wall:.3f}s by more than 10% "
            f"(ratio {wall_ratio:.2f})"
        )
    series["routed-warm"] = {
        "points": [
            {
                "x": 1,
                "wall_ms": warm_wall * 1e3,
                "wall_ratio_vs_best_pinned": wall_ratio,
                "hit_rate": hit_rate,
                "cache_misses": routing["cache_misses"],
                "io": {"total": warm_io},
                "results": warm_results,
            }
        ]
    }

    # ---- served: the executor path, counters reconciled ---------------- #
    with QueryExecutor(
        system,
        threads=1,
        queue_depth=2 * len(workload),
        routing=True,
    ) as executor:
        started = time.perf_counter()
        tickets = []
        for query in workload:
            if query["kind"] == "skyline":
                tickets.append(executor.skyline(query["predicate"]))
            else:
                tickets.append(
                    executor.topk(query["fn"], query["k"], query["predicate"])
                )
        served = [ticket.result(timeout=600.0) for ticket in tickets]
        served_wall = time.perf_counter() - started
        serving = executor.stats.snapshot()
    for index, result in enumerate(served):
        if not _same_answer(
            _canonical(result), reference[index], workload[index]["kind"]
        ):
            raise AssertionError(f"served query {index} diverges from naive")
    if serving["routed"] != len(workload):
        raise AssertionError(
            f"ServingStats counted {serving['routed']} routed queries, "
            f"expected {len(workload)}"
        )
    cache_total = (
        serving["cache_hits"]
        + serving["cache_misses"]
        + serving["cache_bypassed"]
    )
    if cache_total != len(workload):
        raise AssertionError(
            "ServingStats cache outcomes do not reconcile: "
            f"{cache_total} != {len(workload)}"
        )
    series["served"] = {
        "points": [
            {
                "x": 1,
                "wall_ms": served_wall * 1e3,
                "results": sum(len(r.tids) for r in served),
                "routed": serving["routed"],
                "fell_back": serving["fell_back"],
                "cache_misses": serving["cache_misses"],
                "cache_bypassed": serving["cache_bypassed"],
                "hit_rate": serving["cache_hits"] / max(1, serving["routed"]),
            }
        ]
    }

    return {
        "schema": ROUTING_SCHEMA,
        "seed": seed,
        "n_tuples": n_tuples,
        "n_queries": n_queries,
        "n_templates": n_templates,
        "read_latency": read_latency,
        "figures": {
            "routing": {
                "title": "Result cache + serving chain vs pinned engines "
                f"(T={n_tuples}, {n_queries} Zipfian queries over "
                f"{n_templates} templates; routed-cold wall vs pinned: "
                + ", ".join(
                    f"{name} {cold_wall / pinned_wall[name]:.2f}x"
                    for name in STRATEGY_ORDER
                )
                + ")",
                "series": series,
            }
        },
    }
