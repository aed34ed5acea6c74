"""Routing sweep: result cache + serving chain vs pinned engines.

One seeded system, one seeded *Zipfian* workload (a few hot query templates
dominate, a long tail appears once — the regime a result cache exists for),
under the serving benchmark's modeled per-read latency.  Four passes:

* **pinned-<engine>** — every query run by ``run_chain((engine,), ...)``
  (no router, no cache, cold pool per query), for every engine but
  index-merge, which refuses every request (a served system keeps no
  B+-trees, so ``boolean-first`` is its table-scan arm).  Per-engine
  io/wall; each covers every query.
* **routed-cold** — a router with the cache off.  It is pinned-signature
  by construction: the bench asserts every query is served by
  ``signature``, that the series' counted I/O equals pinned-signature's —
  routing itself costs zero counted I/O — and that it is ≤ the best
  pinned engine's I/O × 1.1.  Its wall against each pinned engine is
  reported ungated (``wall_ratio_vs_pinned``).  Every pass's answers are
  canonicalised before they are compared.
* **routed-warm** — the router with the epoch-keyed cache.  The bench
  asserts a cache hit-rate ≥ 0.5 (Zipf repeats at a stable epoch) and
  total wall ≤ the best pinned engine's wall × 1.1 — each side the fastest
  of three back-to-back passes (a fresh router and cache each), and
  that every answer is byte-identical to the canonical reference.
* **served** — the end-to-end path: a ``QueryExecutor(routing=True)``
  serving the same stream, with its router's counters reconciled exactly
  against the workload.

Gate fields (``--compare``): per-series ``io.total`` and ``cache_misses``
as costs; ``results``, ``covered``, ``routed``, ``hit_rate`` and the
per-engine route counts as answer sizes (any change fails) — all
deterministic functions of the seed.  ``wall_ms`` and the wall ratios are
timings.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from typing import Any

from benchmarks.sweeps.harness import READ_LATENCY, Point, envelope
from repro.data.fixtures import build_sweep_system
from repro.data.workload import zipfian_workload
from repro.query.session import QuerySession
from repro.route import (
    BOOLEAN_FIRST,
    DOMINATION_FIRST,
    NAIVE,
    SIGNATURE,
    QueryRouter,
    RouteRequest,
    canonicalize,
    run_chain,
)
from repro.serve.executor import QueryExecutor

ROUTING_SCHEMA = "repro.routing-bench/v1"

DEFAULT_TUPLES = 2_000
DEFAULT_QUERIES = 160
DEFAULT_TEMPLATES = 24
#: The engines pinned one at a time, each a candidate for "best pinned".
PINNED = (SIGNATURE, BOOLEAN_FIRST, DOMINATION_FIRST, NAIVE)


def _canonical(result) -> tuple:
    """The comparable bytes of an answer (canonical order, scores rounded)."""
    canonicalize(result)
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


@dataclass
class _Routed:
    """One pass of the stream through one router or one pinned engine."""

    wall: float
    io: int
    results: int
    #: query index → canonical answer, for the queries the router covered.
    answers: dict[int, tuple]
    stats: dict


def _check(
    answers: dict[int, tuple],
    reference: list[tuple],
    workload: list[dict],
    label: str,
) -> None:
    for index, answer in answers.items():
        if not _same_answer(answer, reference[index], workload[index]["kind"]):
            raise AssertionError(
                f"{label} diverges from naive on query {index}"
            )


def _routed_pass(system, snapshot, workload, engine=None, cache=False):
    """The whole stream on a fresh session and router, or down
    ``(engine,)``."""
    router = QueryRouter.for_system(system, cache=cache)
    session = QuerySession.for_snapshot(snapshot)
    answers: dict[int, tuple] = {}
    io = results = 0
    started = time.perf_counter()
    for index, query in enumerate(workload):
        request = RouteRequest(
            query["kind"], query["predicate"], query["fn"], query["k"]
        )
        if engine is None:
            result = router.route(session, request)
        else:
            result = run_chain((engine,), session, request)[0]
        io += result.stats.total_io()
        results += len(result.tids)
        answers[index] = _canonical(result)
    wall = time.perf_counter() - started
    return _Routed(wall, io, results, answers, router.stats.snapshot())


def _fastest(run, passes: int = 3) -> _Routed:
    """The pass with the least wall of ``passes`` back-to-back runs."""
    return min((run() for _ in range(passes)), key=lambda routed: routed.wall)


def run_routing_benchmark(
    seed: int = 7,
    n_tuples: int = DEFAULT_TUPLES,
    n_queries: int = DEFAULT_QUERIES,
    n_templates: int = DEFAULT_TEMPLATES,
    read_latency: float = READ_LATENCY,
) -> dict[str, Any]:
    """The full routing sweep; returns a ``benchmarks.sweeps``-shaped report."""
    system = build_sweep_system(n_tuples)
    system.disk.read_latency = read_latency
    rng = random.Random(seed)
    workload = zipfian_workload(
        system.relation, rng, n_queries, n_templates=n_templates
    )
    snapshot = system.pin_snapshot()
    series: dict[str, Any] = {}

    def routed_point(routed: _Routed) -> Point:
        return (
            Point(1)
            .timing(wall_ms=routed.wall * 1e3)
            .cost(io={"total": routed.io})
            .answer(results=routed.results)
        )

    # ---- pinned passes: one engine each, cache off --------------------- #
    pinned = {
        engine: _routed_pass(system, snapshot, workload, engine)
        for engine in PINNED
    }
    # The wall gate below compares two passes of a few milliseconds at toy
    # size: both of its sides are the fastest of three back-to-back passes.
    best = min(PINNED, key=lambda engine: pinned[engine].wall)
    pinned[best] = _fastest(
        lambda: _routed_pass(system, snapshot, workload, best)
    )
    assert len(pinned[NAIVE].answers) == len(workload)
    reference = [pinned[NAIVE].answers[i] for i in range(len(workload))]
    # Every pinned engine's canonical answer must match ground truth.  (Top-k
    # score ties at the k boundary are legitimately engine-specific in
    # *membership*, but the scores are identical — compare scores for topk,
    # tids for skylines.)
    for engine, routed in pinned.items():
        _check(routed.answers, reference, workload, f"pinned {engine}")
        series[f"pinned-{engine}"] = {
            "points": [routed_point(routed).answer(covered=len(routed.answers))]
        }
    best_pinned_wall = min(routed.wall for routed in pinned.values())
    best_pinned_io = min(routed.io for routed in pinned.values())

    # ---- routed-cold: the serving chain, no cache ----------------------- #
    cold = _routed_pass(system, snapshot, workload)
    _check(cold.answers, reference, workload, "routed-cold")
    routes = cold.stats["served_by"]
    if routes != {SIGNATURE: len(workload)} or cold.io != pinned[SIGNATURE].io:
        raise AssertionError(
            f"routed-cold was served by {routes} at {cold.io} I/Os; expected "
            f"signature for every query at pinned-signature's "
            f"{pinned[SIGNATURE].io} — routing must not change an engine's "
            "disk accesses"
        )
    if cold.io > best_pinned_io * 1.1:
        raise AssertionError(
            f"routed-cold cost {cold.io} I/Os with the cache off, more than "
            f"10% over the best pinned engine's {best_pinned_io}"
        )
    series["routed-cold"] = {
        "points": [
            routed_point(cold)
            .timing(
                wall_ratio_vs_pinned={
                    name: cold.wall / pinned[name].wall
                    for name in PINNED
                }
            )
            .answer(routes=routes)
        ]
    }

    # ---- routed-warm: the same chain behind the epoch-keyed cache ------ #
    warm = _fastest(
        lambda: _routed_pass(system, snapshot, workload, cache=True)
    )
    _check(warm.answers, reference, workload, "routed-warm")
    if len(warm.answers) != len(workload):
        raise AssertionError("routed-warm left queries unanswered")
    hit_rate = warm.stats["cache_hits"] / max(1, warm.stats["routed"])
    if hit_rate < 0.5:
        raise AssertionError(
            f"warm cache hit-rate {hit_rate:.2f} < 0.5 on the Zipfian "
            "workload — the result cache is not catching repeats"
        )
    wall_ratio = warm.wall / best_pinned_wall
    if wall_ratio > 1.1:
        raise AssertionError(
            f"routed+cached wall {warm.wall:.3f}s exceeds the best pinned "
            f"engine's {best_pinned_wall:.3f}s by more than 10% "
            f"(ratio {wall_ratio:.2f})"
        )
    series["routed-warm"] = {
        "points": [
            routed_point(warm)
            .timing(wall_ratio_vs_best_pinned=wall_ratio)
            .cost(cache_misses=warm.stats["cache_misses"])
            .answer(hit_rate=hit_rate)
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
        routed = executor.router.stats.snapshot()
    _check(dict(enumerate(map(_canonical, served))), reference, workload, "served")
    if routed["routed"] != len(workload):
        raise AssertionError(
            f"the router counted {routed['routed']} routed queries, "
            f"expected {len(workload)}"
        )
    cache_total = (
        routed["cache_hits"]
        + routed["cache_misses"]
        + routed["cache_bypassed"]
    )
    if cache_total != len(workload):
        raise AssertionError(
            "the router's cache outcomes do not reconcile: "
            f"{cache_total} != {len(workload)}"
        )
    series["served"] = {
        "points": [
            Point(1)
            .timing(wall_ms=served_wall * 1e3)
            .cost(
                fell_back=routed["fell_back"],
                cache_misses=routed["cache_misses"],
                cache_bypassed=routed["cache_bypassed"],
            )
            .answer(
                results=sum(len(r.tids) for r in served),
                routed=routed["routed"],
                hit_rate=routed["cache_hits"] / max(1, routed["routed"]),
            )
        ]
    }

    return envelope(
        ROUTING_SCHEMA,
        seed,
        {
            "n_tuples": n_tuples,
            "n_queries": n_queries,
            "n_templates": n_templates,
            "read_latency": read_latency,
        },
        {
            "routing": {
                "title": "Result cache + serving chain vs pinned engines "
                f"(T={n_tuples}, {n_queries} Zipfian queries over "
                f"{n_templates} templates)",
                "series": series,
            }
        },
    )
