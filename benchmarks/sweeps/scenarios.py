"""The paper's Figures 5, 6, 8, 9, 10 and 13 as plain functions — the one
code path that measures each of them.

A scenario runs its figure on the seeded data sets of
:mod:`repro.data.fixtures` and returns a JSON-ready dict: ``python -m
benchmarks.sweeps`` writes it to ``BENCH_pcube.json`` and gates it against
``benchmarks/baselines/``, and ``benchmarks/test_figures.py`` asserts the
paper's "who wins" claims on the same output.  :func:`skyline_methods` and
:func:`topk_methods` are the one comparison of the engines: every engine
answers the query, a mismatch raises, and Figures 11, 12 and 14 call them
too.

Only the query *workload* is driven by the runner's ``--seed``; the data
sets keep their size-derived seeds.

Figures 7, 11, 12 and 14-16 (updates, cardinality/dimension sweeps, the
CoverType workload) stay in their ``benchmarks/test_fig*.py`` modules: they
vary the data set itself rather than measuring fixed seeded inputs, so
there is no stable baseline for ``--compare`` to gate on.
"""

from __future__ import annotations

import random
import time
import zlib
from dataclasses import dataclass, field
from typing import Any, Callable

from repro.baselines.boolean_first import (
    boolean_first_skyline,
    boolean_first_topk,
    build_boolean_indexes,
)
from repro.baselines.domination_first import (
    domination_first_skyline,
    ranking_topk,
)
from repro.baselines.index_merge import index_merge_topk
from benchmarks.sweeps.harness import Point, empty_series
from repro.data.fixtures import N_QUERIES, SWEEP_SIZES, build_sweep_system, sweep_config
from repro.data.synthetic import generate_relation
from repro.data.workload import sample_linear_function, sample_predicate
from repro.query.stats import QueryStats
from repro.system import build_system

K_VALUES = (10, 20, 50, 100)


@dataclass
class BenchContext:
    """One runner invocation: seed, sweep sizes, and cached built systems
    with the baselines' B+-trees over their relations."""

    seed: int = 7
    sizes: tuple[int, ...] = SWEEP_SIZES
    n_queries: int = N_QUERIES
    _systems: dict[int, Any] = field(default_factory=dict)
    _indexes: dict[int, Any] = field(default_factory=dict)

    def system(self, n_tuples: int):
        if n_tuples not in self._systems:
            self._systems[n_tuples] = build_sweep_system(n_tuples)
        return self._systems[n_tuples]

    def indexes(self, n_tuples: int):
        """The per-dimension B+-trees the baselines read, over
        :meth:`system`'s relation: the one place the sweeps build them."""
        if n_tuples not in self._indexes:
            relation = self.system(n_tuples).relation
            self._indexes[n_tuples] = build_boolean_indexes(relation)
        return self._indexes[n_tuples]

    def rng(self, tag: str) -> random.Random:
        """A per-scenario workload RNG, independent of figure selection."""
        return random.Random(
            (self.seed * 0x9E3779B1) ^ zlib.crc32(tag.encode("ascii"))
        )


def averaged_point(x, stats_list: list[QueryStats]) -> Point:
    """One series point: metrics averaged over the query sample.

    ``wall_ms`` is the only timing; everything else is a pure function of
    the seeded input and gated by ``--compare``.
    """
    n = len(stats_list)
    categories: dict[str, float] = {}
    for stats in stats_list:
        for category, count in stats.counters:
            categories[category] = categories.get(category, 0) + count
    io = {cat: count / n for cat, count in sorted(categories.items())}
    io["total"] = sum(s.total_io() for s in stats_list) / n
    return (
        Point(x)
        .timing(
            wall_ms=sum(s.elapsed_seconds for s in stats_list) * 1e3 / n
        )
        .cost(
            io=io,
            heap_peak=sum(s.peak_heap for s in stats_list) / n,
            prune_counts={
                "pref": sum(s.dominance_pruned for s in stats_list) / n,
                "bool": sum(s.boolean_pruned for s in stats_list) / n,
            },
        )
        .answer(results=sum(s.results for s in stats_list) / n)
    )


# --------------------------------------------------------------------- #
# figures
# --------------------------------------------------------------------- #


def fig05_construction(ctx: BenchContext) -> dict[str, Any]:
    """Construction time vs T (insert-built R-tree vs P-Cube vs B-trees)."""
    series = empty_series("B-tree", "P-Cube", "R-tree")
    for n_tuples in ctx.sizes:
        relation = generate_relation(sweep_config(n_tuples))
        timings = build_system(
            relation, fanout=64, rtree_method="insert"
        ).timings
        started = time.perf_counter()
        build_boolean_indexes(relation)
        btree_seconds = time.perf_counter() - started
        for name, seconds in (
            ("R-tree", timings.rtree_seconds),
            ("P-Cube", timings.pcube_seconds),
            ("B-tree", btree_seconds),
        ):
            series[name]["points"].append(
                Point(n_tuples).timing(wall_ms=seconds * 1e3)
            )
    return {"title": "construction time vs T", "series": series}


def fig06_size(ctx: BenchContext) -> dict[str, Any]:
    """Materialised size vs T (MB); fully deterministic."""
    series = empty_series("B-tree", "P-Cube", "R-tree")
    for n_tuples in ctx.sizes:
        system = ctx.system(n_tuples)
        ctx.indexes(n_tuples)
        for name, size_mb in (
            ("R-tree", system.rtree_size_mb()),
            ("P-Cube", system.pcube_size_mb()),
            ("B-tree", system.disk.size_mb("btree")),
        ):
            series[name]["points"].append(
                Point(n_tuples).cost(size_mb=size_mb)
            )
    return {"title": "materialised size vs T (MB)", "series": series}


def skyline_methods(system, indexes, predicate) -> dict[str, QueryStats]:
    """One skyline query on every engine of Figures 8-12 and 14, answers
    checked against each other: series name → the engine's stats.  Every
    engine reads the published snapshot ``system.engine`` is bound to;
    Boolean-first also reads ``indexes``, the B+-trees
    :func:`~repro.baselines.boolean_first.build_boolean_indexes` built over
    ``system.relation``."""
    engine = system.engine
    sig = engine.skyline(predicate)
    bool_tids, bool_stats = boolean_first_skyline(
        engine.relation, indexes, predicate
    )
    dom_tids, dom_stats, _ = domination_first_skyline(
        engine.relation, engine.rtree, predicate
    )
    if not set(sig.tids) == set(bool_tids) == set(dom_tids):
        raise AssertionError(
            f"skyline mismatch at T={len(system.relation)}: {predicate!r}"
        )
    return {
        "Signature": sig.stats,
        "Boolean": bool_stats,
        "Domination": dom_stats,
    }


def topk_methods(
    system, indexes, fn, k: int, predicate
) -> dict[str, QueryStats]:
    """One top-k query on every engine of Figure 13, scores checked against
    each other: series name → the engine's stats (one snapshot and one set
    of B+-trees, as in :func:`skyline_methods`)."""
    engine = system.engine
    relation = engine.relation
    sig = engine.topk(fn, k, predicate)
    ranked_bool, bool_stats = boolean_first_topk(
        relation, indexes, fn, k, predicate
    )
    ranked_rank, rank_stats, _ = ranking_topk(
        relation, engine.rtree, fn, k, predicate
    )
    ranked_merge, merge_stats = index_merge_topk(
        engine.rtree, indexes, fn, k, predicate
    )
    reference = [round(score, 9) for score in sig.scores]
    for other in (ranked_bool, ranked_rank, ranked_merge):
        if [round(score, 9) for _, score in other] != reference:
            raise AssertionError(f"top-k mismatch at k={k}: {predicate!r}")
    return {
        "Signature": sig.stats,
        "Boolean": bool_stats,
        "Ranking": rank_stats,
        "IndexMerge": merge_stats,
    }


def _append_averaged(
    series: dict[str, Any], x, samples: list[dict[str, QueryStats]]
) -> None:
    """One point per series, averaged over ``samples`` (one dict each)."""
    for name, body in series.items():
        body["points"].append(
            averaged_point(x, [sample[name] for sample in samples])
        )


def _skyline_sweep(ctx: BenchContext, tag: str) -> dict[str, Any]:
    """The Figure 8/9/10 loop: N skyline queries per size, three methods."""
    rng = ctx.rng(tag)
    series = empty_series("Boolean", "Domination", "Signature")
    for n_tuples in ctx.sizes:
        system = ctx.system(n_tuples)
        indexes = ctx.indexes(n_tuples)
        _append_averaged(
            series,
            n_tuples,
            [
                skyline_methods(
                    system, indexes, sample_predicate(system.relation, 1, rng)
                )
                for _ in range(ctx.n_queries)
            ],
        )
    return series


def fig08_skyline_time(ctx: BenchContext) -> dict[str, Any]:
    return {
        "title": "skyline execution time vs T",
        "series": _skyline_sweep(ctx, "fig08"),
    }


def fig09_disk_access(ctx: BenchContext) -> dict[str, Any]:
    """Disk accesses vs T; the io category breakdown is the payload."""
    series = _skyline_sweep(ctx, "fig09")
    return {
        "title": "disk accesses per skyline query vs T",
        "series": {
            name: series[name] for name in ("Domination", "Signature")
        },
    }


def fig10_heap(ctx: BenchContext) -> dict[str, Any]:
    return {
        "title": "peak candidate-heap size vs T",
        "series": _skyline_sweep(ctx, "fig10"),
    }


def fig13_topk(ctx: BenchContext) -> dict[str, Any]:
    """Top-k time vs k at the largest sweep size, four methods."""
    rng = ctx.rng("fig13")
    t_size = max(ctx.sizes)
    system = ctx.system(t_size)
    indexes = ctx.indexes(t_size)
    relation = system.relation
    series = empty_series("Boolean", "IndexMerge", "Ranking", "Signature")
    for k in K_VALUES:
        samples = []
        for _ in range(ctx.n_queries):
            predicate = sample_predicate(relation, 1, rng)
            fn = sample_linear_function(relation.schema.n_preference, rng)
            samples.append(topk_methods(system, indexes, fn, k, predicate))
        _append_averaged(series, k, samples)
    return {
        "title": f"top-k time vs k (T={t_size:,})",
        "series": series,
    }


#: figure name → scenario function, in paper order.
SCENARIOS: dict[str, Callable[[BenchContext], dict[str, Any]]] = {
    "fig05": fig05_construction,
    "fig06": fig06_size,
    "fig08": fig08_skyline_time,
    "fig09": fig09_disk_access,
    "fig10": fig10_heap,
    "fig13": fig13_topk,
}
