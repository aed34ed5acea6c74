"""Kernel benchmark: the numpy batch kernels on the hot paths they serve.

``python -m benchmarks.sweeps kernels`` times a fixed set of hot-path workloads
and reports one wall clock per point (``wall_ms``, a timing the
byte-level gate ignores) next to the deterministic fields the
``--compare`` gate against the committed baseline watches: the answer
size (``results``) and the counted I/O (``io.total``).  The kernels'
agreement with the scalar formulas is not measured here; the tier-1
parity suite pins it against ``tests/kernels/reference.py``.

Workloads (each point is the best of at least :data:`REPEATS` runs —
more for sub-millisecond points, until :data:`MIN_MEASURE_SECONDS` have
been timed — on one prebuilt system; queries never mutate; best-of-N,
not the paired sweeps' median pass, because each point times one
deterministic single-threaded call and the minimum is its least noisy
estimate):

* ``kernels_skyline`` — the Boolean-first full-scan skyline (columnar
  scan + chunked SFS) over anticorrelated ``Dp = 2`` data, where skylines
  are large, plus the O(n²) :func:`dominated_mask` reference on the same
  distribution.
* ``kernels_topk`` — Boolean-first full-scan top-k (columnar scan +
  ``score_block``) under both a linear and a weighted-squared-distance
  function over the uniform sweep setting.
* ``kernels_search`` — BBS and the Ranking method: best-first search
  evaluates one node's children per kernel call.  Its ~130-point
  anticorrelated skylines sit past the one-pass bound of
  ``dominates_block``, so this figure is what chose that bound and the
  point probe's (DESIGN.md §13).
* ``kernels_memory`` — the in-memory references on shapes that favour a
  short-circuiting scan (uniform naive skyline) or the Python heap (naive
  top-k).
"""

from __future__ import annotations

import time
from typing import Any, Callable

from repro.baselines.boolean_first import (
    boolean_first_skyline,
    boolean_first_topk,
)
from repro.baselines.domination_first import bbs_skyline, ranking_topk
from repro.baselines.naive import naive_skyline, naive_topk
from benchmarks.sweeps.harness import Point, envelope
from repro.data.fixtures import build_sweep_system, sweep_config
from repro.data.synthetic import generate_relation
from repro.query.predicates import BooleanPredicate
from repro.query.ranking import LinearFunction, WeightedSquaredDistance
from repro.query.stats import QueryStats

KERNELS_SCHEMA = "repro.kernels-bench/v1"

#: Fewest repeats per point; the best one counts.
REPEATS = 3
#: Keep repeating a point until this much has been timed, so a point that
#: takes half a millisecond is not decided by three samples.
MIN_MEASURE_SECONDS = 0.05

#: Anticorrelated Dp=2 sizes for the skyline sweep.
SKYLINE_SIZES = (10_000, 20_000)
#: Uniform sweep sizes for the full-scan top-k sweep.
TOPK_SIZES = (20_000, 50_000)
#: Anticorrelated sizes for the best-first BBS series.
SEARCH_SIZES = (3_000, 6_000)
#: In-memory skyline reference size (O(n²) — keep it modest).
MEMORY_SKYLINE_SIZE = 2_000
#: In-memory top-k reference size (linear scoring sweep).
MEMORY_TOPK_SIZE = 50_000

#: Every Boolean-first point selects with the empty predicate, which no
#: B+-tree serves: it scans the table, so it is handed no trees.
_EMPTY = BooleanPredicate()
#: The Figure-13 query family, one fixed member (a, b, c > 0).
_LINEAR = LinearFunction((0.4, 0.35, 0.25))
#: An Example-1 style target query (kernel-heavy scoring).
_WSD = WeightedSquaredDistance(
    target=(0.25, 0.5, 0.75), weights=(1.0, 0.8, 0.6)
)
_TOPK_K = 10


def _point(x: int, run: Callable[[], tuple[Any, QueryStats]]) -> Point:
    """One sweep point: the best wall over the repeats, the answer size
    and the counted I/O of the last run (every run counts the same)."""
    best = float("inf")
    repeats = 0
    total = 0.0
    while repeats < REPEATS or total < MIN_MEASURE_SECONDS:
        started = time.perf_counter()
        answer, stats = run()
        elapsed = time.perf_counter() - started
        best = min(best, elapsed)
        repeats += 1
        total += elapsed
    return (
        Point(x)
        .timing(wall_ms=best * 1e3)
        .cost(io={"total": float(sum(stats.counters.snapshot().values()))})
        .answer(results=len(answer))
    )


def run_kernels_benchmark(seed: int = 7) -> dict[str, Any]:
    """The full kernel sweep; returns a ``benchmarks.sweeps``-shaped report."""

    def anticorrelated(n_tuples: int):
        return build_sweep_system(
            n_tuples, n_preference=2, distribution="anticorrelated"
        )

    def points_of(n_tuples: int, **overrides) -> list:
        """The in-memory references' input: bare preference points."""
        config = sweep_config(n_tuples, **overrides)
        return list(generate_relation(config).pref_points())

    def one(x: int, run) -> dict[str, list[Point]]:
        return {"points": [_point(x, run)]}

    def sweep(sizes, build, run) -> dict[str, list[Point]]:
        """One point per size; a system lives as long as its point."""
        return {
            "points": [_point(n, lambda s=build(n): run(s)) for n in sizes]
        }

    # Shared by both top-k series and the Ranking point.
    topk_systems = {n: build_sweep_system(n) for n in TOPK_SIZES}
    anti_memory = points_of(
        MEMORY_SKYLINE_SIZE, n_preference=2, distribution="anticorrelated"
    )
    uniform_memory = points_of(MEMORY_SKYLINE_SIZE, n_preference=2)
    topk_memory = points_of(MEMORY_TOPK_SIZE)

    def bf_topk(fn):
        return lambda s: boolean_first_topk(
            s.engine.relation, {}, fn, _TOPK_K, _EMPTY
        )

    figures = {
        # the skyline hot paths
        "kernels_skyline": {
            "series": {
                "boolean-first-anticorrelated": sweep(
                    SKYLINE_SIZES,
                    anticorrelated,
                    lambda s: boolean_first_skyline(
                        s.engine.relation, {}, _EMPTY
                    ),
                ),
                "naive-anticorrelated": one(
                    MEMORY_SKYLINE_SIZE,
                    lambda: _stamped(naive_skyline(anti_memory)),
                ),
            }
        },
        # the top-k hot paths
        "kernels_topk": {
            "series": {
                "boolean-first-linear": sweep(
                    TOPK_SIZES, topk_systems.get, bf_topk(_LINEAR)
                ),
                "boolean-first-wsd": sweep(
                    TOPK_SIZES, topk_systems.get, bf_topk(_WSD)
                ),
            }
        },
        # best-first search
        "kernels_search": {
            "series": {
                "bbs-anticorrelated": sweep(
                    SEARCH_SIZES, anticorrelated, lambda s: bbs_skyline(s.engine.rtree)
                ),
                "ranking": one(
                    TOPK_SIZES[0],
                    lambda: _ranking(topk_systems[TOPK_SIZES[0]]),
                ),
            }
        },
        # the in-memory references
        "kernels_memory": {
            "series": {
                "naive-skyline-uniform": one(
                    MEMORY_SKYLINE_SIZE,
                    lambda: _stamped(naive_skyline(uniform_memory)),
                ),
                "naive-topk": one(
                    MEMORY_TOPK_SIZE,
                    lambda: _stamped(naive_topk(topk_memory, _LINEAR, _TOPK_K)),
                ),
            }
        },
    }

    return envelope(KERNELS_SCHEMA, seed, {}, figures)


def _ranking(system) -> tuple[Any, QueryStats]:
    engine = system.engine
    ranked, stats, _ = ranking_topk(
        engine.relation, engine.rtree, _LINEAR, _TOPK_K, _EMPTY
    )
    return ranked, stats


def _stamped(answer: Any) -> tuple[Any, QueryStats]:
    """Wrap an in-memory result with empty stats (no counted I/O)."""
    return answer, QueryStats()
