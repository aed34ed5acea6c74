"""Kernel-backend benchmark: scalar Python vs the numpy batch kernels.

``python -m repro.bench kernels`` runs a fixed set of hot-path
workloads twice — once under ``REPRO_KERNELS=python`` and once under
``REPRO_KERNELS=numpy`` — and reports both wall clocks side by side.
The report makes two claims:

* **invariance** — for every workload the two backends must produce the
  *same answer* and the *same counted I/O* (``counters.snapshot()`` is
  compared key-by-key).  This is asserted inside the benchmark, not just
  reported: a divergence raises before any JSON is written.  The
  deterministic fields (``io.total``, ``results``) are what the
  ``--compare`` gate against the committed baseline watches.
* **speed** — the numpy backend must actually pay for its existence.
  The full-scan figures (``kernels_skyline``, ``kernels_topk``) each
  assert an aggregate python/numpy wall-clock ratio of at least
  :data:`DEFAULT_MIN_SPEEDUP`; the best-first figure (``kernels_search``)
  asserts that *no point* is slower under numpy and an aggregate of at
  least :data:`SEARCH_MIN_SPEEDUP`; the wall-clock fields themselves
  (``wall_ms_python``, ``wall_ms_numpy``, ``speedup``) are emitted as
  timings, so the byte-level gate ignores machine-speed noise.

Workloads (each point is the best of at least :data:`REPEATS` runs per
backend — more for sub-millisecond points, until :data:`MIN_MEASURE_SECONDS`
have been timed — on one prebuilt system shared by both backends; queries
never mutate; best-of-N, not the paired sweeps' median pass, because each
point times one deterministic single-threaded call and its floor is a ratio
of two such — the minimum is the least noisy estimate of either):

* ``kernels_skyline`` *(gated)* — the Boolean-first full-scan skyline
  (columnar scan + chunked SFS) over anticorrelated ``Dp = 2`` data,
  where skylines are large and the scalar filter's early exit stops
  helping, plus the O(n²) :func:`dominated_mask` reference on the same
  distribution.
* ``kernels_topk`` *(gated)* — Boolean-first full-scan top-k (columnar
  scan + ``score_block``) under both a linear and a weighted-squared-
  distance function over the uniform sweep setting.
* ``kernels_search`` *(gated: never slower)* — BBS and the Ranking
  method: best-first search evaluates one node's children per kernel
  call.  Its ~130-point anticorrelated skylines sit past the one-pass
  bound of ``dominates_block``, so this figure is what chose that bound
  and the point probe's (DESIGN.md §13): wider ones have failed it.
* ``kernels_memory`` *(ungated)* — the in-memory references on shapes
  that favour the scalar short-circuit (uniform naive skyline) or the
  Python heap (naive top-k): the honest end of the sweep.
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
from repro.bench.harness import Point, envelope
from repro.data.fixtures import build_sweep_system, sweep_config
from repro.data.synthetic import generate_relation
from repro.kernels.backend import NUMPY, PYTHON, np, use_backend
from repro.query.predicates import BooleanPredicate
from repro.query.ranking import LinearFunction, WeightedSquaredDistance
from repro.query.stats import QueryStats

KERNELS_SCHEMA = "repro.kernels-bench/v1"

#: Aggregate python/numpy wall ratio each gated figure must clear.
DEFAULT_MIN_SPEEDUP = 3.0
#: Floor for the best-first figure: every point at least 1.0x, and this
#: in aggregate (first gated run: 1.26-1.38x / 1.44-1.53x on BBS, 1.1x on
#: the sub-millisecond Ranking point, 1.4x in aggregate).
SEARCH_MIN_SPEEDUP = 1.15
#: No single point of the best-first figure may be slower under numpy.
SEARCH_POINT_MIN_SPEEDUP = 1.0
#: Fewest repeats per (workload, backend) point; the best one counts.
REPEATS = 3
#: Keep repeating a point until this much has been timed, so a point that
#: takes half a millisecond is not decided by three samples.
MIN_MEASURE_SECONDS = 0.05

#: Anticorrelated Dp=2 sizes for the gated skyline sweep.
SKYLINE_SIZES = (10_000, 20_000)
#: Uniform sweep sizes for the gated full-scan top-k sweep.
TOPK_SIZES = (20_000, 50_000)
#: Anticorrelated sizes for the best-first BBS series.
SEARCH_SIZES = (3_000, 6_000)
#: In-memory skyline reference size (O(n²) — keep it modest).
MEMORY_SKYLINE_SIZE = 2_000
#: In-memory top-k reference size (linear scoring sweep).
MEMORY_TOPK_SIZE = 50_000

_EMPTY = BooleanPredicate()
#: The Figure-13 query family, one fixed member (a, b, c > 0).
_LINEAR = LinearFunction((0.4, 0.35, 0.25))
#: An Example-1 style target query (kernel-heavy scoring).
_WSD = WeightedSquaredDistance(
    target=(0.25, 0.5, 0.75), weights=(1.0, 0.8, 0.6)
)
_TOPK_K = 10


def _measure(
    run: Callable[[], tuple[Any, QueryStats]],
) -> tuple[float, Any, dict[str, int]]:
    """Best wall seconds over the repeats, plus answer and I/O counts."""
    best = float("inf")
    answer: Any = None
    snapshot: dict[str, int] = {}
    repeats = 0
    total = 0.0
    while repeats < REPEATS or total < MIN_MEASURE_SECONDS:
        started = time.perf_counter()
        answer, stats = run()
        elapsed = time.perf_counter() - started
        if elapsed < best:
            best = elapsed
        snapshot = stats.counters.snapshot()
        repeats += 1
        total += elapsed
    return best, answer, snapshot


def _point(x: int, run: Callable[[], tuple[Any, QueryStats]]) -> Point:
    """One sweep point: the same workload under both backends.

    Asserts backend invariance (identical answer, identical counted I/O)
    before reporting; the point carries the deterministic gate fields
    plus the wall-clock pair.
    """
    with use_backend(PYTHON):
        python_wall, python_answer, python_io = _measure(run)
    with use_backend(NUMPY):
        numpy_wall, numpy_answer, numpy_io = _measure(run)
    if numpy_answer != python_answer:
        raise AssertionError(
            f"backend answers diverge at x={x}: "
            f"python={len(python_answer)} rows, numpy={len(numpy_answer)}"
        )
    if numpy_io != python_io:
        raise AssertionError(
            f"counted I/O diverges at x={x}: "
            f"python={python_io}, numpy={numpy_io}"
        )
    return (
        Point(x)
        .timing(
            wall_ms_python=python_wall * 1e3,
            wall_ms_numpy=numpy_wall * 1e3,
            speedup=python_wall / numpy_wall if numpy_wall > 0 else 0.0,
        )
        .cost(io={"total": float(sum(python_io.values()))})
        .answer(results=len(python_answer))
    )


def _figure_speedup(figure: dict[str, Any]) -> float:
    """Aggregate python/numpy ratio over every point of a figure."""
    python_total = 0.0
    numpy_total = 0.0
    for series in figure["series"].values():
        for point in series["points"]:
            python_total += point["wall_ms_python"]
            numpy_total += point["wall_ms_numpy"]
    return python_total / numpy_total if numpy_total > 0 else 0.0


def run_kernels_benchmark(
    seed: int = 7,
    min_speedup: float = DEFAULT_MIN_SPEEDUP,
) -> dict[str, Any]:
    """The full kernel sweep; returns a ``repro.bench``-shaped report."""
    if np is None:  # pragma: no cover - environment guard
        raise RuntimeError(
            "the kernels sweep needs numpy importable (there is nothing to "
            "compare against otherwise)"
        )

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
            s.relation, s.indexes, fn, _TOPK_K, _EMPTY
        )

    figures = {
        # gated: the skyline hot paths
        "kernels_skyline": {
            "series": {
                "boolean-first-anticorrelated": sweep(
                    SKYLINE_SIZES,
                    anticorrelated,
                    lambda s: boolean_first_skyline(
                        s.relation, s.indexes, _EMPTY
                    ),
                ),
                "naive-anticorrelated": one(
                    MEMORY_SKYLINE_SIZE,
                    lambda: _stamped(naive_skyline(anti_memory)),
                ),
            }
        },
        # gated: the top-k hot paths
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
        # gated (never slower): best-first search
        "kernels_search": {
            "series": {
                "bbs-anticorrelated": sweep(
                    SEARCH_SIZES, anticorrelated, lambda s: bbs_skyline(s.rtree)
                ),
                "ranking": one(
                    TOPK_SIZES[0],
                    lambda: _ranking(topk_systems[TOPK_SIZES[0]]),
                ),
            }
        },
        # ungated: the in-memory references
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

    gated = {}
    for name, floor in (
        ("kernels_skyline", min_speedup),
        ("kernels_topk", min_speedup),
        ("kernels_search", SEARCH_MIN_SPEEDUP),
    ):
        ratio = _figure_speedup(figures[name])
        gated[name] = ratio
        if ratio < floor:
            raise AssertionError(
                f"{name}: aggregate numpy speedup {ratio:.2f}x is below "
                f"the {floor:g}x gate"
            )
    for series, body in figures["kernels_search"]["series"].items():
        for point in body["points"]:
            if point["speedup"] < SEARCH_POINT_MIN_SPEEDUP:
                raise AssertionError(
                    f"kernels_search/{series} x={point['x']}: numpy is "
                    f"slower than python ({point['speedup']:.2f}x)"
                )

    return envelope(
        KERNELS_SCHEMA,
        seed,
        {"min_speedup": min_speedup},
        figures,
        timings={"gate_speedups": gated},
    )


def _ranking(system) -> tuple[Any, QueryStats]:
    ranked, stats, _ = ranking_topk(
        system.relation, system.rtree, _LINEAR, _TOPK_K, _EMPTY
    )
    return ranked, stats


def _stamped(answer: Any) -> tuple[Any, QueryStats]:
    """Wrap an in-memory result with empty stats (no counted I/O)."""
    return answer, QueryStats()
