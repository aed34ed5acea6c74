"""The one measurement harness the ``benchmarks.sweeps`` sweeps run on.

The paper's evaluation keeps two things apart — what the algorithm saves
(disk accesses, Figure 9) and what the machine spends (time, Figure 8) —
and so does every report here.  A sweep says which is which *where it
emits a field*:

* :meth:`Point.timing` — wall clock and anything derived from it
  (throughput, speedups, overheads).  Moves with machine load; never
  gated, and dropped by :func:`strip_timings`.
* :meth:`Point.cost` — a counted cost (page accesses, heap peaks, cache
  misses, replayed records).  A pure function of the seeded input; the
  ``--compare`` gate fails it when it *rises* beyond ``--fail-over``.
* :meth:`Point.answer` — the size or shape of what was answered (results,
  queries covered, who served them).  Also deterministic, and no direction
  is better: the gate fails on any change.

:func:`envelope` collects the typing into the report's ``fields`` table,
which is all :mod:`benchmarks.sweeps.compare` goes by — there is no list of
timing names to keep in step with the sweeps.

The serving sweeps share the rest: :func:`serving_setup` (system, seeded
workload, serial reference), :func:`serve_pass` (the workload through a
:class:`QueryExecutor`, every answer checked against that reference),
:func:`paired_median` (two configurations interleaved, the median pass of
each) and the points built from them.  DESIGN.md §15 has the reasoning.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from typing import Any, Callable, Sequence

from repro.data.fixtures import build_sweep_system
from repro.data.workload import read_mix
from repro.serve.executor import QueryExecutor
from repro.storage.buffer import BufferPool

TIMING = "timing"
COST = "cost"
ANSWER = "answer"

#: Buffer-pool pages for the serving sweeps: larger than any working set
#: they build, so a warm pool never evicts.
POOL_CAPACITY = 65_536
#: Modeled per-read latency (200 µs: far below the 2008 disk the figures
#: model, but enough to dominate the Python-side work it overlaps).
READ_LATENCY = 2e-4


class Point(dict):
    """One series point: ``x`` plus fields typed as they are emitted."""

    def __init__(self, x: Any) -> None:
        super().__init__(x=x)
        self.kinds: dict[str, str] = {}

    def _emit(self, kind: str, fields: dict[str, Any]) -> "Point":
        self.update(fields)
        self.kinds.update(dict.fromkeys(fields, kind))
        return self

    def timing(self, **fields: Any) -> "Point":
        return self._emit(TIMING, fields)

    def cost(self, **fields: Any) -> "Point":
        return self._emit(COST, fields)

    def answer(self, **fields: Any) -> "Point":
        return self._emit(ANSWER, fields)


def empty_series(*names: str) -> dict[str, dict[str, list]]:
    return {name: {"points": []} for name in names}


def envelope(
    schema: str,
    seed: int,
    params: dict[str, Any],
    figures: dict[str, Any],
    timings: dict[str, Any] | None = None,
) -> dict[str, Any]:
    """The report every sweep returns.

    ``params`` are the sweep's deterministic settings, ``timings`` any
    machine-speed summaries it keeps outside the figures; both sit at the
    top level beside ``figures``.  ``fields`` maps every emitted field
    name to its kind — one name, one kind, across the whole report.
    """
    fields = dict.fromkeys(timings or {}, TIMING)
    for name, figure in figures.items():
        for series_name, body in figure["series"].items():
            for point in body["points"]:
                if not isinstance(point, Point):
                    raise TypeError(
                        f"{name}/{series_name}: a point must be built with "
                        "harness.Point so its fields are typed"
                    )
                for field, kind in point.kinds.items():
                    if fields.setdefault(field, kind) != kind:
                        raise ValueError(
                            f"{name}/{series_name}: {field!r} emitted as "
                            f"{kind} and as {fields[field]}"
                        )
    return {
        "schema": schema,
        "seed": seed,
        **params,
        **(timings or {}),
        "fields": fields,
        "figures": figures,
    }


def strip_timings(report: dict[str, Any]) -> dict[str, Any]:
    """A deep copy without the timing fields — the part of a report that
    must be byte-identical across same-seed runs."""
    timing = {
        name for name, kind in report["fields"].items() if kind == TIMING
    }

    def strip(value: Any) -> Any:
        if isinstance(value, dict):
            return {
                key: strip(item)
                for key, item in value.items()
                if key not in timing
            }
        if isinstance(value, list):
            return [strip(item) for item in value]
        return value

    return strip(report)


# --------------------------------------------------------------------- #
# serving passes
# --------------------------------------------------------------------- #


@dataclass
class Pass:
    """One timed pass of a workload."""

    elapsed: float
    results: list
    #: ``executor.stats.snapshot()`` (``None`` for a serial pass).
    stats: dict | None = None
    #: The scrubber's stats when the pass ran with one.
    scrub: dict | None = None


def serving_setup(
    n_tuples: int, seed: int, n_queries: int, read_latency: float
) -> tuple[Any, list[tuple[str, dict]], Pass]:
    """What the serving sweeps share: one sweep system whose disk charges
    ``read_latency`` per read (the build ran latency-free; only serving
    pays the modeled device), the seeded skyline / top-k mix, and its
    reference pass in the paper mode — the serial engine, one thread, a
    cold pool per query."""
    system = build_sweep_system(n_tuples)
    system.disk.read_latency = read_latency
    workload = read_mix(system.relation, random.Random(seed), n_queries)
    started = time.perf_counter()
    results = [
        getattr(system.engine, kind)(**kwargs) for kind, kwargs in workload
    ]
    reference = Pass(time.perf_counter() - started, results)
    return system, workload, reference


def serve_pass(
    system,
    workload: Sequence[tuple[str, dict]],
    reference: Pass,
    label: str,
    threads: int,
    pool: BufferPool,
    scrubbing: dict[str, Any] | None = None,
) -> Pass:
    """Serve ``workload`` through a :class:`QueryExecutor` and check it.

    Every answer must equal the serial ``reference``'s tids — asserted,
    not reported.  ``scrubbing`` (keyword arguments of
    :meth:`QueryExecutor.enable_scrubbing`) runs the background scrubber
    for the length of the pass.
    """
    with QueryExecutor(
        system,
        threads=threads,
        queue_depth=2 * len(workload),
        pool=pool,
    ) as executor:
        if scrubbing is not None:
            executor.enable_scrubbing(**scrubbing)
        started = time.perf_counter()
        tickets = [
            getattr(executor, kind)(**kwargs) for kind, kwargs in workload
        ]
        results = [ticket.result(timeout=600.0) for ticket in tickets]
        elapsed = time.perf_counter() - started
        scrub = (
            executor.scrubber.stats.snapshot()
            if scrubbing is not None
            else None
        )
    for expected, result in zip(reference.results, results):
        if result.tids != expected.tids:
            raise AssertionError(
                f"{label} answer diverges from the serial engine"
            )
    return Pass(elapsed, results, executor.stats.snapshot(), scrub)


def paired_median(
    run: Callable[[str], Pass], labels: tuple[str, str], repeats: int
) -> tuple[Pass, Pass]:
    """Each label's median-wall pass out of ``repeats`` interleaved rounds.

    One untimed warm-up per label, then the timed passes alternate who
    goes first: the second pass of a round runs into caches (and garbage)
    the first one warmed (produced), and neither that bias nor slow
    machine drift may land on one side only.  The median is less
    load-sensitive than the mean and less lucky than the minimum.
    """
    for label in labels:
        run(label)
    passes: dict[str, list[Pass]] = {label: [] for label in labels}
    for round_index in range(repeats):
        for label in labels[::-1] if round_index % 2 else labels:
            passes[label].append(run(label))
    first, second = (
        sorted(passes[label], key=lambda item: item.elapsed)[repeats // 2]
        for label in labels
    )
    return first, second


def served_point(x: Any, served: Pass, with_io: bool = True) -> Point:
    """A pass as a point: wall and throughput, counted I/O, answer size.

    ``with_io=False`` leaves the I/O total out where it depends on thread
    interleaving (two workers missing the same page both count a read).
    """
    point = (
        Point(x)
        .timing(
            wall_ms=served.elapsed * 1e3,
            qps=len(served.results) / served.elapsed,
        )
        .answer(results=sum(len(r.tids) for r in served.results))
    )
    if with_io:
        point.cost(
            io={"total": sum(r.stats.total_io() for r in served.results)}
        )
    return point


def paired_sweep(
    setup: tuple[Any, list[tuple[str, dict]], Pass],
    threads: Sequence[int],
    repeats: int,
    configs: dict[str, dict[str, Any]],
    what: str,
) -> tuple[dict[str, Any], list[Pass]]:
    """A whole paired figure: per thread count, :func:`paired_median` over
    the two ``configs`` (label → extra :func:`serve_pass` options, the bare
    one first; each gets its own warm pool) as two points, the second
    carrying its wall overhead over the first.  The pair's contract is
    asserted here: the configuration under test may cost time, never
    pages.  Returns the series and, per thread count, the second
    configuration's median pass for whatever else the sweep reports.
    """
    system, workload, reference = setup
    figure = empty_series(*configs)
    others = []
    for n_threads in threads:
        pools = {
            label: BufferPool(system.disk, capacity=POOL_CAPACITY)
            for label in configs
        }
        bare, other = paired_median(
            lambda label: serve_pass(
                system,
                workload,
                reference,
                f"{what} ({label})",
                n_threads,
                pools[label],
                **configs[label],
            ),
            tuple(configs),
            repeats,
        )
        points = served_point(n_threads, bare), served_point(n_threads, other)
        points[1].timing(
            overhead_pct=(other.elapsed - bare.elapsed) / bare.elapsed * 100
        )
        if points[1]["io"] != points[0]["io"]:
            raise AssertionError(
                f"{what} changed the query path's fault-free I/O "
                f"({points[1]['io']} vs {points[0]['io']})"
            )
        for label, point in zip(configs, points):
            figure[label]["points"].append(point)
        others.append(other)
    return figure, others
