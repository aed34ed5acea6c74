"""The four non-figure sweeps at toy size: envelope, determinism, typing.

CI runs each sweep at full size against its committed baseline; this keeps
their plumbing inside tier-1 — a few hundred tuples, a handful of queries,
one thread count, one repeat.  What is checked is the harness contract
every sweep shares (:mod:`benchmarks.sweeps.harness`), not performance: the
routing sweep keeps the smallest size at which its in-process assertions
(routed-cold reads no more than the best pinned engine, hit rate ≥ 0.5 —
which takes repeats, so 12 queries over 3 templates) hold.
"""

from __future__ import annotations

import json

import pytest

from benchmarks.sweeps import SWEEPS, compare_reports, dumps_report, strip_timings
from benchmarks.sweeps import kernels
from benchmarks.sweeps.harness import ANSWER, COST, TIMING, Point, envelope

TOY = {
    "serving": dict(
        n_tuples=300, threads=(2,), n_queries=6, read_latency=0.0
    ),
    "durability": dict(
        recovery_ops=(6,),
        checkpoint_every=4,
        recovery_tuples=60,
        scrub_tuples=300,
        threads=(2,),
        n_queries=6,
        repeats=1,
        read_latency=0.0,
    ),
    "routing": dict(
        n_tuples=800, n_queries=12, n_templates=3, read_latency=0.0
    ),
    "kernels": dict(),
}

TOY_KERNELS = dict(
    SKYLINE_SIZES=(300,),
    TOPK_SIZES=(300,),
    SEARCH_SIZES=(300,),
    MEMORY_SKYLINE_SIZE=200,
    MEMORY_TOPK_SIZE=300,
    REPEATS=1,
    MIN_MEASURE_SECONDS=0.0,
)


def _points(report):
    for figure in report["figures"].values():
        for series in figure["series"].values():
            yield from series["points"]


@pytest.mark.parametrize("name", sorted(TOY))
def test_sweep_at_toy_size(name, monkeypatch):
    if name == "kernels":
        for constant, value in TOY_KERNELS.items():
            monkeypatch.setattr(kernels, constant, value)
    sweep = SWEEPS[name]
    report = sweep.run(seed=7, **TOY[name])
    again = sweep.run(seed=7, **TOY[name])

    # The envelope: every sweep's report has the same outside.
    assert report["schema"].startswith("repro.") and report["seed"] == 7
    assert sweep.out == f"BENCH_{name}.json"
    fields = report["fields"]
    assert set(fields.values()) == {TIMING, COST, ANSWER}
    points = list(_points(report))
    assert points
    assert fields["results"] == ANSWER and fields["io"] == COST
    for point in points:
        assert set(point) - {"x"} <= set(fields)

    # Same seed ⇒ byte-identical once the timings are stripped.
    text = dumps_report(strip_timings(report))
    assert text == dumps_report(strip_timings(again))
    timings = {field for field, kind in fields.items() if kind == TIMING}
    assert not timings & set(json.loads(text)) and "wall_ms" not in text

    # A timing is never gated, a count always is: move every number of a
    # doctored baseline and see which ones the gate reports.
    baseline = json.loads(dumps_report(report))
    gated = set()
    for point in _points(baseline):
        for field in set(point) - {"x"}:
            point[field] = _halved(point[field])
            if fields[field] != TIMING:
                gated.add(field)
    regressions, notes = compare_reports(report, baseline, fail_over=10.0)
    assert notes == []
    moved = {delta.path.rsplit("/", 1)[1].split(".")[0] for delta in regressions}
    assert not moved & timings
    # (a count that is 0 on both sides has nothing to move)
    assert moved == {
        field
        for field in gated
        if any(_nonzero(point.get(field)) for point in points)
    }


def _halved(value):
    if isinstance(value, dict):
        return {key: _halved(item) for key, item in value.items()}
    return value / 2


def _nonzero(value) -> bool:
    if isinstance(value, dict):
        return any(_nonzero(item) for item in value.values())
    return bool(value)


def test_a_field_is_typed_where_it_is_emitted():
    """What the old allow-list could not promise: a field the gate has never
    heard of is gated or not by how it was emitted, nothing else."""
    current = Point(1).timing(brand_new_ms=9.0).cost(pages=9).answer(rows=9)
    report = envelope(
        "repro.test/v1", 7, {}, {"f": {"series": {"s": {"points": [current]}}}}
    )
    baseline = json.loads(dumps_report(report))
    for field in ("brand_new_ms", "pages", "rows"):
        baseline["figures"]["f"]["series"]["s"]["points"][0][field] = 1
    regressions, _ = compare_reports(report, baseline)
    assert [delta.path for delta in regressions] == ["f/s/x=1/pages", "f/s/x=1/rows"]
    assert "brand_new_ms" not in dumps_report(strip_timings(report))

    # A plain dict cannot reach a report, and one name has one kind.
    with pytest.raises(TypeError, match="harness.Point"):
        envelope("s", 7, {}, {"f": {"series": {"s": {"points": [{"x": 1}]}}}})
    with pytest.raises(ValueError, match="emitted as"):
        envelope(
            "s",
            7,
            {},
            {
                "f": {
                    "series": {
                        "s": {
                            "points": [
                                Point(1).timing(n=1.0),
                                Point(2).cost(n=1),
                            ]
                        }
                    }
                }
            },
        )
