"""The scalar oracle for :mod:`repro.kernels` and the baselines' batch paths.

One tuple at a time, exactly the arithmetic the paper-faithful code has
always used: Python's left-fold ``sum()``, per-dimension ``if`` ladders,
``any(dominates(...))`` scans, ``reduce`` over integer masks and ``set``
intersection.  The product evaluates the same formulas over numpy blocks;
:mod:`tests.kernels.test_parity` and :mod:`tests.kernels.test_differential`
check that it agrees with these functions bit-for-bit, so the heap orders
and the counted I/O the paper's figures report are the scalar ones.

Nothing under ``src/`` imports this module.
"""

from __future__ import annotations

from functools import reduce
from operator import and_, or_
from typing import Iterable, Sequence

from repro.rtree.geometry import dominates

Rows = Sequence[Sequence[float]]


# --------------------------------------------------------------------------- #
# mindist: heap keys and scores
# --------------------------------------------------------------------------- #


def as_rows(tuples: Sequence[tuple[float, ...]]) -> Rows:
    return tuples


def row_tuples(
    rows: Rows, indices: Sequence[int] | None = None
) -> list[tuple[float, ...]]:
    if indices is None:
        return [tuple(row) for row in rows]
    return [tuple(rows[i]) for i in indices]


def project_rows(rows: Rows, dims: Sequence[int]) -> Rows:
    return [tuple(row[d] for d in dims) for row in rows]


def sum_block(rows: Rows) -> list[float]:
    return [sum(row) for row in rows]


def linear_score_block(
    weights: Sequence[float], rows: Rows
) -> list[float]:
    return [
        sum(w * x for w, x in zip(weights, row)) for row in rows
    ]


def linear_lower_bound_block(
    weights: Sequence[float], lows: Rows, highs: Rows
) -> list[float]:
    return [
        sum(
            w * (lo if w >= 0 else hi)
            for w, lo, hi in zip(weights, row_lo, row_hi)
        )
        for row_lo, row_hi in zip(lows, highs)
    ]


def wsd_score_block(
    weights: Sequence[float], target: Sequence[float], rows: Rows
) -> list[float]:
    return [
        sum(
            w * ((x - t) * (x - t))
            for w, x, t in zip(weights, row, target)
        )
        for row in rows
    ]


def wsd_lower_bound_block(
    weights: Sequence[float],
    target: Sequence[float],
    lows: Rows,
    highs: Rows,
) -> list[float]:
    def scalar(row_lo, row_hi):
        total = 0.0
        for w, t, lo, hi in zip(weights, target, row_lo, row_hi):
            if t < lo:
                delta = lo - t
            elif t > hi:
                delta = t - hi
            else:
                continue
            total += w * delta * delta
        return total

    return [scalar(lo, hi) for lo, hi in zip(lows, highs)]


def separable_score_block(
    terms: Sequence[tuple[int, str, float, float]], rows: Rows
) -> list[float]:
    out = []
    for row in rows:
        total = 0.0
        for dim, kind, coeff, target in terms:
            value = row[dim]
            if kind == "linear":
                total += coeff * value
            else:
                delta = value - target
                total += coeff * (delta * delta)
        out.append(total)
    return out


def separable_lower_bound_block(
    terms: Sequence[tuple[int, str, float, float]],
    lows: Rows,
    highs: Rows,
) -> list[float]:
    def scalar(row_lo, row_hi):
        total = 0.0
        for dim, kind, coeff, target in terms:
            lo, hi = row_lo[dim], row_hi[dim]
            if kind == "linear":
                total += coeff * (lo if coeff >= 0 else hi)
            else:
                if target < lo:
                    delta = lo - target
                elif target > hi:
                    delta = target - hi
                else:
                    delta = 0.0
                total += coeff * delta * delta
        return total

    return [scalar(lo, hi) for lo, hi in zip(lows, highs)]


def mindist_block(
    lows: Rows, highs: Rows, point: Sequence[float]
) -> list[float]:
    def scalar(row_lo, row_hi):
        total = 0.0
        for lo, hi, v in zip(row_lo, row_hi, point):
            if v < lo:
                delta = lo - v
            elif v > hi:
                delta = v - hi
            else:
                continue
            total += delta * delta
        return total

    return [scalar(lo, hi) for lo, hi in zip(lows, highs)]


def transform_points_rows(rows: Rows, query_point: Sequence[float]) -> Rows:
    return [
        tuple(abs(x - q) for x, q in zip(row, query_point))
        for row in rows
    ]


def transform_points_block(
    rows: Rows, query_point: Sequence[float]
) -> list[tuple[float, ...]]:
    return row_tuples(transform_points_rows(rows, query_point))


def transform_rect_lowers_rows(
    lows: Rows, highs: Rows, query_point: Sequence[float]
) -> Rows:
    def scalar(row_lo, row_hi):
        corner = []
        for lo, hi, q in zip(row_lo, row_hi, query_point):
            if q < lo:
                corner.append(lo - q)
            elif q > hi:
                corner.append(q - hi)
            else:
                corner.append(0.0)
        return tuple(corner)

    return [scalar(lo, hi) for lo, hi in zip(lows, highs)]


def transform_rect_lowers_block(
    lows: Rows, highs: Rows, query_point: Sequence[float]
) -> list[tuple[float, ...]]:
    return row_tuples(transform_rect_lowers_rows(lows, highs, query_point))


# --------------------------------------------------------------------------- #
# dominate: domination verdicts
# --------------------------------------------------------------------------- #


class DominationBuffer:
    """An insertion-ordered list of candidate dominators, scanned per probe."""

    def __init__(
        self, dims: int, points: Sequence[Sequence[float]] = ()
    ) -> None:
        if dims < 1:
            raise ValueError("dims must be at least 1")
        self.dims = dims
        self._points: list[tuple[float, ...]] = []
        for point in points:
            self.add(point)

    def __len__(self) -> int:
        return len(self._points)

    def add(self, point: Sequence[float]) -> None:
        point = tuple(point)
        if len(point) != self.dims:
            raise ValueError(
                f"point has {len(point)} dims, buffer expects {self.dims}"
            )
        self._points.append(point)

    def dominates_point(self, probe: Sequence[float], since: int = 0) -> bool:
        points = self._points[since:] if since else self._points
        return any(dominates(s, probe) for s in points)

    def dominates_block(
        self, probes: Sequence[Sequence[float]], packed: bool = False
    ) -> list[bool] | int:
        m = len(probes)
        if m == 0 or not self._points:
            return 0 if packed else [False] * m
        verdicts = [
            any(dominates(s, probe) for s in self._points)
            for probe in probes
        ]
        if packed:
            return sum(1 << j for j, hit in enumerate(verdicts) if hit)
        return verdicts


def prefix_dominated_mask(points) -> list[bool]:
    n = len(points)
    if n <= 1:
        return [False] * n
    return [
        any(dominates(points[i], points[j]) for i in range(j))
        for j in range(n)
    ]


def dominated_mask(
    points: Sequence[tuple[int, Sequence[float]]]
) -> list[bool]:
    return [
        any(
            dominates(other, point)
            for other_tid, other in points
            if other_tid != tid
        )
        for tid, point in points
    ]


# --------------------------------------------------------------------------- #
# sigops: signature algebra over integer masks
# --------------------------------------------------------------------------- #


def or_masks(masks: Sequence[int], nbits: int) -> int:
    if not masks:
        return 0
    return reduce(or_, masks)


def and_masks(masks: Sequence[int], nbits: int) -> int:
    if not masks:
        raise ValueError("and_masks of an empty sequence")
    return reduce(and_, masks)


def popcount_masks(masks: Iterable[int], nbits: int) -> int:
    return sum(mask.bit_count() for mask in masks)


# --------------------------------------------------------------------------- #
# the baselines' batch paths
# --------------------------------------------------------------------------- #


def sfs_skyline(points, matrix=None) -> list[int]:
    """Sort-first skyline, one probe per point against the admitted set."""
    if not points:
        return []
    keys = sum_block([point for _, point in points])
    ordered = [
        item
        for _, item in sorted(
            zip(keys, points),
            key=lambda kv: (kv[0], tuple(kv[1][1]), kv[1][0]),
        )
    ]
    buffer = DominationBuffer(len(ordered[0][1]))
    result = []
    for tid, point in ordered:
        if not buffer.dominates_point(point):
            buffer.add(point)
            result.append(tid)
    return result


def intersect_postings(postings: Iterable[Sequence[int]]) -> set[int]:
    """Index-merge's membership set: postings intersected as Python sets,
    stopping at the first empty intersection."""
    membership: set[int] | None = None
    for posting in postings:
        posting_set = set(posting)
        membership = (
            posting_set if membership is None else membership & posting_set
        )
        if not membership:
            break
    return membership or set()

