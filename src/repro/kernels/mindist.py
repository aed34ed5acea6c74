"""Batch lower-bound and score kernels for heap insertion (BBS / top-k).

Every function evaluates one scalar formula over a *block* of points or
rectangles and returns plain Python floats.  Each accumulates per
dimension in the exact order of the scalar formula it replaces —
``total = 0.0; for d: total += term_d`` — because Python's ``sum()`` folds
left-to-right from 0 and float addition is not associative.  Term
expressions keep the scalar grouping too: a rectangle bound is
``w * delta * delta`` = ``(w·Δ)·Δ`` and a point score is
``w * (delta * delta)`` = ``w·(Δ·Δ)``.  The square is always a multiply,
never ``** 2``: C ``pow`` is not correctly rounded and differs from
``Δ·Δ`` in the last ulp for some inputs.  So a block key equals the
per-tuple key bit-for-bit, and heap orders (hence counted I/O) are the
scalar formulas' — ``tests/kernels/reference.py`` keeps those formulas
and the parity suite pins every kernel against them.

A block of at most :data:`_LOOP_ROWS` rows — what an expansion hands over
when the reader holds a few of its children — is one loop over the rows
as tuples instead: there a numpy pass costs only its fixed overhead.  The
loop is the numpy pass written out element by element (the same
``where`` ladders, the same ``0.0`` start and order), so the two regimes
agree bit for bit.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

Rows = Sequence[Sequence[float]]

#: Up to this many rows a key or transform kernel loops over tuples;
#: beyond, numpy.  An expansion's keying and probing of its held
#: children (3 dimensions) is faster on the loop up to 20–28 children of
#: a 56-child leaf and at every count on an 18-child inner node, and
#: slower beyond (DESIGN.md §13): this bound sits below that band.
_LOOP_ROWS = 16


def _tuples(rows: Rows) -> Rows:
    """A small block's rows as sequences of Python floats."""
    return rows.tolist() if isinstance(rows, np.ndarray) else rows


def _clamp(v: float, lo: float, hi: float) -> float:
    """How far ``v`` lies outside ``[lo, hi]`` — the numpy passes' ``where``
    ladder, one element."""
    return lo - v if v < lo else (v - hi if v > hi else 0.0)


def _matrix(rows: Rows):
    """A float64 (n, d) matrix over a non-empty block of same-width rows.

    Already-columnar input (an ndarray straight out of
    :class:`repro.cube.columnar.ColumnarProjection`) passes through
    without a copy — the point of handing matrices down the stack.
    """
    if isinstance(rows, np.ndarray) and rows.dtype == np.float64:
        return rows
    return np.asarray(rows, dtype=np.float64)


def as_rows(tuples: Sequence[tuple[float, ...]]) -> Rows:
    """A block of same-width float tuples as a float64 matrix (an empty
    block stays as it is).  Callers that evaluate one block through
    several kernels convert once and hand the rows on."""
    if len(tuples) == 0:
        return tuples
    return _matrix(tuples)


def row_tuples(
    rows: Rows, indices: Sequence[int] | None = None
) -> list[tuple[float, ...]]:
    """Rows (all, or those at ``indices``) as tuples of Python floats."""
    if isinstance(rows, np.ndarray):
        picked = rows if indices is None else rows[list(indices)]
        return [tuple(row) for row in picked.tolist()]
    if indices is None:
        return [tuple(row) for row in rows]
    return [tuple(rows[i]) for i in indices]


def project_rows(rows: Rows, dims: Sequence[int]) -> Rows:
    """The columns ``dims`` of every row (a subspace projection)."""
    if isinstance(rows, np.ndarray):
        return rows[:, list(dims)]
    return [tuple(row[d] for d in dims) for row in rows]


def pick_rows(
    matrix, tuples: Sequence[tuple[float, ...]], indices: list[int]
) -> Rows:
    """The rows at ``indices`` of a block kept both as a float64 matrix and
    as tuples, in the form a kernel takes them fastest: the tuples
    themselves for a block the kernels loop over, matrix rows beyond."""
    if len(indices) <= _LOOP_ROWS:
        return [tuples[i] for i in indices]
    return matrix[indices]


# --------------------------------------------------------------------------- #
# skyline keys: d(n) = Σ lows  (and plain coordinate sums)
# --------------------------------------------------------------------------- #


def sum_block(rows: Rows) -> list[float]:
    """``[sum(row) for row in rows]`` — the skyline heap key d(n)."""
    if len(rows) <= _LOOP_ROWS:
        out = []
        for row in _tuples(rows):
            total = 0.0
            for x in row:
                total += x
            out.append(total)
        return out
    x = _matrix(rows)
    total = np.zeros(len(rows), dtype=np.float64)
    for d in range(x.shape[1]):
        total += x[:, d]
    return total.tolist()


# --------------------------------------------------------------------------- #
# linear functions: f = Σ w_d x_d
# --------------------------------------------------------------------------- #


def linear_score_block(
    weights: Sequence[float], rows: Rows
) -> list[float]:
    """``LinearFunction.score`` over a block of points."""
    if len(rows) <= _LOOP_ROWS:
        out = []
        for row in _tuples(rows):
            total = 0.0
            for w, x in zip(weights, row):
                total += w * x
            out.append(total)
        return out
    x = _matrix(rows)
    total = np.zeros(len(rows), dtype=np.float64)
    for d, w in enumerate(weights):
        total += w * x[:, d]
    return total.tolist()


def linear_lower_bound_block(
    weights: Sequence[float], lows: Rows, highs: Rows
) -> list[float]:
    """``LinearFunction.lower_bound`` over a block of rectangles."""
    if len(lows) <= _LOOP_ROWS:
        out = []
        for row_lo, row_hi in zip(_tuples(lows), _tuples(highs)):
            total = 0.0
            for w, lo, hi in zip(weights, row_lo, row_hi):
                total += w * (lo if w >= 0 else hi)
            out.append(total)
        return out
    lo = _matrix(lows)
    hi = _matrix(highs)
    total = np.zeros(len(lows), dtype=np.float64)
    for d, w in enumerate(weights):
        total += w * (lo[:, d] if w >= 0 else hi[:, d])
    return total.tolist()


# --------------------------------------------------------------------------- #
# weighted squared distance: f = Σ w_d (x_d − t_d)²  (Example 1 / MINDIST)
# --------------------------------------------------------------------------- #


def wsd_score_block(
    weights: Sequence[float], target: Sequence[float], rows: Rows
) -> list[float]:
    """``WeightedSquaredDistance.score`` over a block of points."""
    if len(rows) <= _LOOP_ROWS:
        out = []
        for row in _tuples(rows):
            total = 0.0
            for w, x, t in zip(weights, row, target):
                delta = x - t
                total += w * (delta * delta)
            out.append(total)
        return out
    x = _matrix(rows)
    total = np.zeros(len(rows), dtype=np.float64)
    for d, (w, t) in enumerate(zip(weights, target)):
        delta = x[:, d] - t
        total += w * (delta * delta)
    return total.tolist()


def wsd_lower_bound_block(
    weights: Sequence[float],
    target: Sequence[float],
    lows: Rows,
    highs: Rows,
) -> list[float]:
    """``WeightedSquaredDistance.lower_bound`` over a block of rectangles.

    The scalar formula skips in-range dimensions; adding an exact 0.0
    term instead is bit-identical (x + 0.0 == x for finite x ≥ 0 sums).
    """
    if len(lows) <= _LOOP_ROWS:
        out = []
        for row_lo, row_hi in zip(_tuples(lows), _tuples(highs)):
            total = 0.0
            for w, t, lo, hi in zip(weights, target, row_lo, row_hi):
                delta = _clamp(t, lo, hi)
                total += w * delta * delta
            out.append(total)
        return out
    lo = _matrix(lows)
    hi = _matrix(highs)
    total = np.zeros(len(lows), dtype=np.float64)
    for d, (w, t) in enumerate(zip(weights, target)):
        delta = np.where(
            t < lo[:, d],
            lo[:, d] - t,
            np.where(t > hi[:, d], t - hi[:, d], 0.0),
        )
        total += w * delta * delta
    return total.tolist()


# --------------------------------------------------------------------------- #
# separable functions: per-term linear / squared mixes
# --------------------------------------------------------------------------- #


def separable_score_block(
    terms: Sequence[tuple[int, str, float, float]], rows: Rows
) -> list[float]:
    """``SeparableFunction.score`` over a block of points."""
    if len(rows) <= _LOOP_ROWS:
        out = []
        for row in _tuples(rows):
            total = 0.0
            for dim, kind, coeff, target in terms:
                if kind == "linear":
                    total += coeff * row[dim]
                else:
                    delta = row[dim] - target
                    total += coeff * (delta * delta)
            out.append(total)
        return out
    x = _matrix(rows)
    total = np.zeros(len(rows), dtype=np.float64)
    for dim, kind, coeff, target in terms:
        col = x[:, dim]
        if kind == "linear":
            total += coeff * col
        else:
            delta = col - target
            total += coeff * (delta * delta)
    return total.tolist()


def separable_lower_bound_block(
    terms: Sequence[tuple[int, str, float, float]],
    lows: Rows,
    highs: Rows,
) -> list[float]:
    """``SeparableFunction.lower_bound`` over a block of rectangles."""
    if len(lows) <= _LOOP_ROWS:
        out = []
        for row_lo, row_hi in zip(_tuples(lows), _tuples(highs)):
            total = 0.0
            for dim, kind, coeff, target in terms:
                lo, hi = row_lo[dim], row_hi[dim]
                if kind == "linear":
                    total += coeff * (lo if coeff >= 0 else hi)
                else:
                    delta = _clamp(target, lo, hi)
                    total += coeff * delta * delta
            out.append(total)
        return out
    lo = _matrix(lows)
    hi = _matrix(highs)
    total = np.zeros(len(lows), dtype=np.float64)
    for dim, kind, coeff, target in terms:
        if kind == "linear":
            total += coeff * (lo[:, dim] if coeff >= 0 else hi[:, dim])
        else:
            delta = np.where(
                target < lo[:, dim],
                lo[:, dim] - target,
                np.where(target > hi[:, dim], target - hi[:, dim], 0.0),
            )
            total += coeff * delta * delta
    return total.tolist()


# --------------------------------------------------------------------------- #
# classic MINDIST: squared distance from a point to each rectangle
# --------------------------------------------------------------------------- #


def mindist_block(
    lows: Rows, highs: Rows, point: Sequence[float]
) -> list[float]:
    """Squared Euclidean distance from ``point`` to the nearest point of
    each rectangle (zero inside) — the classic MINDIST, over a block."""
    if len(lows) <= _LOOP_ROWS:
        out = []
        for row_lo, row_hi in zip(_tuples(lows), _tuples(highs)):
            total = 0.0
            for lo, hi, v in zip(row_lo, row_hi, point):
                delta = _clamp(v, lo, hi)
                total += delta * delta
            out.append(total)
        return out
    lo = _matrix(lows)
    hi = _matrix(highs)
    total = np.zeros(len(lows), dtype=np.float64)
    for d, v in enumerate(point):
        delta = np.where(
            v < lo[:, d],
            lo[:, d] - v,
            np.where(v > hi[:, d], v - hi[:, d], 0.0),
        )
        total += delta * delta
    return total.tolist()


# --------------------------------------------------------------------------- #
# the dynamic-skyline transform: x ↦ |x − q|  (points and rect low corners)
# --------------------------------------------------------------------------- #


def transform_points_rows(rows: Rows, query_point: Sequence[float]) -> Rows:
    """``|x − q|`` per row: a matrix — what a caller hands straight on to
    :func:`sum_block` and a domination mask without a round trip through
    tuples — or, for a block the loop takes, the tuples themselves."""
    if len(rows) <= _LOOP_ROWS:
        return [
            tuple([abs(x - q) for x, q in zip(row, query_point)])
            for row in _tuples(rows)
        ]
    return np.abs(_matrix(rows) - np.asarray(query_point, dtype=np.float64))


def transform_points_block(
    rows: Rows, query_point: Sequence[float]
) -> list[tuple[float, ...]]:
    """``transform_point`` over a block of points (exact: |x−q| per dim)."""
    return row_tuples(transform_points_rows(rows, query_point))


def transform_rect_lowers_rows(
    lows: Rows, highs: Rows, query_point: Sequence[float]
) -> Rows:
    """Low corners of the rectangles' images under ``x ↦ |x − q|``, as
    :func:`transform_points_rows` returns its rows."""
    if len(lows) <= _LOOP_ROWS:
        return [
            tuple([_clamp(q, lo, hi) for lo, hi, q in zip(lo_row, hi_row, query_point)])
            for lo_row, hi_row in zip(_tuples(lows), _tuples(highs))
        ]
    lo = _matrix(lows)
    hi = _matrix(highs)
    q = np.asarray(query_point, dtype=np.float64)
    return np.where(q < lo, lo - q, np.where(q > hi, q - hi, 0.0))


def transform_rect_lowers_block(
    lows: Rows, highs: Rows, query_point: Sequence[float]
) -> list[tuple[float, ...]]:
    """``transform_rect_lower`` over a block of rectangles."""
    return row_tuples(transform_rect_lowers_rows(lows, highs, query_point))
