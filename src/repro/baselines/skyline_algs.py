"""Classic main-memory skyline algorithms.

Implemented from the literature the paper builds on: block-nested-loops and
divide-and-conquer from Borzsonyi et al. [2] and sort-first-skyline from
Chomicki et al. [7].  SFS is what the Boolean-first baseline uses for its
in-memory preference step (it is reliably the fastest of the three on the
selected subsets); all three are cross-checked against each other and the
naive reference in tests.
"""

from __future__ import annotations

import numpy as np

from repro.kernels.dominate import DominationBuffer, prefix_dominated_mask
from repro.kernels.mindist import sum_block
from repro.rtree.geometry import dominates

Points = list[tuple[int, tuple[float, ...]]]

#: SFS filter block size: each chunk is tested against the accumulated
#: skyline in one ``dominates_block`` call.
_SFS_CHUNK = 1024


def sfs_skyline(points: Points, matrix=None) -> list[int]:
    """Sort-first skyline: presort by a monotone score, filter once.

    After sorting by ``(sum(point), point)`` no later point can dominate
    an earlier one, so a single pass comparing against the accumulated
    skyline is complete.  The point itself breaks sum ties for the reason
    :class:`~repro.query.algorithm1.HeapEntry` gives: float sums can
    collapse a dominating pair into one key, and only the lexicographic
    order then keeps the dominator first.  It also makes the report order
    ``(Σ point, point, tid)`` — Algorithm 1's — so an engine built on SFS
    answers with the signature engine's list, not just its set.  The sort
    key and the domination filter both run through the batch kernels; the
    order is the per-point sort's because ``sum_block`` reproduces
    ``sum()`` bit-for-bit.

    ``matrix`` optionally carries the same coordinates as a float64
    ``(n, d)`` ndarray aligned with ``points`` (a columnar gather), so it
    is never rebuilt from per-row tuples.

    The filter works in chunks rather than per point: a whole chunk
    is tested against the skyline-so-far in one block call, and only its
    survivors are checked (scalar, in order) against the few points the
    same chunk has already admitted — equivalent to the sequential pass,
    because after the sort a point can only be dominated by points that
    come before it.
    """
    if not points:
        return []
    x = (
        matrix
        if matrix is not None
        else np.asarray([point for _, point in points], dtype=np.float64)
    )
    tids = np.asarray([tid for tid, _ in points], dtype=np.int64)
    keys = np.asarray(sum_block(x), dtype=np.float64)
    order = np.lexsort((tids, *x.T[::-1], keys))
    sorted_x = x[order]
    sorted_tids = tids[order].tolist()
    buffer = DominationBuffer(x.shape[1])
    result: list[int] = []
    for start in range(0, len(sorted_tids), _SFS_CHUNK):
        block = sorted_x[start : start + _SFS_CHUNK]
        dead = buffer.dominates_block(block)
        survivors = [
            offset for offset, is_dead in enumerate(dead) if not is_dead
        ]
        if not survivors:
            continue
        # Survivors of the buffer test can still be dominated by a point
        # admitted earlier in this same chunk; by transitivity that equals
        # "dominated by any earlier survivor", one pairwise upper-triangle
        # kernel call.
        in_chunk = prefix_dominated_mask(block[survivors])
        for offset, is_dead in zip(survivors, in_chunk):
            if is_dead:
                continue
            buffer.add(tuple(block[offset].tolist()))
            result.append(sorted_tids[start + offset])
    return result


def bnl_skyline(points: Points, window: int = 1024) -> list[int]:
    """Block-nested-loops skyline with a bounded comparison window.

    The original algorithm's timestamp rule, made explicit: a window member
    is final after a pass only if it entered the window *before* the first
    tuple overflowed — otherwise some overflow tuple was never compared
    against it, and the member must go around again with the overflow.
    """
    remaining = list(points)
    skyline: list[tuple[int, tuple[float, ...]]] = []
    while remaining:
        # (tid, point, entered_at_input_index)
        window_items: list[tuple[int, tuple[float, ...], int]] = []
        overflow: list[tuple[int, tuple[float, ...]]] = []
        first_overflow_at: int | None = None
        for position, (tid, point) in enumerate(remaining):
            dominated = False
            survivors: list[tuple[int, tuple[float, ...], int]] = []
            for w_tid, w_point, w_at in window_items:
                if dominates(w_point, point):
                    dominated = True
                    break
                if not dominates(point, w_point):
                    survivors.append((w_tid, w_point, w_at))
            if dominated:
                continue
            window_items = survivors
            if len(window_items) < window:
                window_items.append((tid, point, position))
            else:
                if first_overflow_at is None:
                    first_overflow_at = position
                overflow.append((tid, point))
        cutoff = first_overflow_at if first_overflow_at is not None else len(
            remaining
        )
        deferred: list[tuple[int, tuple[float, ...]]] = []
        for tid, point, entered_at in window_items:
            if entered_at < cutoff:
                skyline.append((tid, point))
            else:
                deferred.append((tid, point))
        remaining = deferred + overflow
    return [tid for tid, _ in skyline]


def dnc_skyline(points: Points, threshold: int = 64) -> list[int]:
    """Divide-and-conquer skyline: split on a median, merge by filtering."""
    if not points:
        return []
    tids = set(_dnc([(tid, tuple(p)) for tid, p in points], 0, threshold))
    return [tid for tid, _ in points if tid in tids]


def _dnc(points: Points, depth: int, threshold: int) -> list[int]:
    if len(points) <= threshold:
        return sfs_skyline(points)
    dims = len(points[0][1])
    dim = depth % dims
    ordered = sorted(points, key=lambda item: item[1][dim])
    mid = len(ordered) // 2
    left, right = ordered[:mid], ordered[mid:]
    left_sky = set(_dnc(left, depth + 1, threshold))
    right_sky = set(_dnc(right, depth + 1, threshold))
    left_points = {tid: point for tid, point in left if tid in left_sky}
    right_points = {tid: point for tid, point in right if tid in right_sky}
    # Cross-filter both halves.  The classic merge only filters the right
    # half, which is sound for a strict value split; a median split can put
    # equal split-dimension values on both sides, where a right point may
    # dominate a left one, so the symmetric check is required for
    # exactness.  (Transitivity makes filtering against the half-skylines,
    # rather than the full halves, sufficient.)
    left_buffer = DominationBuffer(dims, points=list(left_points.values()))
    right_buffer = DominationBuffer(dims, points=list(right_points.values()))
    left_dominated = right_buffer.dominates_block(
        list(left_points.values())
    )
    right_dominated = left_buffer.dominates_block(
        list(right_points.values())
    )
    survivors = [
        tid
        for tid, dominated in zip(left_points, left_dominated)
        if not dominated
    ]
    survivors.extend(
        tid
        for tid, dominated in zip(right_points, right_dominated)
        if not dominated
    )
    return survivors
