"""Sort-first skyline, the Boolean-first baseline's in-memory step.

Sort-first-skyline is from Chomicki et al. [7]; it is reliably the fastest
on the selected subsets of the classic main-memory algorithms the paper
builds on.  Block-nested-loops and divide-and-conquer (Borzsonyi et al.
[2]) are kept in ``tests/reference.py``, where all three are cross-checked
against each other and the naive reference.
"""

from __future__ import annotations

import numpy as np

from repro.kernels.dominate import DominationBuffer, prefix_dominated_mask
from repro.kernels.mindist import sum_block

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
