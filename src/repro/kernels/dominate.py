"""Vectorized block-vs-skyline-buffer domination.

Domination (minimising: ≤ everywhere, < somewhere) is pure comparison, so
the verdicts are exactly the scalar ``any(dominates(s, p) ...)`` scans'
(``tests/kernels/reference.py``); what the block path buys is evaluating
a whole buffer (or a whole block of probes) per C call instead of per
Python iteration — the dominant cost of BBS pops and of the in-memory
skyline filters once skylines grow.

Tie semantics are inherited, not reimplemented: these kernels only answer
"is this probe dominated", while the PR-2 lexicographic tie-break lives in
the search heap's ``(key, tie, seq)`` order (``HeapEntry.__lt__``) on the
exact float tuples the kernels are handed.
"""

from __future__ import annotations

from operator import gt, lt
from typing import Sequence

import numpy as np

#: Buffer rows compared per chunk when probing one point (lets the common
#: "dominated early" case exit without scanning the whole buffer).
_PROBE_CHUNK = 512
#: Up to this many buffer rows a point probe is one early-exit loop over
#: the tuples, written out for widths 2–4; beyond, per-dimension chunks.
#: Even when every row is compared on every dimension the loop beats the
#: numpy pass's fixed cost up to about 512 rows (DESIGN.md §13).
_SCALAR_PROBE = 384
#: The same bound for the generic loop other widths run (two C calls per
#: row instead of inline comparisons: it crosses over at 32–96 rows).
_GENERIC_PROBE = 32
#: Element budget for (buffer, probes, dims) broadcast tensors.
_TENSOR_BUDGET = 1 << 20
#: First dominator-chunk size for block probes (most probes die here).
_SEED_CHUNK = 16
#: Up to this many (buffer row, probe) pairs a block probe is one pass over
#: the whole buffer; beyond, it escalates from ``_SEED_CHUNK`` (§13).
_ONE_PASS_PAIRS = 4096


class DominationBuffer:
    """An insertion-ordered buffer of candidate dominators.

    The skyline strategies grow one as results are discovered; SFS grows
    one during its filter pass.  The points are kept twice: as tuples for
    the loop that probes a short window, and as the rows of a float64
    matrix for everything else.
    """

    __slots__ = ("dims", "_points", "_arr", "_scan", "_scan_rows")

    def __init__(
        self, dims: int, points: Sequence[Sequence[float]] = ()
    ) -> None:
        if dims < 1:
            raise ValueError("dims must be at least 1")
        self.dims = dims
        self._points: list[tuple[float, ...]] = []
        self._arr = None
        self._scan, self._scan_rows = _SCANS.get(
            dims, (_scan_any, _GENERIC_PROBE)
        )
        for point in points:
            self.add(point)

    def __len__(self) -> int:
        return len(self._points)

    def add(self, point: Sequence[float]) -> None:
        point = tuple(point)
        if len(point) != self.dims:
            raise _width_error(len(point), self.dims)
        n = len(self._points)
        self._points.append(point)
        if self._arr is None:
            self._arr = np.empty((16, self.dims), dtype=np.float64)
        elif n == len(self._arr):
            grown = np.empty((2 * n, self.dims), dtype=np.float64)
            grown[:n] = self._arr
            self._arr = grown
        self._arr[n] = point

    def dominates_point(self, probe: Sequence[float], since: int = 0) -> bool:
        """Whether any point buffered at index ``since`` or later dominates
        ``probe`` (a caller that has tested the first ``since`` points
        already asks only about the rest)."""
        if len(probe) != self.dims:
            raise _width_error(len(probe), self.dims)
        n = len(self._points)
        if n - since <= self._scan_rows:
            return self._scan(
                self._points[since:] if since else self._points, probe
            )
        row = np.asarray([probe], dtype=np.float64)
        for start in range(since, n, _PROBE_CHUNK):
            chunk = self._arr[start : min(start + _PROBE_CHUNK, n)]
            if _block_dominates(chunk, row, self.dims)[0]:
                return True
        return False

    def dominates_block(
        self, probes: Sequence[Sequence[float]], packed: bool = False
    ) -> list[bool] | int:
        """Per-probe: is it dominated by any buffered point?

        The verdicts come as a list of bools or — ``packed`` — as one
        integer, bit ``j`` for probe ``j``: what a caller that only counts
        and intersects them wants.  A block against a small buffer (a BBS
        expansion: tens of rows either side) is one pass over the whole
        buffer; an SFS-sized one escalates through growing buffer chunks
        over the shrinking set of undominated probes.
        """
        m = len(probes)
        if m and len(probes[0]) != self.dims:
            raise _width_error(len(probes[0]), self.dims)
        if m == 0 or not self._points:
            return 0 if packed else [False] * m
        p = np.asarray(probes, dtype=np.float64)
        n = len(self._points)
        if n * m <= _ONE_PASS_PAIRS:
            out = _block_dominates(self._arr[:n], p, self.dims)
        else:
            out = self._escalate(p)
        if packed:
            return int.from_bytes(
                np.packbits(out, bitorder="little").tobytes(), "little"
            )
        return out.tolist()

    def _escalate(self, p):
        """Verdicts by escalating chunks with probe compression: the
        scalar loop short-circuits after a handful of comparisons for a
        typical dominated probe, so the vector path starts with a small
        buffer prefix (which kills most probes in one cheap op, on the
        probe matrix as it is), drops the dead, and grows the chunk as
        survivors thin out."""
        arr, n = self._arr, len(self._points)
        out = _block_dominates(arr[: min(_SEED_CHUNK, n)], p, self.dims)
        alive = (~out).nonzero()[0]
        start = _SEED_CHUNK
        chunk = max(
            _SEED_CHUNK * 4, _TENSOR_BUDGET // max(1, alive.size * self.dims)
        )
        while start < n and alive.size:
            stop = min(start + chunk, n)
            hit = _block_dominates(
                arr[start:stop], p[alive], self.dims
            )
            if bool(hit.any()):
                out[alive[hit]] = True
                alive = alive[~hit]
            start = stop
            chunk = max(
                chunk * 4,
                _TENSOR_BUDGET // max(1, alive.size * self.dims),
            )
        return out


def _width_error(width: int, dims: int) -> ValueError:
    return ValueError(f"point has {width} dims, buffer expects {dims}")


# The point probe's loops, one per width: ``s`` dominates ``p`` unless it
# is greater somewhere, and then iff it is less somewhere — the order of
# ``geometry.dominates``' tests, written out so that a buffered point
# costs comparisons and no call.


def _scan2(points, probe) -> bool:
    a, b = probe
    for x, y in points:
        if x > a or y > b:
            continue
        if x < a or y < b:
            return True
    return False


def _scan3(points, probe) -> bool:
    a, b, c = probe
    for x, y, z in points:
        if x > a or y > b or z > c:
            continue
        if x < a or y < b or z < c:
            return True
    return False


def _scan4(points, probe) -> bool:
    a, b, c, d = probe
    for x, y, z, w in points:
        if x > a or y > b or z > c or w > d:
            continue
        if x < a or y < b or z < c or w < d:
            return True
    return False


def _scan_any(points, probe) -> bool:
    """Any other width: the same two tests, each one ``map`` in C."""
    for s in points:
        if any(map(gt, s, probe)):
            continue
        if any(map(lt, s, probe)):
            return True
    return False


#: Width -> (its loop, the window that loop probes up to).
_SCANS = {
    2: (_scan2, _SCALAR_PROBE),
    3: (_scan3, _SCALAR_PROBE),
    4: (_scan4, _SCALAR_PROBE),
}


def _block_dominates(block, probes, dims, other=None):
    """``hit[j]``: some ``block`` row dominates ``probes`` row j.

    Per-dimension 2-D comparisons instead of one (block, probes, dims)
    tensor — the short last axis makes 3-D reductions the slowest op in
    the whole stack, while d boolean matrix ops stream at memory speed.
    ``other`` optionally masks (block, probe) pairs allowed to dominate.
    """
    bd = block[:, 0][:, None]
    pd = probes[:, 0][None, :]
    le = bd <= pd
    lt = bd < pd
    for d in range(1, dims):
        bd = block[:, d][:, None]
        pd = probes[:, d][None, :]
        le &= bd <= pd
        lt |= bd < pd
    le &= lt
    if other is not None:
        le &= other
    return le.any(axis=0)


def prefix_dominated_mask(points) -> list[bool]:
    """``mask[j]``: some *earlier* row of ``points`` dominates row j.

    The in-chunk step of chunked SFS: by transitivity, "dominated by an
    earlier survivor" equals "dominated by an earlier *admitted* point",
    so the sequential admission loop can be replaced by one pairwise
    upper-triangle test over a chunk's block-survivors.
    """
    n = len(points)
    if n <= 1:
        return [False] * n
    x = np.asarray(points, dtype=np.float64)
    earlier = np.tri(n, k=-1, dtype=bool).T  # [i, j] = i < j
    return _block_dominates(x, x, x.shape[1], other=earlier).tolist()


def dominated_mask(
    points: Sequence[tuple[int, Sequence[float]]]
) -> list[bool]:
    """Pairwise domination over ``(tid, point)`` pairs.

    ``mask[i]`` is True iff some pair with a *different tid* dominates pair
    ``i`` — exactly the naive-skyline membership test (self-pairs and
    same-tid duplicates are excluded, matching the scalar reference).
    """
    n = len(points)
    if n == 0:
        return []
    tids = np.asarray([tid for tid, _ in points], dtype=np.int64)
    x = np.asarray([tuple(p) for _, p in points], dtype=np.float64)
    dims = x.shape[1]
    out = np.zeros(n, dtype=bool)
    # Same compression trick as DominationBuffer.dominates_block: sweep
    # dominator chunks over the (shrinking) set of not-yet-dominated
    # probes, growing the chunk as probes die.
    alive = np.arange(n)
    start = 0
    chunk = max(_SEED_CHUNK, _TENSOR_BUDGET // max(1, n * dims))
    while start < n and alive.size:
        stop = min(start + chunk, n)
        other = tids[start:stop, None] != tids[alive]
        hit = _block_dominates(
            x[start:stop], x[alive], dims, other=other
        )
        if bool(hit.any()):
            out[alive[hit]] = True
            alive = alive[~hit]
        start = stop
        chunk = max(
            chunk, _TENSOR_BUDGET // max(1, alive.size * dims)
        )
    return out.tolist()
