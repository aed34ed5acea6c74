"""Block-vs-skyline-buffer domination.

Domination (minimising: ≤ everywhere, < somewhere) is pure comparison, so
the verdicts are exactly the scalar ``any(dominates(s, p) ...)`` scans'
(``tests/kernels/reference.py``).  What each regime buys is a smaller
fixed cost per call: at BBS sizes (tens of buffered points, tens of
probes) an early-exit loop over the tuples, written out per width, beats
a numpy pass, whose cost there is its per-operation overhead; numpy takes
over where the loop would compare too much — a long buffer, a large or
mostly undominated block — and for the in-memory skyline filters.

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
#: Row comparisons the block loop of widths 2–4 may spend inside the
#: one-pass bound — ``_PROBE_CHARGE`` per probe, the buffer's length for
#: each probe that misses the witness — before the probes it has not
#: decided go to one numpy pass; a block whose probes alone overdraw it
#: takes the pass at once (§13).
_BLOCK_SCAN_BUDGET = 1024
#: What the loop spends on a probe before any scan (unpack, witness test,
#: verdict bit), in row comparisons: ≈ 170 ns against 40–60 ns a row.
_PROBE_CHARGE = 4


class DominationBuffer:
    """An insertion-ordered buffer of candidate dominators.

    The skyline strategies grow one as results are discovered; SFS grows
    one during its filter pass.  The points are kept twice: as tuples for
    the loops that probe a short window or a BBS-sized block, and as the
    rows of a float64 matrix for everything else.
    """

    __slots__ = ("dims", "_points", "_arr", "_scan", "_scan_rows", "_bscan")

    def __init__(
        self, dims: int, points: Sequence[Sequence[float]] = ()
    ) -> None:
        if dims < 1:
            raise ValueError("dims must be at least 1")
        self.dims = dims
        self._points: list[tuple[float, ...]] = []
        self._arr = None
        self._scan, self._scan_rows, self._bscan = _SCANS.get(
            dims, (_scan_any, _GENERIC_PROBE, None)
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
        expansion: tens of rows either side) is one loop over the probes
        for widths 2–4, and what that loop leaves undecided within its
        comparison budget one numpy pass; other widths take the pass
        alone.  An SFS-sized block escalates through growing buffer
        chunks over the shrinking set of undominated probes.
        """
        m = len(probes)
        if m and len(probes[0]) != self.dims:
            raise _width_error(len(probes[0]), self.dims)
        if m == 0 or not self._points:
            return 0 if packed else [False] * m
        n = len(self._points)
        if n * m <= _ONE_PASS_PAIRS:
            left = _BLOCK_SCAN_BUDGET - _PROBE_CHARGE * m
            if self._bscan is not None and left >= 0:
                bits = self._scan_block(probes, left)
                if packed:
                    return bits
                return [bit == "1" for bit in reversed(f"{bits:0{m}b}")]
            out = _block_dominates(
                self._arr[:n], np.asarray(probes, dtype=np.float64), self.dims
            )
        else:
            out = self._escalate(np.asarray(probes, dtype=np.float64))
        return _pack(out) if packed else out.tolist()

    def _scan_block(self, probes, budget: int) -> int:
        """Packed verdicts of a block within the one-pass bound: the
        width's loop decides probes in order until ``budget`` (what is
        left after every probe's charge) is spent, and one pass over the
        whole buffer decides the rest.  A matrix is walked by rows zipped
        from its columns: no object per row for the garbage collector to
        count."""
        m = len(probes)
        rows = zip(*probes.T.tolist()) if isinstance(probes, np.ndarray) else probes
        bits, decided = self._bscan(self._points, rows, budget)
        if decided < m:
            rest = np.asarray(probes[decided:], dtype=np.float64)
            out = _block_dominates(
                self._arr[: len(self._points)], rest, self.dims
            )
            bits |= _pack(out) << decided
        return bits

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


def _pack(out) -> int:
    """A boolean verdict array as one integer, bit ``j`` for entry ``j``."""
    return int.from_bytes(np.packbits(out, bitorder="little").tobytes(), "little")


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


# The block probe's loops, one per width: the point loops' tests, probe
# by probe, trying first the last dominator found (the witness — most
# probes of an expansion die to the point that killed their neighbour)
# and then the buffer in order.  Each charges ``budget`` (what is left
# once every probe's charge is paid) the buffer's length per witness
# miss, and stops at a miss that would overdraw it.  Returns the
# packed verdicts of the probes before the one it stopped at, and that
# probe's index (the block's length if none; a block is never empty).


def _bscan2(points, probes, budget) -> tuple[int, int]:
    n = len(points)
    bits = 0
    u, v = points[0]
    for j, (a, b) in enumerate(probes):
        if not (u > a or v > b) and (u < a or v < b):
            bits |= 1 << j
        else:
            budget -= n
            if budget < 0:
                return bits, j
            for x, y in points:
                if x > a or y > b:
                    continue
                if x < a or y < b:
                    u, v = x, y
                    bits |= 1 << j
                    break
    return bits, j + 1


def _bscan3(points, probes, budget) -> tuple[int, int]:
    n = len(points)
    bits = 0
    u, v, t = points[0]
    for j, (a, b, c) in enumerate(probes):
        if not (u > a or v > b or t > c) and (u < a or v < b or t < c):
            bits |= 1 << j
        else:
            budget -= n
            if budget < 0:
                return bits, j
            for x, y, z in points:
                if x > a or y > b or z > c:
                    continue
                if x < a or y < b or z < c:
                    u, v, t = x, y, z
                    bits |= 1 << j
                    break
    return bits, j + 1


def _bscan4(points, probes, budget) -> tuple[int, int]:
    n = len(points)
    bits = 0
    u, v, t, s = points[0]
    for j, (a, b, c, d) in enumerate(probes):
        if not (u > a or v > b or t > c or s > d) and (
            u < a or v < b or t < c or s < d
        ):
            bits |= 1 << j
        else:
            budget -= n
            if budget < 0:
                return bits, j
            for x, y, z, w in points:
                if x > a or y > b or z > c or w > d:
                    continue
                if x < a or y < b or z < c or w < d:
                    u, v, t, s = x, y, z, w
                    bits |= 1 << j
                    break
    return bits, j + 1


#: Width -> (its point loop, the window that loop probes up to, its block
#: loop); a width without one scans generically and takes numpy for blocks.
_SCANS = {
    2: (_scan2, _SCALAR_PROBE, _bscan2),
    3: (_scan3, _SCALAR_PROBE, _bscan3),
    4: (_scan4, _SCALAR_PROBE, _bscan4),
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
