"""Dynamic skyline queries (paper Section VII extension).

    "Algorithm 1 can also be easily extended to support other preference
    queries, such as dynamic skyline queries [9] ..."

A *dynamic* skyline is the skyline in the transformed space
``x ↦ |x − q|`` for a user-supplied query point ``q``: a tuple is an
answer iff no other tuple is at least as close to ``q`` in every dimension
and strictly closer in one.  BBS supports it by transforming entries on the
fly [9], and so does our framework: the image of an MBR under the
transform is again a box (per dimension, ``|x − q_d|`` over an interval is
an interval), so the transformed low corner plays exactly the role the
static corner plays in :class:`~repro.query.algorithm1.SkylineStrategy` —
both the heap key and the domination probe.
"""

from __future__ import annotations

from typing import Sequence

from repro.core.pcube import PCube
from repro.cube.relation import Relation
from repro.kernels.dominate import DominationBuffer, dominated_mask
from repro.kernels.mindist import (
    sum_block,
    transform_points_block,
    transform_points_rows,
    transform_rect_lowers_rows,
)
from repro.query.algorithm1 import HeapEntry, SearchState
from repro.query.predicates import BooleanPredicate
from repro.query.stats import QueryStats
from repro.rtree.geometry import Rect
from repro.rtree.node import NodeBlock
from repro.rtree.rtree import RTree
from repro.storage.buffer import BufferPool


def transform_point(
    point: Sequence[float], query_point: Sequence[float]
) -> tuple[float, ...]:
    """The dynamic-skyline coordinate transform ``x ↦ |x − q|``."""
    return tuple(abs(x - q) for x, q in zip(point, query_point))


def transform_rect_lower(
    rect: Rect, query_point: Sequence[float]
) -> tuple[float, ...]:
    """Low corner of a rectangle's image under the transform.

    Per dimension the image of ``[lo, hi]`` is
    ``[dist(q, [lo, hi]), max(|lo − q|, |hi − q|)]``; only the low corner
    matters for pruning.
    """
    corner = []
    for lo, hi, q in zip(rect.lows, rect.highs, query_point):
        if q < lo:
            corner.append(lo - q)
        elif q > hi:
            corner.append(q - hi)
        else:
            corner.append(0.0)
    return tuple(corner)


class DynamicSkylineStrategy:
    """Skyline domination in the ``|x − q|`` space.

    Entries keep their *original* points; the strategy transforms on the
    fly, so the R-tree, signatures and paths are untouched — the point of
    the Section VII remark.
    """

    def __init__(self, query_point: Sequence[float]) -> None:
        self.query_point = tuple(float(q) for q in query_point)
        if not self.query_point:
            raise ValueError("query point must have at least one dimension")
        self._buffer = DominationBuffer(len(self.query_point))

    @property
    def result_points(self) -> list[tuple[float, ...]]:
        """Discovered skyline points (transformed), report order."""
        return self._buffer.points()

    def node_key(self, rect: Rect) -> float:
        return sum(transform_rect_lower(rect, self.query_point))

    def point_key(self, point: Sequence[float]) -> float:
        return sum(transform_point(point, self.query_point))

    def evaluate(self, block: NodeBlock):
        """Keys, dominated mask and tie rows for a node's children: the
        ``|x − q|`` image is computed once and serves all three."""
        if block.leaf:
            image = transform_points_rows(block.lows, self.query_point)
        else:
            image = transform_rect_lowers_rows(
                block.lows, block.highs, self.query_point
            )
        return sum_block(image), self._buffer.dominates_block(image), image

    def evaluated(self) -> int:
        return len(self._buffer)

    def node_tie(self, rect: Rect) -> tuple[float, ...]:
        return transform_rect_lower(rect, self.query_point)

    def point_tie(self, point: Sequence[float]) -> tuple[float, ...]:
        return transform_point(point, self.query_point)

    def _probe(self, entry: HeapEntry) -> tuple[float, ...]:
        assert entry.point is not None
        if entry.is_tuple:
            return transform_point(entry.point, self.query_point)
        # A node entry carries the MBR its parent stored for it — the
        # interval information the transform needs, with no extra read.
        assert entry.rect is not None
        return transform_rect_lower(entry.rect, self.query_point)

    def prune(self, entry: HeapEntry) -> bool:
        if entry.vetted is not None:  # its tie row is its probe
            return self._buffer.dominates_point(entry.tie, entry.vetted)
        return self._buffer.dominates_point(self._probe(entry))

    def add_result(self, entry: HeapEntry) -> bool:
        assert entry.point is not None
        self._buffer.add(transform_point(entry.point, self.query_point))
        return True

    def finished(self, next_key: float) -> bool:
        return False


def dynamic_skyline_signature(
    relation: Relation,
    rtree: RTree,
    pcube: PCube,
    query_point: Sequence[float],
    predicate: BooleanPredicate | None = None,
    pool: BufferPool | None = None,
    ticker=None,
) -> tuple[list[int], QueryStats, SearchState]:
    """Dynamic skyline with boolean predicates via signatures.

    Returns the tuples not dynamically dominated (w.r.t. ``query_point``)
    within the predicate's subset, with the usual stats.
    """
    from repro.query.session import QuerySession

    result = QuerySession(
        relation, rtree, pcube, pool=pool, ticker=ticker
    ).dynamic_skyline(query_point, predicate)
    return result.tids, result.stats, result.state


def naive_dynamic_skyline(
    points: Sequence[tuple[int, Sequence[float]]],
    query_point: Sequence[float],
) -> list[int]:
    """Ground-truth dynamic skyline (for tests)."""
    raw = [tuple(point) for _, point in points]
    transformed = list(
        zip(
            (tid for tid, _ in points),
            transform_points_block(raw, query_point),
        )
    )
    dominated = dominated_mask(transformed)
    return [
        tid for (tid, _), is_dominated in zip(transformed, dominated)
        if not is_dominated
    ]
