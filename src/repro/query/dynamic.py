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

from repro.kernels.dominate import dominated_mask
from repro.kernels.mindist import (
    as_rows,
    sum_block,
    transform_points_block,
    transform_points_rows,
    transform_rect_lowers_rows,
)
from repro.query.algorithm1 import SkylineStrategy
from repro.rtree.geometry import Rect
from repro.rtree.node import NodeBlock


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


class DynamicSkylineStrategy(SkylineStrategy):
    """Skyline domination in the ``|x − q|`` space.

    Entries keep their *original* points; the strategy transforms on the
    fly, so the R-tree, signatures and paths are untouched — the point of
    the Section VII remark.  Everything but the transform is the static
    strategy's: ``prune``'s unvetted branch and ``add_result`` go through
    the scalar transform per entry (root, resumed and result entries
    only), an expansion through the block kernels.
    """

    def __init__(self, query_point: Sequence[float]) -> None:
        self.query_point = tuple(float(q) for q in query_point)
        if not self.query_point:
            raise ValueError("query point must have at least one dimension")
        super().__init__(len(self.query_point))
        # In the backend's row representation, once per query.
        self._q = as_rows([self.query_point])[0]

    def _project(self, point: Sequence[float]) -> tuple[float, ...]:
        return transform_point(point, self.query_point)

    def _corner(self, rect: Rect) -> tuple[float, ...]:
        # A node entry carries the MBR its parent stored for it — the
        # interval information the transform needs, with no extra read.
        return transform_rect_lower(rect, self.query_point)

    def evaluate(self, block: NodeBlock):
        """``(keys, dominated, ties)`` as ``SkylineStrategy.evaluate`` defines
        them: the ``|x − q|`` image is computed once per call and serves all
        three (it depends on ``q``: unlike ``Σ lows``, the block cannot keep it)."""
        if block.leaf:
            image = transform_points_rows(block.lows, self._q)
        else:
            image = transform_rect_lowers_rows(
                block.lows, block.highs, self._q
            )
        dominated = self._buffer.dominates_block(image, packed=True)
        return sum_block(image), dominated, image


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
