"""Convex hull queries (paper Section VII extension).

    "Algorithm 1 can also be easily extended to support other preference
    queries, such as ... convex hull queries [21]."

The preference-relevant part of a convex hull is its *lower-left chain*:
the points that minimise **some** linear function with non-negative
weights — exactly the candidates a top-1 query with an arbitrary linear
preference could return.  Böhm & Kriegel [21] compute hulls over large
databases by branch-and-bound direction searches; we realise the same idea
directly on Algorithm 1 (2-D): every extreme-point probe is a top-1 run
with a :class:`~repro.query.ranking.LinearFunction`, so it inherits both
prunings — including signature-based boolean pruning, which [21] lacked.

The recursion is quickhull-style: find the two axis extremes, then for
each tentative edge search for a point strictly below it (minimising the
edge's inward normal); split until no point lies below any edge.
"""

from __future__ import annotations

from typing import Callable, Sequence

from repro.core.pcube import PCube
from repro.cube.relation import Relation
from repro.query.predicates import BooleanPredicate
from repro.query.stats import QueryStats
from repro.rtree.rtree import RTree
from repro.storage.buffer import BufferPool

#: Tolerance for "strictly below the edge" tests.
_EPSILON = 1e-12


Vertex = tuple[int, tuple[float, float]]


def lower_hull_chain(
    extreme: Callable[[Sequence[float]], Vertex | None]
) -> list[int]:
    """The quickhull recursion over an extreme-point oracle.

    ``extreme(weights)`` returns the ``(tid, (x, y))`` minimising the
    linear function with those weights over the subset (``None`` when the
    subset is empty) — one top-1 search in
    :meth:`repro.query.session.QuerySession.lower_hull`.  Returns the hull
    vertices ordered by increasing x (ties broken towards smaller y);
    collinear interior points are not reported.
    """
    # Axis extremes with a slight pull towards the other axis so that ties
    # resolve to the hull's corner points.
    left = extreme((1.0, 1e-9))
    bottom = extreme((1e-9, 1.0))
    if left is None or bottom is None:
        return []

    hull: list[Vertex] = []

    def expand(a: Vertex, b: Vertex) -> None:
        """Emit the hull chain between established vertices a and b."""
        (_, (ax, ay)), (_, (bx, by)) = a, b
        # Inward normal of the edge a→b for a lower-left chain: both
        # components non-negative because ax ≤ bx and ay ≥ by.
        normal = (ay - by, bx - ax)
        if normal[0] <= 0 and normal[1] <= 0:
            return  # degenerate edge (coincident points)
        candidate = extreme(normal)
        if candidate is None:
            return
        cid, (cx, cy) = candidate
        edge_value = normal[0] * ax + normal[1] * ay
        candidate_value = normal[0] * cx + normal[1] * cy
        if candidate_value >= edge_value - _EPSILON or cid in (a[0], b[0]):
            return  # nothing strictly below: a→b is a hull edge
        expand(a, candidate)
        at = len(hull)
        hull.append(candidate)
        expand(candidate, b)
        # When several points tie on this split's extreme the search may
        # return a middle one: a boundary point, but interior to the edge
        # the two halves have now found around it.  It is a vertex only if
        # the chain turns at it.
        (_, (px, py)) = hull[at - 1]
        (_, (nx, ny)) = hull[at + 1] if at + 1 < len(hull) else b
        if (cx - px) * (ny - py) - (cy - py) * (nx - px) <= _EPSILON:
            del hull[at]

    hull.append(left)
    # Distinct extreme coordinates imply left.x < bottom.x and
    # left.y > bottom.y (each extreme's tie-break would otherwise have
    # picked the other point), so the edge normal below is positive.
    if left[1] != bottom[1]:
        expand(left, bottom)
        hull.append(bottom)
    return [tid for tid, _ in hull]


def lower_hull_signature(
    relation: Relation,
    rtree: RTree,
    pcube: PCube,
    predicate: BooleanPredicate | None = None,
    pool: BufferPool | None = None,
    ticker=None,
) -> tuple[list[int], QueryStats]:
    """The lower-left convex hull of the predicate's subset (2-D only).

    Returns hull-vertex tids ordered by increasing x (ties broken towards
    smaller y), plus stats aggregated over every extreme-point search.
    Collinear interior points are not reported.
    """
    from repro.query.session import QuerySession

    result = QuerySession(
        relation, rtree, pcube, pool=pool, ticker=ticker
    ).lower_hull(predicate)
    return result.tids, result.stats


def naive_lower_hull(
    points: Sequence[tuple[int, Sequence[float]]]
) -> list[int]:
    """Ground-truth 2-D lower-left hull (for tests).

    Andrew's monotone chain restricted to the chain from the minimal-x
    point to the minimal-y point, with collinear points dropped and ties
    broken exactly like the search (smaller y at equal x, smaller x at
    equal y).
    """
    if not points:
        return []
    best_by_coord: dict[tuple[float, float], int] = {}
    for tid, point in sorted(points, key=lambda item: item[0]):
        best_by_coord.setdefault((point[0], point[1]), tid)
    coords = sorted(best_by_coord)
    # Walk the lower hull left to right.
    chain: list[tuple[float, float]] = []
    for point in coords:
        while len(chain) >= 2:
            (ox, oy), (px, py) = chain[-2], chain[-1]
            cross = (px - ox) * (point[1] - oy) - (py - oy) * (point[0] - ox)
            # Tolerant collinearity test, mirroring the search's epsilon:
            # float residues on exactly collinear inputs must still pop.
            if cross <= _EPSILON:
                chain.pop()
            else:
                break
        chain.append(point)
    # Restrict to the decreasing-y prefix (the lower-LEFT chain: once y
    # starts rising we are past the minimal-y corner).
    min_y = min(y for _, y in coords)
    result: list[tuple[float, float]] = []
    for point in chain:
        result.append(point)
        if point[1] == min_y:
            break
    return [best_by_coord[point] for point in result]
