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
