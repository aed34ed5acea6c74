"""Axis-aligned rectangles and the distance bounds used by query pruning.

Points are plain tuples of floats.  A :class:`Rect` is the usual minimum
bounding rectangle; the query algorithms rely on two of its properties:

* ``lower`` — the corner with minimal coordinates.  A skyline point ``t``
  prunes a node ``n`` iff ``t`` dominates ``n.lower`` (BBS [9] pruning);
* :func:`mindist` — the classic lower bound of any ranking function that is
  a monotone distance to a target point.
"""

from __future__ import annotations

from typing import Iterable, Sequence

Point = tuple[float, ...]


class Rect:
    """An immutable axis-aligned rectangle ``[lows, highs]``."""

    __slots__ = ("lows", "highs")

    def __init__(self, lows: Sequence[float], highs: Sequence[float]) -> None:
        if len(lows) != len(highs):
            raise ValueError("lows and highs must have the same dimensionality")
        if any(lo > hi for lo, hi in zip(lows, highs)):
            raise ValueError(f"degenerate rect: lows {lows!r} exceed highs {highs!r}")
        object.__setattr__(self, "lows", tuple(float(v) for v in lows))
        object.__setattr__(self, "highs", tuple(float(v) for v in highs))

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("Rect is immutable")

    # ------------------------------------------------------------------ #
    # constructors
    # ------------------------------------------------------------------ #

    @classmethod
    def from_point(cls, point: Sequence[float]) -> "Rect":
        """The degenerate rectangle covering a single point."""
        return cls(point, point)

    @classmethod
    def trusted(cls, lows: Point, highs: Point) -> "Rect":
        """A rect over float tuples already known to satisfy ``lows <=
        highs`` — the bulk loader's boxes, which come from ``min`` / ``max``
        over finite coordinates.  Neither validated nor re-tupled; a point's
        box may pass the same tuple twice."""
        rect = object.__new__(cls)
        object.__setattr__(rect, "lows", lows)
        object.__setattr__(rect, "highs", highs)
        return rect

    @classmethod
    def union_all(cls, rects: Iterable["Rect"]) -> "Rect":
        """The MBR of a non-empty collection of rectangles."""
        it = iter(rects)
        try:
            first = next(it)
        except StopIteration:
            raise ValueError("union_all of an empty collection") from None
        lows = list(first.lows)
        highs = list(first.highs)
        for rect in it:
            for d, (lo, hi) in enumerate(zip(rect.lows, rect.highs)):
                if lo < lows[d]:
                    lows[d] = lo
                if hi > highs[d]:
                    highs[d] = hi
        return cls(lows, highs)

    # ------------------------------------------------------------------ #
    # basic measures
    # ------------------------------------------------------------------ #

    @property
    def lower(self) -> Point:
        """The minimal corner — the best possible point inside this rect."""
        return self.lows

    def area(self) -> float:
        result = 1.0
        for lo, hi in zip(self.lows, self.highs):
            result *= hi - lo
        return result

    # ------------------------------------------------------------------ #
    # relations
    # ------------------------------------------------------------------ #

    def union(self, other: "Rect") -> "Rect":
        return Rect(
            tuple(min(a, b) for a, b in zip(self.lows, other.lows)),
            tuple(max(a, b) for a, b in zip(self.highs, other.highs)),
        )

    def enlargement(self, other: "Rect") -> float:
        """Area growth needed to absorb ``other`` (Guttman's ChooseLeaf)."""
        return self.union(other).area() - self.area()

    # ------------------------------------------------------------------ #
    # dunder plumbing
    # ------------------------------------------------------------------ #

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Rect):
            return NotImplemented
        return self.lows == other.lows and self.highs == other.highs

    def __hash__(self) -> int:
        return hash((self.lows, self.highs))

    def __repr__(self) -> str:
        return f"Rect({list(self.lows)}, {list(self.highs)})"


def mindist(rect: Rect, point: Sequence[float]) -> float:
    """Squared Euclidean distance from ``point`` to the nearest point of ``rect``.

    The standard R-tree lower bound: zero when the point lies inside.
    """
    total = 0.0
    for lo, hi, v in zip(rect.lows, rect.highs, point):
        if v < lo:
            delta = lo - v
        elif v > hi:
            delta = v - hi
        else:
            continue
        total += delta * delta
    return total


def sum_lower_bound(rect: Rect) -> float:
    """``min over x in rect of sum_d x_d`` — the skyline heap key d(n) of Algorithm 1."""
    return sum(rect.lows)


def dominates(p: Sequence[float], q: Sequence[float]) -> bool:
    """Whether ``p`` dominates ``q`` (≤ everywhere, < somewhere; minimising)."""
    strict = False
    for a, b in zip(p, q):
        if a > b:
            return False
        if a < b:
            strict = True
    return strict
