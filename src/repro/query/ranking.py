"""Ranking functions with region lower bounds.

Section III requires: "Given a function f and the domain region Ω on its
variables, the lower bound of f over Ω can be derived."  Each ranking
function here therefore has a value at a data point and an exact minimum
over a rectangle, each in two forms: the scalar ``score(point)`` /
``lower_bound(rect)`` (the root's heap key, the result cache's carry
verdict) and the batch ``score_block`` / ``lower_bound_rows`` kernels an
expanded node is evaluated with; both give the same float bits.  The
lower bound drives the best-first order and the pruning bound of top-k
processing (users prefer minimal values).

The paper's experiments use two families, and both are here: weighted
squared distance (Example 1) and linear (Figure 13); a separable function
mixes their terms per dimension.  Every parameter is a finite float, and
every function has a ``cache_token()`` that the result cache keys on.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from typing import Sequence

from repro.kernels import mindist
from repro.rtree.geometry import Rect


def _finite(values: Sequence[float], what: str) -> tuple[float, ...]:
    """``values`` as floats, refusing NaN and ±inf: a non-finite parameter
    makes every score NaN or infinite, and no bound prunes on those."""
    values = tuple(float(v) for v in values)
    if not all(math.isfinite(v) for v in values):
        raise ValueError(f"{what} must be finite, got {list(values)}")
    return values


class RankingFunction(ABC):
    """A function to minimise over the preference dimensions."""

    @abstractmethod
    def score(self, point: Sequence[float]) -> float:
        """The exact value at a data point."""

    @abstractmethod
    def lower_bound(self, rect: Rect) -> float:
        """A value ≤ ``score(x)`` for every ``x`` in ``rect``.

        Tightness is a performance matter, not a correctness one; the
        implementations below are all exact minima over the rectangle.
        """

    @abstractmethod
    def score_block(self, points: Sequence[Sequence[float]]) -> list[float]:
        """``[score(p) for p in points]`` as one batch kernel call, bit
        for bit; ``points`` may be a float64 matrix."""

    @abstractmethod
    def lower_bound_rows(
        self,
        lows: Sequence[Sequence[float]],
        highs: Sequence[Sequence[float]],
    ) -> list[float]:
        """``lower_bound`` over rectangles given as ``lows``/``highs`` rows
        (see :meth:`score_block`)."""

    @abstractmethod
    def cache_token(self) -> tuple:
        """A hashable value that determines this function completely (the
        result cache keys on it)."""

    @abstractmethod
    def misfit(self, dims: int) -> str | None:
        """Why this function cannot rank points of ``dims`` preference
        dimensions, or ``None`` when it can (:meth:`QuerySession.topk`
        refuses such a query before it reads anything)."""


class LinearFunction(RankingFunction):
    """``f = Σ w_d · x_d`` — the Figure 13 query family (random a, b, c).

    Weights may be negative; the exact minimum over a rectangle picks the
    low corner for non-negative weights and the high corner otherwise.
    """

    def __init__(self, weights: Sequence[float]) -> None:
        if not weights:
            raise ValueError("at least one weight is required")
        self.weights = _finite(weights, "weights")

    def score(self, point: Sequence[float]) -> float:
        return sum(w * x for w, x in zip(self.weights, point))

    def lower_bound(self, rect: Rect) -> float:
        return sum(
            w * (lo if w >= 0 else hi)
            for w, lo, hi in zip(self.weights, rect.lows, rect.highs)
        )

    def score_block(self, points: Sequence[Sequence[float]]) -> list[float]:
        return mindist.linear_score_block(self.weights, points)

    def lower_bound_rows(self, lows, highs) -> list[float]:
        return mindist.linear_lower_bound_block(self.weights, lows, highs)

    def cache_token(self) -> tuple:
        return ("linear", self.weights)

    def misfit(self, dims: int) -> str | None:
        if len(self.weights) != dims:
            return f"function has {len(self.weights)} weights, tree has {dims} dims"
        return None

    def __repr__(self) -> str:
        return f"LinearFunction({list(self.weights)})"


class WeightedSquaredDistance(RankingFunction):
    """``f = Σ w_d (x_d − t_d)²`` — Example 1's used-car query
    (``(price − 15k)² + α(mileage − 30k)²``).

    The minimum over a rectangle clamps the target into the rectangle
    per dimension (the classic MINDIST).
    """

    def __init__(
        self, target: Sequence[float], weights: Sequence[float] | None = None
    ) -> None:
        self.target = _finite(target, "target")
        if weights is None:
            weights = [1.0] * len(self.target)
        if len(weights) != len(self.target):
            raise ValueError("weights and target must have the same length")
        self.weights = _finite(weights, "weights")
        if any(w < 0 for w in self.weights):
            raise ValueError("distance weights must be non-negative")

    def score(self, point: Sequence[float]) -> float:
        # ``delta * delta``, not ``** 2``: pow() can differ from the
        # multiply (which the block kernels use) in the last ulp.
        return sum(
            w * ((x - t) * (x - t))
            for w, x, t in zip(self.weights, point, self.target)
        )

    def lower_bound(self, rect: Rect) -> float:
        total = 0.0
        for w, t, lo, hi in zip(
            self.weights, self.target, rect.lows, rect.highs
        ):
            if t < lo:
                delta = lo - t
            elif t > hi:
                delta = t - hi
            else:
                continue
            total += w * delta * delta
        return total

    def score_block(self, points: Sequence[Sequence[float]]) -> list[float]:
        return mindist.wsd_score_block(self.weights, self.target, points)

    def lower_bound_rows(self, lows, highs) -> list[float]:
        return mindist.wsd_lower_bound_block(
            self.weights, self.target, lows, highs
        )

    def cache_token(self) -> tuple:
        return ("wsd", self.target, self.weights)

    def misfit(self, dims: int) -> str | None:
        if len(self.target) != dims:
            return f"target has {len(self.target)} dims, tree has {dims}"
        return None

    def __repr__(self) -> str:
        return (
            f"WeightedSquaredDistance(target={list(self.target)}, "
            f"weights={list(self.weights)})"
        )


class SeparableFunction(RankingFunction):
    """``f = Σ_t g_t(x_{d_t})`` — a sum of per-dimension terms.

    Each term is either linear (``coeff · x_d``) or squared-distance
    (``coeff · (x_d − target)²``).  Separability makes the exact rectangle
    minimum the sum of per-term interval minima, so arbitrary mixes of the
    paper's Example 1 style distance terms and Figure 13 style linear
    terms get a valid (and per-term tight) lower bound.

    Terms are ``(dim, kind, coeff, target)`` with ``kind`` in
    ``{"linear", "squared"}`` (``target`` ignored for linear terms).
    """

    def __init__(
        self, terms: Sequence[tuple[int, str, float, float]]
    ) -> None:
        if not terms:
            raise ValueError("at least one term is required")
        for dim, kind, coeff, target in terms:
            if dim < 0:
                raise ValueError("term dimensions must be non-negative")
            if kind not in ("linear", "squared"):
                raise ValueError(f"unknown term kind {kind!r}")
            coeff, target = _finite((coeff, target), "term coefficients and targets")
            if kind == "squared" and coeff < 0:
                raise ValueError("squared terms need non-negative weights")
        self.terms = [
            (int(dim), kind, float(coeff), float(target))
            for dim, kind, coeff, target in terms
        ]

    def score(self, point: Sequence[float]) -> float:
        total = 0.0
        for dim, kind, coeff, target in self.terms:
            value = point[dim]
            if kind == "linear":
                total += coeff * value
            else:
                delta = value - target
                total += coeff * (delta * delta)
        return total

    def lower_bound(self, rect: Rect) -> float:
        total = 0.0
        for dim, kind, coeff, target in self.terms:
            lo, hi = rect.lows[dim], rect.highs[dim]
            if kind == "linear":
                total += coeff * (lo if coeff >= 0 else hi)
            else:
                if target < lo:
                    delta = lo - target
                elif target > hi:
                    delta = target - hi
                else:
                    delta = 0.0
                total += coeff * delta * delta
        return total

    def score_block(self, points: Sequence[Sequence[float]]) -> list[float]:
        return mindist.separable_score_block(self.terms, points)

    def lower_bound_rows(self, lows, highs) -> list[float]:
        return mindist.separable_lower_bound_block(self.terms, lows, highs)

    def cache_token(self) -> tuple:
        return ("separable", tuple(self.terms))

    def misfit(self, dims: int) -> str | None:
        widest = max(dim for dim, _, _, _ in self.terms)
        if widest >= dims:
            return f"a term reads dimension {widest}, tree has {dims} dims"
        return None

    def __repr__(self) -> str:
        return f"SeparableFunction({self.terms!r})"
