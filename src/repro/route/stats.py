"""Router tallies: which engine served each skyline / top-k, and how.

:class:`RouterStats` is the one owner of a served skyline / top-k's lookup
outcome and route: cache hits / misses / bypasses (with the cache on), the
engine that answered (``served_by``) and every fallback edge on the way.
Every chain starts at ``signature`` (DESIGN.md §12), so the head of a
chain is not counted.
"""

from __future__ import annotations

from typing import Sequence

from repro.route.fallback import StrategyTimeout, StrategyUnsupported
from repro.storage.counters import Tally


class RouterStats(Tally):
    """Tallies of every routing decision (``--health``'s ``router.routing``).

    Invariants (asserted by the fault tests):

    * ``routed == cache_hits + sum(served_by.values())`` — every routed
      query is either a cache hit or ran on exactly one engine;
    * with the cache on, ``cache_hits + cache_misses + cache_bypassed ==
      routed``; with it off, all three stay 0;
    * ``fell_back`` counts queries whose answering engine was not the
      first in their chain; ``sum(fallback_edges.values())`` counts the
      individual failed attempts (≥ ``fell_back``).
    """

    ZEROS = dict(
        routed=0,
        fell_back=0,
        served_by={},
        fallback_edges={},
        cache_hits=0,
        cache_misses=0,
        cache_bypassed=0,
        unsupported=0,
        strategy_faults=0,
        strategy_timeouts=0,
    )

    def note_served(
        self,
        chain: Sequence[str],
        served: str,
        failures: list[tuple[str, Exception]],
        cache_outcome: str | None,
    ) -> None:
        deltas: dict = {
            "routed": 1,
            "served_by": {served: 1},
        }
        if cache_outcome == "miss":
            deltas["cache_misses"] = 1
        elif cache_outcome == "bypass":
            deltas["cache_bypassed"] = 1
        if failures:
            deltas["fell_back"] = 1
            # Failures are the chain's prefix, in order; each one's edge
            # points at the engine tried next.
            edges = deltas["fallback_edges"] = {}
            for position, (failed, error) in enumerate(failures):
                edge = f"{failed}->{chain[position + 1]}"
                edges[edge] = edges.get(edge, 0) + 1
                if isinstance(error, StrategyUnsupported):
                    reason = "unsupported"
                elif isinstance(error, StrategyTimeout):
                    reason = "strategy_timeouts"
                else:
                    reason = "strategy_faults"
                deltas[reason] = deltas.get(reason, 0) + 1
        self.bump(**deltas)
