"""Router tallies: which engine served each routed query, and how.

:class:`RouterStats` counts cache outcomes, the engine at the head of each
chain (``chosen``), the engine that answered (``served_by``) and every
fallback edge in between.  A routed miss runs the same fixed chain an
unrouted query does (DESIGN.md §12), so ``chosen`` is ``signature`` for
every query of an unpinned router.
"""

from __future__ import annotations

import threading


class RouterStats:
    """Thread-safe tallies of every routing decision (``--health`` view).

    Reconciliation invariants (asserted by the fault tests):

    * ``routed == cache_hits + sum(served_by.values())`` — every routed
      query is either a cache hit or ran on exactly one engine;
    * ``fell_back`` counts queries whose answering engine was not the
      first in their chain; ``sum(fallback_edges.values())`` counts the
      individual failed attempts (≥ ``fell_back``).
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.routed = 0
        self.fell_back = 0
        self.chosen: dict[str, int] = {}
        self.served_by: dict[str, int] = {}
        self.fallback_edges: dict[str, int] = {}
        self.cache_hits = 0
        self.cache_misses = 0
        self.cache_bypassed = 0
        self.unsupported = 0
        self.strategy_faults = 0
        self.strategy_timeouts = 0

    def note_hit(self) -> None:
        with self._lock:
            self.routed += 1
            self.cache_hits += 1

    def note_served(
        self,
        chain: list[str],
        served: str,
        failures: list[tuple[str, Exception]],
        cache_outcome: str | None,
    ) -> None:
        from repro.route.fallback import StrategyTimeout, StrategyUnsupported

        with self._lock:
            self.routed += 1
            self.chosen[chain[0]] = self.chosen.get(chain[0], 0) + 1
            self.served_by[served] = self.served_by.get(served, 0) + 1
            if cache_outcome == "miss":
                self.cache_misses += 1
            elif cache_outcome == "bypass":
                self.cache_bypassed += 1
            if failures:
                self.fell_back += 1
            # Failures are the chain's prefix, in order; each one's edge
            # points at the engine tried next.
            for position, (failed, error) in enumerate(failures):
                follower = chain[position + 1]
                edge = f"{failed}->{follower}"
                self.fallback_edges[edge] = (
                    self.fallback_edges.get(edge, 0) + 1
                )
                if isinstance(error, StrategyUnsupported):
                    self.unsupported += 1
                elif isinstance(error, StrategyTimeout):
                    self.strategy_timeouts += 1
                else:
                    self.strategy_faults += 1

    def snapshot(self) -> dict:
        with self._lock:
            return {
                "routed": self.routed,
                "fell_back": self.fell_back,
                "chosen": dict(self.chosen),
                "served_by": dict(self.served_by),
                "fallback_edges": dict(self.fallback_edges),
                "cache_hits": self.cache_hits,
                "cache_misses": self.cache_misses,
                "cache_bypassed": self.cache_bypassed,
                "unsupported": self.unsupported,
                "strategy_faults": self.strategy_faults,
                "strategy_timeouts": self.strategy_timeouts,
            }
