"""Routing signals: selectivity statistics, observed costs, router tallies.

:class:`PredicateStats` is the optimizer-statistics half of the routing
signal: per-dimension value histograms and derived boolean-cell
cardinalities, brought up to date lazily whenever a new epoch is observed —
an epoch publish is exactly a maintenance commit, so the histograms track
the committed data without any hook into the epoch manager.  A refresh
folds in the rows appended and tombstoned since the last one
(:meth:`~repro.cube.relation.Relation.changes_since`); only the first
refresh, or one against a different relation, scans — with *private*
counters: gathering statistics must never show up in any query's
paper-comparable disk-access counts.

:class:`CostBook` is the observed half: an EWMA of per-strategy execution
costs, bucketed by estimated candidate count (the feature the paper's
figures sweep).  Costs are *counted I/O*, not wall-clock — the same
quantity the ``repro.obs`` query spans record as their I/O delta — so the
book, and therefore every routing decision, is a deterministic function of
the workload.

Statistics influence only *which* exact engine runs; correctness never
depends on their freshness.
"""

from __future__ import annotations

import math
import threading

from repro.query.predicates import BooleanPredicate
from repro.storage.counters import BTABLE, IOCounters

#: Sentinel for "never refreshed" (distinct from live sessions' ``None``).
_UNREFRESHED = object()


class PredicateStats:
    """Per-dimension selectivity histograms over the boolean dimensions.

    Thread-safe; one instance is shared by every worker of a routed
    executor.  :meth:`ensure` refreshes at most once per observed epoch
    (or, for live sessions, per observed relation length).
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._histograms: dict[str, dict[object, int]] = {}
        self._rows = 0
        self._token: object = _UNREFRESHED
        #: The relation's change mark as of the last refresh.
        self._mark: tuple | None = None
        self.refreshes = 0

    # -- refresh ------------------------------------------------------- #

    def ensure(self, relation, epoch: int | None) -> None:
        """Refresh if this (epoch, relation) was not seen yet.

        Epoch-bearing sessions refresh once per published epoch; live
        sessions (``epoch is None``) refresh when the relation grew.
        Either way the refresh happens under the lock, so concurrent
        workers pay for at most one per epoch.
        """
        token = epoch if epoch is not None else ("live", len(relation))
        with self._lock:
            if token == self._token:
                return
            if not self._fold_locked(relation):
                self._rescan_locked(relation)
            self._token = token
            self.refreshes += 1

    def _fold_locked(self, relation) -> bool:
        """Apply the relation's changes since the last refresh to the
        histograms; ``False`` when there is nothing to start from."""
        changes = (
            relation.changes_since(self._mark)
            if self._mark is not None
            else None
        )
        if changes is None:
            return False
        self._mark, appended, tombstoned = changes
        positions = [
            (self._histograms[dim], relation.schema.boolean_position(dim))
            for dim in relation.schema.boolean_dims
        ]
        for tid in appended:
            row = relation.bool_row(tid)
            for bucket, position in positions:
                value = row[position]
                bucket[value] = bucket.get(value, 0) + 1
        for tid in tombstoned:
            row = relation.bool_row(tid)
            for bucket, position in positions:
                value = row[position]
                if bucket[value] == 1:
                    del bucket[value]  # as a rescan would never see it
                else:
                    bucket[value] -= 1
        self._rows += len(appended) - len(tombstoned)
        return True

    def _rescan_locked(self, relation) -> None:
        scratch = IOCounters()  # statistics I/O never taints query counters
        histograms: dict[str, dict[object, int]] = {
            dim: {} for dim in relation.schema.boolean_dims
        }
        rows = 0
        positions = [
            (dim, relation.schema.boolean_position(dim))
            for dim in relation.schema.boolean_dims
        ]
        for tid in relation.scan(scratch, BTABLE):
            rows += 1
            row = relation.bool_row(tid)
            for dim, position in positions:
                value = row[position]
                bucket = histograms[dim]
                bucket[value] = bucket.get(value, 0) + 1
        self._histograms = histograms
        self._rows = rows
        self._mark = relation.mark()

    # -- estimates ------------------------------------------------------ #

    @property
    def rows(self) -> int:
        with self._lock:
            return self._rows

    def value_count(self, dim: str, value) -> int:
        """Exact live-tuple count for a one-conjunct cell."""
        with self._lock:
            return self._histograms.get(dim, {}).get(value, 0)

    def cardinality(self, predicate: BooleanPredicate) -> float:
        """Estimated qualifying tuples (exact for ≤ 1 conjunct).

        Multi-conjunct cells multiply per-dimension selectivities — the
        textbook independence assumption; good enough to rank engines.
        """
        with self._lock:
            if self._rows == 0:
                return 0.0
            estimate = float(self._rows)
            for dim, value in predicate:
                count = self._histograms.get(dim, {}).get(value, 0)
                estimate *= count / self._rows
            return estimate

    def selectivity(self, predicate: BooleanPredicate) -> float:
        """Estimated fraction of live tuples the predicate keeps."""
        rows = self.rows
        if rows == 0:
            return 0.0
        return self.cardinality(predicate) / rows

    def snapshot(self) -> dict:
        with self._lock:
            return {
                "rows": self._rows,
                "refreshes": self.refreshes,
                "dims": {
                    dim: len(hist) for dim, hist in self._histograms.items()
                },
            }


def candidate_bucket(estimate: float) -> int:
    """Log₂ bucket of an estimated candidate count (0 for ≤ 1)."""
    return int(math.log2(estimate)) if estimate > 1 else 0


class CostBook:
    """EWMA of observed per-strategy I/O costs, by (kind, bucket).

    ``observe`` folds one finished query's counted I/O into the book;
    ``estimate`` returns the learned cost for the exact bucket, falling
    back to the nearest observed bucket of the same (kind, strategy) —
    a coarse but deterministic generalisation across sizes.
    """

    def __init__(self, alpha: float = 0.4) -> None:
        if not 0.0 < alpha <= 1.0:
            raise ValueError("alpha must be in (0, 1]")
        self.alpha = alpha
        self._lock = threading.Lock()
        self._ewma: dict[tuple[str, str, int], float] = {}
        self.observations = 0

    def observe(
        self, kind: str, strategy: str, bucket: int, cost: float
    ) -> None:
        key = (kind, strategy, bucket)
        with self._lock:
            previous = self._ewma.get(key)
            self._ewma[key] = (
                cost
                if previous is None
                else previous + self.alpha * (cost - previous)
            )
            self.observations += 1

    def estimate(self, kind: str, strategy: str, bucket: int) -> float | None:
        with self._lock:
            exact = self._ewma.get((kind, strategy, bucket))
            if exact is not None:
                return exact
            nearest: tuple[int, float] | None = None
            for (
                seen_kind,
                seen_strategy,
                seen_bucket,
            ), cost in self._ewma.items():
                if seen_kind != kind or seen_strategy != strategy:
                    continue
                distance = abs(seen_bucket - bucket)
                if nearest is None or distance < nearest[0]:
                    nearest = (distance, cost)
            return nearest[1] if nearest is not None else None

    def snapshot(self) -> dict:
        with self._lock:
            return {
                "observations": self.observations,
                "entries": len(self._ewma),
            }


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
