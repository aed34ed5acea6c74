"""The adaptive query router: per-query engine choice + result cache.

The ROADMAP's "no single access method wins everywhere" item, made
concrete.  For every skyline/top-k query the router:

1. refreshes :class:`~repro.route.stats.PredicateStats` if the session's
   epoch is new (an epoch publish is a maintenance commit — the one event
   that can change selectivities), and reclaims dead-epoch cache entries;
2. consults the :class:`~repro.route.cache.ResultCache` — unless the
   breaker board has a breaker open on any of the predicate's cells, in
   which case the lookup is *bypassed* so traffic keeps exercising (and
   healing) the real path;
3. builds an ordered engine chain: supported engines sorted by predicted
   cost — the :class:`~repro.route.stats.CostBook` EWMA of observed
   counted I/O where available, deterministic optimizer-style priors
   otherwise — with naive always last;
4. runs the chain through the
   :class:`~repro.route.fallback.FallbackExecutor` (unsupported shapes,
   storage faults and per-attempt deadline slices fall through; overall
   deadline/cancellation abort);
5. canonicalises the answer, feeds the observed cost back into the book
   when the first-choice engine served it (a fallback's I/O describes
   neither engine's healthy cost), and caches the canonical bytes under
   the epoch-keyed key.

Every engine is exact, so the router's contract is strong: *the answer is
byte-identical to naive regardless of the route taken* — the differential
harness asserts precisely this for forced strategies, forced fallbacks and
cache-warm/cold replays.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.query.predicates import BooleanPredicate
from repro.query.session import QueryResult, QuerySession
from repro.query.stats import QueryStats
from repro.route.cache import CachedAnswer, ResultCache, result_key
from repro.route.engines import (
    ENGINES,
    NAIVE,
    STRATEGY_ORDER,
    EngineContext,
    RouteRequest,
    canonicalize,
    supports,
)
from repro.route.fallback import FallbackExecutor, StrategyUnsupported
from repro.route.stats import (
    CostBook,
    PredicateStats,
    RouterStats,
    candidate_bucket,
)

if TYPE_CHECKING:  # pragma: no cover
    from repro.query.algorithm1 import SearchState  # noqa: F401
    from repro.serve.resilience import BreakerBoard
    from repro.system import PCubeSystem


@dataclass(frozen=True)
class RoutingPolicy:
    """The router's knobs (one frozen object, shareable across threads).

    Attributes:
        cache: Enable the epoch-keyed result cache (and signature memo).
        forced: Pin every query to one engine — no fallback chain, an
            unsupported shape raises.  (Benchmark "pinned" series, tests.)
        forced_chain: Use exactly this chain, in order, skipping engines
            that do not support the query shape.  (Fallback-edge tests.)
    """

    cache: bool = True
    forced: str | None = None
    forced_chain: tuple[str, ...] | None = None


class QueryRouter:
    """Chooses an engine per query; shared by all workers of an executor."""

    def __init__(
        self,
        relation,
        indexes: dict | None = None,
        indexes_rows: int = 0,
        policy: RoutingPolicy | None = None,
        breakers: "BreakerBoard | None" = None,
    ) -> None:
        self.policy = policy if policy is not None else RoutingPolicy()
        if (
            self.policy.forced is not None
            and self.policy.forced not in ENGINES
        ):
            raise ValueError(f"unknown strategy {self.policy.forced!r}")
        for name in self.policy.forced_chain or ():
            if name not in ENGINES:
                raise ValueError(f"unknown strategy {name!r}")
        self.relation = relation
        self.ctx = EngineContext(
            indexes=indexes or {}, indexes_rows=indexes_rows
        )
        self.breakers = breakers
        self.predicate_stats = PredicateStats()
        self.costs = CostBook()
        self.cache = ResultCache() if self.policy.cache else None
        self.stats = RouterStats()
        self.fallback = FallbackExecutor(ENGINES)

    @classmethod
    def for_system(
        cls,
        system: "PCubeSystem",
        policy: RoutingPolicy | None = None,
        breakers: "BreakerBoard | None" = None,
    ) -> "QueryRouter":
        return cls(
            system.relation,
            indexes=system.indexes,
            indexes_rows=system.indexes_rows,
            policy=policy,
            breakers=breakers,
        )

    # ------------------------------------------------------------------ #
    # the chain
    # ------------------------------------------------------------------ #

    def chain_for(
        self,
        kind: str,
        predicate: BooleanPredicate,
        preference_by: tuple[str, ...] | None,
        relation,
    ) -> list[str]:
        """Supported engines, cheapest-predicted first, naive last."""
        if self.policy.forced is not None:
            return [self.policy.forced]
        candidates = [
            name
            for name in (self.policy.forced_chain or STRATEGY_ORDER)
            if supports(name, kind, preference_by, self.ctx, relation)
        ]
        if self.policy.forced_chain is not None:
            return candidates
        estimate = self.predicate_stats.cardinality(predicate)
        bucket = candidate_bucket(estimate)
        priors = self._priors(predicate, estimate, relation)
        order = {name: rank for rank, name in enumerate(STRATEGY_ORDER)}

        def predicted(name: str) -> float:
            observed = self.costs.estimate(kind, name, bucket)
            return observed if observed is not None else priors[name]

        ranked = sorted(
            (name for name in candidates if name != NAIVE),
            key=lambda name: (predicted(name), order[name]),
        )
        if NAIVE in candidates:
            ranked.append(NAIVE)  # ground truth backstops every chain
        return ranked

    def _priors(
        self, predicate: BooleanPredicate, estimate: float, relation
    ) -> dict[str, float]:
        """Deterministic optimizer-style page-cost priors.

        Crude on purpose — they only seed the order until the cost book
        has observations — but shaped like the paper's regimes: very
        selective predicates favour boolean-first (few heap pages), the
        empty predicate makes domination ≈ signature (both are plain BBS),
        and any non-empty predicate makes domination-first pay minimal
        probing's per-candidate random accesses — which Figure 9 shows
        scaling with the *relation*, not the answer, because BBS surfaces
        (and probes) candidates regardless of whether they qualify.
        """
        pages = max(1, relation.heap_page_count())
        empty = predicate.is_empty()
        # Cardenas: expected distinct heap pages hit by `estimate` tids.
        touched = pages * (1.0 - (1.0 - 1.0 / pages) ** estimate)
        signature = 3.0 + 0.15 * touched
        if empty:
            boolean_first = float(pages)
            domination = signature
        else:
            boolean_first = min(
                float(pages), 3.0 + estimate / 64.0 + touched
            )
            domination = signature + 0.5 * len(relation)
        return {
            "signature": signature,
            "boolean-first": boolean_first,
            "domination-first": domination,
            "index-merge": 3.0 + estimate / 64.0 + 0.3 * touched,
            "naive": pages + 1.0,
        }

    # ------------------------------------------------------------------ #
    # serving
    # ------------------------------------------------------------------ #

    def _breaker_bypass(self, predicate: BooleanPredicate) -> bool:
        if self.breakers is None or predicate.is_empty():
            return False
        cells = [cell.cell_id for cell in predicate.atomic_cells()]
        if len(predicate) > 1:
            cells.append(predicate.cell().cell_id)
        return any(self.breakers.cell_open(cell_id) for cell_id in cells)

    def _hit_result(
        self,
        request: RouteRequest,
        answer: CachedAnswer,
        epoch: int,
        elapsed: float,
    ) -> QueryResult:
        from repro.query.algorithm1 import SearchState

        stats = QueryStats()
        stats.epoch = epoch
        stats.route = answer.strategy
        stats.tier = answer.tier
        stats.cache_outcome = "hit"
        stats.results = len(answer.tids)
        stats.elapsed_seconds = elapsed
        return QueryResult(
            kind=request.kind,
            predicate=request.predicate,
            tids=list(answer.tids),
            scores=list(answer.scores) if answer.scores is not None else None,
            stats=stats,
            state=SearchState(),
            fn=request.fn,
            k=request.k,
            preference_by=request.preference_by,
            resumable=False,
        )

    def route(
        self,
        session: QuerySession,
        kind: str,
        predicate: BooleanPredicate | None = None,
        fn=None,
        k: int | None = None,
        preference_by: tuple[str, ...] | None = None,
        tracer=None,
    ) -> QueryResult:
        """Answer one query via the best engine (or the cache)."""
        started = time.perf_counter()
        predicate = predicate or BooleanPredicate()
        request = RouteRequest(
            kind=kind,
            predicate=predicate,
            fn=fn,
            k=k,
            preference_by=preference_by,
            tracer=tracer,
        )
        relation = session.relation
        self.predicate_stats.ensure(relation, session.epoch)

        # -- cache lookup (epoch-keyed; bypassed on open breakers) ------- #
        cache_outcome: str | None = None
        key = None
        cacheable = (
            self.cache is not None
            and session.epoch is not None
            and kind in ("skyline", "topk")
        )
        if cacheable:
            self.cache.on_epoch(session.epoch)
            if self._breaker_bypass(predicate):
                cache_outcome = "bypass"
                self.cache.note_bypass()
            else:
                key = result_key(
                    kind, predicate, preference_by, fn, k, session.epoch
                )
                answer = self.cache.get(key)
                if answer is not None:
                    self.stats.note_hit()
                    return self._hit_result(
                        request,
                        answer,
                        session.epoch,
                        time.perf_counter() - started,
                    )
                cache_outcome = "miss"
            # Let healthy eager-assembly queries reuse memoized assembled
            # signatures (bypass keeps even the memo off the path).
            session.signature_memo = (
                self.cache if cache_outcome == "miss" else None
            )

        # -- run the chain ---------------------------------------------- #
        chain = self.chain_for(kind, predicate, preference_by, relation)
        try:
            result, failures = self.fallback.execute(
                chain, session, request, self.ctx
            )
        finally:
            session.signature_memo = None
        canonicalize(result)
        result.stats.cache_outcome = cache_outcome

        # -- learn + cache ---------------------------------------------- #
        if not failures:
            estimate = self.predicate_stats.cardinality(predicate)
            self.costs.observe(
                kind,
                result.stats.route,
                candidate_bucket(estimate),
                float(result.stats.total_io()),
            )
        self.stats.note_served(
            chain, result.stats.route, failures, cache_outcome
        )
        if key is not None:
            self.cache.put(
                key,
                CachedAnswer(
                    tids=tuple(result.tids),
                    scores=(
                        tuple(result.scores)
                        if result.scores is not None
                        else None
                    ),
                    strategy=result.stats.route,
                    tier=result.stats.tier,
                ),
            )
        return result

    # ------------------------------------------------------------------ #
    # observability
    # ------------------------------------------------------------------ #

    def snapshot(self) -> dict:
        """The ``--health`` view: decisions, cache state, statistics."""
        return {
            "policy": {
                "cache": self.policy.cache,
                "forced": self.policy.forced,
                "forced_chain": (
                    list(self.policy.forced_chain)
                    if self.policy.forced_chain is not None
                    else None
                ),
            },
            "routing": self.stats.snapshot(),
            "cache": self.cache.snapshot() if self.cache is not None else None,
            "predicate_stats": self.predicate_stats.snapshot(),
            "costs": self.costs.snapshot(),
        }


__all__ = ["QueryRouter", "RoutingPolicy", "StrategyUnsupported"]
