"""The query router: the result cache in front of the one chain.

Every :class:`~repro.serve.executor.QueryExecutor` builds one, and every
served skyline / top-k goes through :meth:`QueryRouter.route`; the
executor's ``routing`` flag only turns the cache on or off.  There is no
per-query engine choice.  The paper's claim is that the signature method
beats both baseline orders, and a learner that picked among them per query
was measured to do no better than always-signature on any served workload
(DESIGN.md §12), so every read runs
:func:`~repro.route.engines.chain_for`'s chain.  What the router adds, for
every skyline/top-k query:

1. with the cache on, on the first query after a publish, the cache's
   reconcile to the reader's epoch (:mod:`repro.route.cache`: entries the
   deltas in between provably cannot change are carried, the rest
   dropped, unknown ⇒ drop), then a lookup — *bypassed* while any of the
   predicate's cells is quarantined, so the answer comes from the real
   (degraded) path until a re-store publishes the repaired cell, or when
   the query cannot be keyed (a ranking function with no cache token, a
   disjunction).  This half,
   :meth:`QueryRouter.lookup`, reads no storage and needs no pin: the
   executor runs it on the submitting thread at the current epoch, so a
   hit never enters the admission queue;
2. on a miss, or with the cache off, the chain, run through
   :func:`~repro.route.fallback.run_chain` (storage faults and per-attempt
   deadline slices fall through; overall deadline/cancellation abort);
3. the answer stamped with the engine that served it and counted in
   :class:`~repro.route.stats.RouterStats`; with the cache on, put in
   canonical order and cached under the epoch-keyed key with what the
   carry tests read.  With the cache off the answer keeps Algorithm 1's
   reporting order.

Every engine is exact, so the router's contract is strong: *the answer set
is identical to naive regardless of the route taken* — the differential
harness asserts precisely this for every engine, forced fallbacks and
cache-warm/cold replays.
"""

from __future__ import annotations

import time
from typing import TYPE_CHECKING

from repro.query.predicates import BooleanPredicate
from repro.query.session import QueryResult, QuerySession
from repro.query.stats import QueryStats
from repro.route.cache import CACHED_KINDS, CachedAnswer, ResultCache, result_key
from repro.route.engines import (
    EngineContext,
    RouteRequest,
    canonicalize,
    chain_for,
    stateless_result,
)
from repro.route.fallback import run_chain
from repro.route.stats import RouterStats

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.store import SignatureStore
    from repro.system import PCubeSystem


class QueryRouter:
    """Result cache + chain runner; shared by all workers of an executor."""

    def __init__(
        self,
        ctx: EngineContext,
        store: "SignatureStore",
        cache: bool = True,
        deltas=None,
    ) -> None:
        self.ctx = ctx
        self.store = store  # the live store, whose quarantine is current
        self.deltas = deltas  # EpochManager.deltas_between; None: flush-all
        self.cache = ResultCache() if cache else None
        self.stats = RouterStats()

    @classmethod
    def for_system(
        cls, system: "PCubeSystem", cache: bool = True
    ) -> "QueryRouter":
        # The B+-tree postings are never maintained after build; the
        # engines take them only while they cover the pinned snapshot's
        # rows, and scan the table otherwise.
        ctx = EngineContext(system.indexes, system.indexes_rows)
        return cls(
            ctx, system.pcube.store, cache, system.epochs.deltas_between
        )

    # ------------------------------------------------------------------ #
    # serving
    # ------------------------------------------------------------------ #

    def _quarantine_bypass(self, predicate: BooleanPredicate) -> bool:
        """Is a cell of this (keyed, so conjunctive) predicate
        quarantined?"""
        store = self.store
        if predicate.is_empty() or not store.quarantined_cells():
            return False
        cells = predicate.atomic_cells()
        if len(predicate) > 1:
            cells += (predicate.cell(),)
        return any(store.is_quarantined(cell) for cell in cells)

    def lookup(
        self, request: RouteRequest, epoch: int | None
    ) -> tuple[QueryResult | None, tuple | None, str | None]:
        """The cache half of :meth:`route`: ``(hit, key, outcome)``.

        ``hit`` is the answer (counted here, a hit's only count) or
        ``None``; ``key`` is what a computed answer is put under (``None``:
        not cached); ``outcome`` is ``"hit"``, ``"miss"``, ``"bypass"`` or
        ``None`` (no cache, no epoch, another kind).  It reads no storage,
        so the executor runs it on the submitting thread.
        """
        if self.cache is None or epoch is None or request.kind not in CACHED_KINDS:
            return None, None, None
        started = time.perf_counter()
        self.cache.on_epoch(epoch, self.deltas)
        key = result_key(
            request.kind,
            request.predicate,
            request.preference_by,
            request.fn,
            request.k,
            epoch,
        )
        if key is None or self._quarantine_bypass(request.predicate):
            return None, None, "bypass"
        answer = self.cache.get(key)
        if answer is None:
            return None, key, "miss"
        self.stats.bump(routed=1, cache_hits=1)
        stats = QueryStats(
            elapsed_seconds=time.perf_counter() - started,
            tier=answer.tier,
            epoch=epoch,
            route=answer.strategy,
            cache_outcome="hit",
            cache_computed_epoch=answer.computed_epoch,
        )
        scores = list(answer.scores) if answer.scores is not None else None
        hit = stateless_result(request, list(answer.tids), scores, stats)
        return hit, key, "hit"

    def route(
        self, session: QuerySession, request: RouteRequest
    ) -> QueryResult:
        """Answer one query from the cache, or down the chain."""
        hit, key, cache_outcome = self.lookup(request, session.epoch)
        if hit is not None:
            return hit

        # -- run the chain ---------------------------------------------- #
        chain = chain_for(request)
        result, failures = run_chain(chain, session, request, self.ctx)
        if self.cache is not None:
            canonicalize(result)  # a hit and a computed answer: same bytes
        result.stats.route = chain[len(failures)]
        result.stats.cache_outcome = cache_outcome

        self.stats.note_served(
            chain, result.stats.route, failures, cache_outcome
        )
        if key is not None:
            self.cache.put(
                key, self._cached(session, request, result), self.deltas
            )
        return result

    @staticmethod
    def _cached(
        session: QuerySession, request: RouteRequest, result: QueryResult
    ) -> CachedAnswer:
        """The canonical answer plus what the carry tests read."""
        relation = session.relation
        subspace = session.subspace(request.preference_by)
        points = [
            relation.pref_point(tid)
            for tid in (result.tids if request.kind == "skyline" else ())
        ]
        if subspace is not None:
            points = [tuple(point[d] for d in subspace) for point in points]
        return CachedAnswer(
            tids=tuple(result.tids),
            scores=(
                tuple(result.scores) if result.scores is not None else None
            ),
            strategy=result.stats.route,
            tier=result.stats.tier,
            computed_epoch=session.epoch,
            conjuncts=tuple(
                (relation.schema.boolean_position(dim), value)
                for dim, value in request.predicate
            ),
            fn=request.fn,
            k=request.k,
            subspace=subspace,
            points=tuple(points),
        )

    # ------------------------------------------------------------------ #
    # observability
    # ------------------------------------------------------------------ #

    def snapshot(self) -> dict:
        """The ``--health`` view: route tallies, cache state."""
        return {
            "routing": self.stats.snapshot(),
            "cache": self.cache.snapshot() if self.cache is not None else None,
        }


__all__ = ["QueryRouter"]
