"""Query sessions: one query surface, bindable to live or snapshot state.

A :class:`QuerySession` owns no mutable state of its own — it binds a
(relation, R-tree, P-Cube) triple, a buffer-pool policy and optional
serving hooks (epoch tag, cancellation ticker), and every query method
produces a fresh :class:`~repro.query.engine.QueryResult`.  The same class
therefore serves two deployments:

* **live / cold-pool** — bound to the live structures with no shared pool;
  each query runs on a private :class:`~repro.storage.buffer.BufferPool`,
  so disk-access counts stay a pure function of the query (the
  paper-comparable mode :class:`~repro.query.engine.PreferenceEngine`
  exposes).
* **snapshot / shared-pool** — built via :meth:`QuerySession.for_snapshot`
  from a pinned :class:`~repro.core.epoch.Snapshot`, usually with a shared
  pool.  Shared pools are accessed through a per-query
  :class:`~repro.storage.buffer.PoolView`, so ``QueryStats`` records this
  query's hit/miss delta; the result's stats carry the snapshot epoch, and
  the ticker (the serving executor's deadline/cancel probe) is invoked on
  every Algorithm 1 heap pop.

Because snapshots are immutable and pools are thread-safe, any number of
sessions — and any number of queries on one session — may run concurrently
from different threads.
"""

from __future__ import annotations

import heapq
import time
from contextlib import nullcontext
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable

from repro.kernels import backend as kernel_backend
from repro.obs.trace import Tracer
from repro.query.algorithm1 import (
    PrunedList,
    SearchState,
    SkylineStrategy,
    TopKStrategy,
    run_algorithm1,
)
from repro.query.predicates import BooleanPredicate
from repro.query.ranking import RankingFunction
from repro.query.stats import QueryStats
from repro.rtree.geometry import dominates
from repro.storage.buffer import BufferPool, PoolView
from repro.storage.counters import BTABLE, SBLOCK
from repro.storage.errors import StorageFault

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.epoch import Snapshot
    from repro.serve.resilience import BreakerBoard, DegradationPolicy


@dataclass
class QueryResult:
    """A completed query plus the state follow-up queries resume from.

    ``resumable`` marks whether ``state`` really carries Lemma 2 search
    state: results produced by Algorithm 1 are resumable; answers served
    by a routed baseline engine or replayed from the result cache are not
    (their ``state`` is empty, and drilling down from them would silently
    return nothing).
    """

    kind: str  # "skyline" | "topk" | "dynamic_skyline" | "lower_hull"
    predicate: BooleanPredicate
    tids: list[int]
    scores: list[float] | None
    stats: QueryStats
    state: SearchState
    fn: RankingFunction | None = None
    k: int | None = None
    preference_by: tuple[str, ...] | None = None
    resumable: bool = True

    def __len__(self) -> int:
        return len(self.tids)


class QuerySession:
    """A stateless query surface over one version of the system.

    Args:
        relation, rtree, pcube: The structures to query — either the live
            objects or a snapshot's frozen projections (both satisfy the
            same read protocol).
        pool: A shared :class:`BufferPool` to run against; each query
            observes it through a private :class:`PoolView`.  ``None``
            (the default) gives every query a fresh cold pool of
            ``pool_capacity`` pages instead.
        pool_capacity: Cold-pool size when ``pool`` is ``None``.
        eager_assembly: Exact recursive intersection for multi-predicate
            signatures instead of the lazy AND.
        epoch: Stamped onto every result's ``stats.epoch`` and the query
            span (serving observability); ``None`` for live sessions.
        ticker: Invoked once per Algorithm 1 heap pop; raises to abort the
            query (deadline/cancellation in the serving executor).
        deadline_at: ``time.perf_counter()`` instant this session's queries
            must finish by.  Storage retries spend from what remains of it
            (a backoff that would outspend the budget is skipped and the
            fault surfaces immediately); the ticker still enforces the
            deadline itself.
        breakers: A :class:`~repro.serve.resilience.BreakerBoard` shared
            across the serving deployment; partial loads consult it and an
            open breaker short-circuits straight to the degraded path.
        degradation: Enables the tier-3 boolean-first fallback: a
            :class:`~repro.serve.resilience.DegradationPolicy` whose
            ``allow_boolean_first`` is true makes skyline/top-k queries
            answer via a signature-free relation scan when even the search
            structures fault, instead of propagating the storage error.
            ``None`` (the default, and the paper-comparable mode) keeps
            tiers 1–2 only.
    """

    def __init__(
        self,
        relation,
        rtree,
        pcube,
        pool: BufferPool | None = None,
        pool_capacity: int = 4096,
        eager_assembly: bool = False,
        epoch: int | None = None,
        ticker: Callable[[], None] | None = None,
        deadline_at: float | None = None,
        breakers: "BreakerBoard | None" = None,
        degradation: "DegradationPolicy | None" = None,
    ) -> None:
        self.relation = relation
        self.rtree = rtree
        self.pcube = pcube
        self.pool = pool
        self.pool_capacity = pool_capacity
        self.eager_assembly = eager_assembly
        self.epoch = epoch
        self.ticker = ticker
        self.deadline_at = deadline_at
        self.breakers = breakers
        self.degradation = degradation
        # Router-owned assembled-signature memo (a ResultCache); attached
        # per query by QueryRouter.route, never set for unrouted sessions.
        self.signature_memo = None

    @classmethod
    def for_snapshot(
        cls,
        snapshot: "Snapshot",
        pool: BufferPool | None = None,
        pool_capacity: int = 4096,
        eager_assembly: bool = False,
        ticker: Callable[[], None] | None = None,
        deadline_at: float | None = None,
        breakers: "BreakerBoard | None" = None,
        degradation: "DegradationPolicy | None" = None,
    ) -> "QuerySession":
        """Bind a session to a pinned snapshot's frozen structures.

        The caller keeps the snapshot pinned for the session's lifetime
        (the session itself never talks to the epoch manager).
        """
        return cls(
            snapshot.relation,
            snapshot.rtree,
            snapshot.pcube,
            pool=pool,
            pool_capacity=pool_capacity,
            eager_assembly=eager_assembly,
            epoch=snapshot.epoch,
            deadline_at=deadline_at,
            breakers=breakers,
            degradation=degradation,
        ).with_ticker(ticker)

    def with_ticker(self, ticker: Callable[[], None] | None) -> "QuerySession":
        """Set the cancellation probe (chainable; used by the executor)."""
        self.ticker = ticker
        return self

    # ------------------------------------------------------------------ #
    # pool policy
    # ------------------------------------------------------------------ #

    def _query_pool(self) -> BufferPool | PoolView:
        """Cold private pool, or a per-query view of the shared one."""
        if self.pool is None:
            return BufferPool(self.rtree.disk, capacity=self.pool_capacity)
        return PoolView(self.pool)

    def _finish_pool(self, pool: BufferPool | PoolView, stats: QueryStats) -> None:
        """Record this query's buffer delta and drop any leftover pins."""
        stats.pool_hits = pool.hits
        stats.pool_misses = pool.misses
        if isinstance(pool, PoolView):
            pool.release()

    # ------------------------------------------------------------------ #
    # standard queries
    # ------------------------------------------------------------------ #

    def _budget(self):
        """The retry budget for one query starting now (or ``None``)."""
        if self.deadline_at is None:
            return None
        from repro.serve.resilience import RetryBudget

        return RetryBudget(self.deadline_at)

    def _reader(
        self, predicate: BooleanPredicate, pool, stats, tracer=None, budget=None
    ):
        if predicate.is_empty():
            return None
        memo = self.signature_memo
        memo_key: tuple[str, ...] | None = None
        if memo is not None and self.eager_assembly and self.epoch is not None:
            memo_key = tuple(
                f"{dim}={value!r}" for dim, value in predicate
            )
            cached = memo.get_signature(memo_key, self.epoch)
            if cached is not None:
                return cached
        reader = self.pcube.reader_for_predicate(
            predicate.conjuncts,
            pool,
            stats.counters,
            eager=self.eager_assembly,
            tracer=tracer,
            budget=budget,
            breakers=self.breakers,
            epoch=self.epoch,
        )
        if memo_key is not None and self._memoizable(reader):
            memo.put_signature(memo_key, self.epoch, reader)
        return reader

    @staticmethod
    def _memoizable(reader) -> bool:
        """Only clean, stateless assembled readers may be shared across
        queries: :class:`~repro.core.pcube.SignatureAdapter` (an immutable
        assembled signature) and :class:`~repro.core.pcube.EmptyReader`.
        Lazy readers count per-query I/O and degraded readers carry fault
        state, so neither is safe to reuse."""
        from repro.core.pcube import EmptyReader, SignatureAdapter

        if not isinstance(reader, (SignatureAdapter, EmptyReader)):
            return False
        return not getattr(reader, "degraded", False) and not getattr(
            reader, "failed_loads", 0
        )

    def skyline(
        self,
        predicate: BooleanPredicate | None = None,
        preference_by: tuple[str, ...] | None = None,
        tracer: Tracer | None = None,
    ) -> QueryResult:
        """A standard skyline query (Algorithm 1 from the root).

        ``preference_by`` restricts the skyline to a subset of preference
        dimensions by name (Section III's ``preference by N'1, ..., N'j``).
        Pass a :class:`~repro.obs.trace.Tracer` to capture the span tree
        and prune/load events of the execution.
        """
        predicate = predicate or BooleanPredicate()
        return self._run(
            "skyline",
            predicate,
            state=None,
            preference_by=preference_by,
            tracer=tracer,
        )

    def topk(
        self,
        fn: RankingFunction,
        k: int,
        predicate: BooleanPredicate | None = None,
        tracer: Tracer | None = None,
    ) -> QueryResult:
        """A standard top-k query."""
        predicate = predicate or BooleanPredicate()
        return self._run(
            "topk", predicate, state=None, fn=fn, k=k, tracer=tracer
        )

    def dynamic_skyline(
        self,
        query_point,
        predicate: BooleanPredicate | None = None,
    ) -> QueryResult:
        """A dynamic skyline query (Section VII extension): the skyline in
        the ``|x − query_point|`` space."""
        from repro.query.dynamic import dynamic_skyline_signature

        predicate = predicate or BooleanPredicate()
        pool = self._query_pool()
        tids, stats, state = dynamic_skyline_signature(
            self.relation,
            self.rtree,
            self.pcube,
            query_point,
            predicate,
            pool=pool,
            ticker=self.ticker,
        )
        stats.epoch = self.epoch
        self._stamp_tier(stats)
        self._finish_pool(pool, stats)
        return QueryResult(
            kind="dynamic_skyline",
            predicate=predicate,
            tids=tids,
            scores=None,
            stats=stats,
            state=state,
        )

    def lower_hull(
        self, predicate: BooleanPredicate | None = None
    ) -> QueryResult:
        """A 2-D lower-left convex hull query (Section VII extension)."""
        from repro.query.hull import lower_hull_signature

        predicate = predicate or BooleanPredicate()
        pool = self._query_pool()
        tids, stats = lower_hull_signature(
            self.relation,
            self.rtree,
            self.pcube,
            predicate,
            pool=pool,
            ticker=self.ticker,
        )
        stats.epoch = self.epoch
        self._stamp_tier(stats)
        self._finish_pool(pool, stats)
        return QueryResult(
            kind="lower_hull",
            predicate=predicate,
            tids=tids,
            scores=None,
            stats=stats,
            state=SearchState(),
        )

    # ------------------------------------------------------------------ #
    # incremental queries (Lemma 2)
    # ------------------------------------------------------------------ #

    @staticmethod
    def _check_incremental(previous: QueryResult) -> None:
        if previous.kind not in ("skyline", "topk"):
            raise ValueError(
                f"drill-down/roll-up resume {previous.kind!r} queries is not "
                "supported; only skyline and topk keep Lemma 2 state"
            )
        if previous.stats.tier == "boolean-first":
            raise ValueError(
                "cannot drill-down/roll-up from a boolean-first degraded "
                "result: the scan fallback keeps no Lemma 2 search state; "
                "re-run the query from scratch"
            )
        if not previous.resumable:
            raise ValueError(
                "cannot drill-down/roll-up from a routed or cached result: "
                "it carries no Lemma 2 search state; re-run the query "
                "through the session (or router) from scratch"
            )

    def drill_down(
        self,
        previous: QueryResult,
        dim: str,
        value: Any,
        tracer: Tracer | None = None,
    ) -> QueryResult:
        """Strengthen the previous query's predicate by one conjunct."""
        self._check_incremental(previous)
        predicate = previous.predicate.drill_down(dim, value)
        carried = (
            previous.state.results
            + previous.state.d_list
            + previous.state.heap
        )
        dominated = {id(entry) for entry in previous.state.d_list}
        return self._run(
            previous.kind,
            predicate,
            state=("drill", carried, list(previous.state.b_list), dominated),
            fn=previous.fn,
            k=previous.k,
            preference_by=previous.preference_by,
            tracer=tracer,
        )

    def roll_up(
        self, previous: QueryResult, dim: str, tracer: Tracer | None = None
    ) -> QueryResult:
        """Relax the previous query's predicate by removing one conjunct."""
        self._check_incremental(previous)
        predicate = previous.predicate.roll_up(dim)
        carried = (
            previous.state.results
            + previous.state.b_list
            + previous.state.heap
        )
        return self._run(
            previous.kind,
            predicate,
            state=("roll", carried, list(previous.state.d_list), frozenset()),
            fn=previous.fn,
            k=previous.k,
            preference_by=previous.preference_by,
            tracer=tracer,
        )

    # ------------------------------------------------------------------ #
    # shared runner
    # ------------------------------------------------------------------ #

    def _stamp_tier(self, stats: QueryStats) -> None:
        """Record which degradation tier answered (tiers 1–2; the scan
        fallback stamps tier 3 itself)."""
        stats.tier = "conservative" if stats.degraded else "signature"

    def _run(
        self,
        kind: str,
        predicate: BooleanPredicate,
        state,
        fn: RankingFunction | None = None,
        k: int | None = None,
        preference_by: tuple[str, ...] | None = None,
        tracer: Tracer | None = None,
    ) -> QueryResult:
        try:
            return self._run_signature(
                kind,
                predicate,
                state,
                fn=fn,
                k=k,
                preference_by=preference_by,
                tracer=tracer,
            )
        except StorageFault as fault:
            if (
                self.degradation is None
                or not self.degradation.allow_boolean_first
                or kind not in ("skyline", "topk")
            ):
                raise
            # Tier 3: even the search structures fault — answer exactly
            # from a signature-free relation scan, chaining the storage
            # error so callers can see what forced the fallback.
            try:
                return self._run_boolean_first(
                    kind,
                    predicate,
                    fn=fn,
                    k=k,
                    preference_by=preference_by,
                    tracer=tracer,
                    cause=fault,
                )
            except StorageFault as exc:
                raise exc from fault

    def _run_signature(
        self,
        kind: str,
        predicate: BooleanPredicate,
        state,
        fn: RankingFunction | None = None,
        k: int | None = None,
        preference_by: tuple[str, ...] | None = None,
        tracer: Tracer | None = None,
    ) -> QueryResult:
        stats = QueryStats()
        stats.epoch = self.epoch
        stats.kernel_backend = kernel_backend()
        budget = self._budget()
        pool = self._query_pool()
        reader = None
        if tracer is not None and tracer.counters is None:
            tracer.counters = stats.counters
        span_attrs = {
            "predicate": repr(predicate),
            "incremental": state is not None,
        }
        if self.epoch is not None:
            span_attrs["epoch"] = self.epoch
        query_span = (
            tracer.span(f"query:{kind}", **span_attrs)
            if tracer is not None
            else nullcontext()
        )
        try:
            with query_span:
                started = time.perf_counter()
                with (
                    tracer.span("reader:setup")
                    if tracer is not None
                    else nullcontext()
                ):
                    reader = self._reader(
                        predicate, pool, stats, tracer, budget=budget
                    )
                if kind == "skyline":
                    subspace = None
                    if preference_by is not None:
                        subspace = tuple(
                            self.relation.schema.preference_position(name)
                            for name in preference_by
                        )
                    strategy: SkylineStrategy | TopKStrategy = SkylineStrategy(
                        self.rtree.dims, subspace=subspace
                    )
                else:
                    assert fn is not None and k is not None
                    strategy = TopKStrategy(fn, k)

                resume_state: SearchState | None = None
                if state is not None:
                    mode, carried, kept_list, dominated = state
                    resume_state = SearchState()
                    if mode == "drill":
                        # still fail the stronger BP
                        resume_state.b_list = PrunedList(kept_list)
                    else:
                        # still dominated
                        resume_state.d_list = PrunedList(kept_list)
                    resume_state.seq = max(
                        (entry.seq for entry in carried), default=0
                    )
                    with (
                        tracer.span("resume:prefilter", mode=mode)
                        if tracer is not None
                        else nullcontext()
                    ):
                        for entry in carried:
                            # Pre-filter with the new predicate's signature,
                            # as the paper suggests, to keep the rebuilt heap
                            # small.
                            if reader is not None and not reader.check_path(
                                entry.path
                            ):
                                resume_state.b_list.append(entry)
                                stats.boolean_pruned += 1
                                if tracer is not None:
                                    # A carried entry the old query already
                                    # preference-pruned that the new
                                    # signature rejects too fails both arms.
                                    arm = (
                                        "both"
                                        if id(entry) in dominated
                                        else "bool"
                                    )
                                    tracer.prune(
                                        arm, path=entry.path, key=entry.key
                                    )
                            else:
                                resume_state.heap.append(entry)

                final_state = run_algorithm1(
                    self.rtree,
                    strategy,
                    stats,
                    reader=reader,
                    pool=pool,
                    block_category=SBLOCK,
                    state=resume_state,
                    tracer=tracer,
                    ticker=self.ticker,
                )
                stats.elapsed_seconds = time.perf_counter() - started
        finally:
            self._finish_pool(pool, stats)
            if reader is not None:
                stats.sig_load_seconds = reader.load_seconds
                stats.fault_retries = getattr(reader, "retries", 0)
                stats.failed_loads = getattr(reader, "failed_loads", 0)
                stats.degraded_checks = getattr(reader, "degraded_checks", 0)
                stats.breaker_skips = getattr(reader, "breaker_skips", 0)
                stats.degraded = bool(getattr(reader, "degraded", False))
        self._stamp_tier(stats)

        tids = [e.tid for e in final_state.results if e.tid is not None]
        scores = (
            [e.key for e in final_state.results if e.tid is not None]
            if kind == "topk"
            else None
        )
        return QueryResult(
            kind=kind,
            predicate=predicate,
            tids=tids,
            scores=scores,
            stats=stats,
            state=final_state,
            fn=fn,
            k=k,
            preference_by=preference_by,
        )

    # ------------------------------------------------------------------ #
    # tier 3: signature-free boolean-first fallback
    # ------------------------------------------------------------------ #

    def _run_boolean_first(
        self,
        kind: str,
        predicate: BooleanPredicate,
        fn: RankingFunction | None = None,
        k: int | None = None,
        preference_by: tuple[str, ...] | None = None,
        tracer: Tracer | None = None,
        cause: Exception | None = None,
    ) -> QueryResult:
        """Answer a skyline/top-k exactly without touching any signature
        or R-tree page: scan the (snapshot's) relation, filter by the
        predicate, run the preference step in memory.

        Results are reported in Algorithm 1's best-first order — skyline
        candidates sorted by ``(Σ projected coords, projected point, tid)``
        with BBS-style domination against already-reported points, top-k by
        ascending ``(score, tid)`` — so a degraded answer is byte-identical
        to the serial engine's.  The scan is counted (``BTABLE``) and the
        ticker still fires per tuple, so deadlines and cancellation apply.
        """
        stats = QueryStats()
        stats.epoch = self.epoch
        stats.tier = "boolean-first"
        stats.degraded = True
        span_attrs: dict[str, Any] = {
            "predicate": repr(predicate),
            "tier": "boolean-first",
        }
        if cause is not None:
            span_attrs["cause"] = type(cause).__name__
        if self.epoch is not None:
            span_attrs["epoch"] = self.epoch
        fallback_span = (
            tracer.span(f"query:{kind}:boolean-first", **span_attrs)
            if tracer is not None
            else nullcontext()
        )
        with fallback_span:
            started = time.perf_counter()
            empty = predicate.is_empty()
            candidates: list[int] = []
            for tid in self.relation.scan(stats.counters, BTABLE):
                if self.ticker is not None:
                    self.ticker()
                if empty or predicate.matches(self.relation, tid):
                    candidates.append(tid)
            stats.note_heap(len(candidates))
            scores: list[float] | None = None
            if kind == "skyline":
                subspace: tuple[int, ...] | None = None
                if preference_by is not None:
                    subspace = tuple(
                        self.relation.schema.preference_position(name)
                        for name in preference_by
                    )

                def project(point) -> tuple[float, ...]:
                    if subspace is None:
                        return tuple(point)
                    return tuple(point[d] for d in subspace)

                projected = sorted(
                    ((tid, project(self.relation.pref_point(tid))) for tid in candidates),
                    key=lambda item: (sum(item[1]), item[1], item[0]),
                )
                result_points: list[tuple[float, ...]] = []
                tids: list[int] = []
                for tid, point in projected:
                    if any(dominates(s, point) for s in result_points):
                        stats.dominance_pruned += 1
                        continue
                    result_points.append(point)
                    tids.append(tid)
            else:
                assert fn is not None and k is not None
                scored = (
                    (fn.score(self.relation.pref_point(tid)), tid)
                    for tid in candidates
                )
                best = heapq.nsmallest(k, scored)
                tids = [tid for _, tid in best]
                scores = [score for score, _ in best]
            stats.results = len(tids)
            stats.elapsed_seconds = time.perf_counter() - started
        return QueryResult(
            kind=kind,
            predicate=predicate,
            tids=tids,
            scores=scores,
            stats=stats,
            state=SearchState(),
            fn=fn,
            k=k,
            preference_by=preference_by,
        )
