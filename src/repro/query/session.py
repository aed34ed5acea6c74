"""Query sessions: the one place a signature-method query is set up and run.

The paper presents Algorithm 1 as *one* framework whose query kinds differ
only in the preference-pruning strategy (Section V; Section VII adds
dynamic skylines and convex hulls "easily").  :class:`QuerySession` is that
framework's single driver: :meth:`QuerySession._run` builds the per-query
context — stats, buffer pool, retry budget, breaker-aware signature reader,
trace spans, ticker — runs the search and stamps the outcome, and every
kind only hands it what differs: a
:class:`~repro.query.algorithm1.SkylineStrategy` (optionally over a
``preference by`` subspace), a :class:`~repro.query.algorithm1.TopKStrategy`,
a :class:`~repro.query.dynamic.DynamicSkylineStrategy`, the hull's repeated
top-1 searches on one reader, a DNF reader instead of a conjunctive one, or
a resumed :class:`~repro.query.algorithm1.SearchState` for Lemma 2
drill-down / roll-up (Section V-C):

* drill-down (stronger predicate): ``c_heap = result ∪ d_list`` — entries
  that failed the *old* boolean predicate keep failing the stronger one, so
  ``b_list`` stays pruned; entries dominated by old results must be
  reconsidered because their dominators may now fail the new predicate;
* roll-up (weaker predicate): ``c_heap = result ∪ b_list`` — old results
  still qualify, so everything they dominated stays dominated, while
  boolean-pruned entries may now qualify.

Top-k searches terminate early and may leave pending heap entries; those
are carried over too (they were neither pruned nor reported).

A session owns no mutable state of its own — it binds a (relation, R-tree,
P-Cube) triple, a buffer-pool policy and optional serving hooks, and every
query method produces a fresh :class:`QueryResult`.  The same class
therefore serves two deployments:

* **live / cold-pool** — bound to the live structures with no shared pool;
  each query runs on a private :class:`~repro.storage.buffer.BufferPool`,
  so disk-access counts stay a pure function of the query (the
  paper-comparable mode; ``PCubeSystem.engine`` is such a session).
* **snapshot / shared-pool** — built via :meth:`QuerySession.for_snapshot`
  from a pinned :class:`~repro.core.epoch.Snapshot`, usually with a shared
  pool.  Shared pools are accessed through a per-query
  :class:`~repro.storage.buffer.PoolView`, so ``QueryStats`` records this
  query's hit/miss delta; the result's stats carry the snapshot epoch, and
  the ticker (the serving executor's deadline/cancel probe) is invoked on
  every Algorithm 1 heap pop.

A session answers by signature only: its tiers are ``signature`` and
``conservative`` (decided by its reader), and a
:class:`~repro.storage.errors.StorageFault` that escapes the conservative
readers propagates.  Handing such a query to another engine is the job of
the one fallback chain (:mod:`repro.route.fallback`).

Because snapshots are immutable and pools are thread-safe, any number of
sessions — and any number of queries on one session — may run concurrently
from different threads.
"""

from __future__ import annotations

import time
from contextlib import nullcontext
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Sequence

from repro.obs.trace import Tracer
from repro.query.algorithm1 import (
    PrunedList,
    SearchState,
    SkylineStrategy,
    TopKStrategy,
    run_algorithm1,
)
from repro.query.dynamic import DynamicSkylineStrategy
from repro.query.hull import lower_hull_chain
from repro.query.predicates import BooleanPredicate
from repro.query.ranking import LinearFunction, RankingFunction
from repro.query.stats import QueryStats
from repro.storage.buffer import BufferPool, PoolView
from repro.storage.counters import SBLOCK

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.epoch import Snapshot
    from repro.core.breakers import BreakerBoard


@dataclass
class QueryResult:
    """A completed query plus the state follow-up queries resume from.

    ``resumable`` marks whether ``state`` really carries Lemma 2 search
    state for :meth:`QuerySession.drill_down` / :meth:`QuerySession.roll_up`:
    conjunctive skyline / top-k results produced by Algorithm 1 are
    resumable; dynamic skylines, hulls, DNF queries, answers served by a
    scan or baseline engine and answers replayed from the result cache are
    not (drilling down from them would silently return nothing).
    """

    kind: str  # "skyline" | "topk" | "dynamic_skyline" | "lower_hull"
    #: The conjunction queried — or, for a DNF query, its disjuncts.
    predicate: BooleanPredicate | tuple[BooleanPredicate, ...]
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


def _span(tracer: Tracer | None, name: str, **attrs):
    return tracer.span(name, **attrs) if tracer is not None else nullcontext()


#: A conjunction, or a sequence of conjunctions read as their disjunction.
Predicate = BooleanPredicate | Sequence[BooleanPredicate] | None


def _as_predicate(predicate: Predicate) -> BooleanPredicate | tuple:
    """``None`` → the empty conjunction; a disjunction → a tuple."""
    if predicate is None:
        return BooleanPredicate()
    if isinstance(predicate, BooleanPredicate):
        return predicate
    return tuple(predicate)


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
        epoch: Stamped onto every result's ``stats.epoch`` and the query
            span (serving observability); ``None`` for live sessions.
        ticker: Invoked once per Algorithm 1 heap pop; raises to abort the
            query (deadline/cancellation in the serving executor).
        deadline_at: ``time.perf_counter()`` instant this session's queries
            must finish by.  Storage retries spend from what remains of it
            (a backoff that would outspend the budget is skipped and the
            fault surfaces immediately); the ticker still enforces the
            deadline itself.
        breakers: A :class:`~repro.core.breakers.BreakerBoard` shared
            across the serving deployment; partial loads consult it and an
            open breaker short-circuits straight to the degraded path.
    """

    def __init__(
        self,
        relation,
        rtree,
        pcube,
        pool: BufferPool | None = None,
        pool_capacity: int = 4096,
        epoch: int | None = None,
        ticker: Callable[[], None] | None = None,
        deadline_at: float | None = None,
        breakers: "BreakerBoard | None" = None,
    ) -> None:
        self.relation = relation
        self.rtree = rtree
        self.pcube = pcube
        self.pool = pool
        self.pool_capacity = pool_capacity
        self.epoch = epoch
        self.ticker = ticker
        self.deadline_at = deadline_at
        self.breakers = breakers

    @classmethod
    def for_snapshot(
        cls,
        snapshot: "Snapshot",
        pool: BufferPool | None = None,
        pool_capacity: int = 4096,
        ticker: Callable[[], None] | None = None,
        deadline_at: float | None = None,
        breakers: "BreakerBoard | None" = None,
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
            epoch=snapshot.epoch,
            ticker=ticker,
            deadline_at=deadline_at,
            breakers=breakers,
        )

    # ------------------------------------------------------------------ #
    # pool policy
    # ------------------------------------------------------------------ #

    def query_pool(self) -> BufferPool | PoolView:
        """Cold private pool, or a per-query view of the shared one."""
        if self.pool is None:
            return BufferPool(self.rtree.disk, capacity=self.pool_capacity)
        return PoolView(self.pool)

    def finish_pool(self, pool: BufferPool | PoolView, stats: QueryStats) -> None:
        """Record this query's buffer delta."""
        stats.pool_hits = pool.hits
        stats.pool_misses = pool.misses

    # ------------------------------------------------------------------ #
    # the query kinds: what each hands the runner
    # ------------------------------------------------------------------ #

    def subspace(
        self, preference_by: tuple[str, ...] | None
    ) -> tuple[int, ...] | None:
        """The preference positions a ``preference by`` list names."""
        if preference_by is None:
            return None
        return tuple(
            self.relation.schema.preference_position(name)
            for name in preference_by
        )

    def _skyline_strategy(
        self, preference_by: tuple[str, ...] | None
    ) -> SkylineStrategy:
        return SkylineStrategy(
            self.rtree.dims, subspace=self.subspace(preference_by)
        )

    def skyline(
        self,
        predicate: Predicate = None,
        preference_by: tuple[str, ...] | None = None,
        tracer: Tracer | None = None,
        keep_lists: bool = True,
    ) -> QueryResult:
        """A standard skyline query (Algorithm 1 from the root).

        ``predicate`` is a conjunction, or a sequence of conjunctions read
        as their disjunction (signature union, paper Fig. 3b; see
        :meth:`~repro.core.pcube.ReaderFactory.reader_for_dnf`).
        ``preference_by`` restricts the skyline to a subset of preference
        dimensions by name (Section III's
        ``preference by N'1, ..., N'j``).  Pass a
        :class:`~repro.obs.trace.Tracer` to capture the span tree and
        prune/load events of the execution.  ``keep_lists=False`` skips the
        Lemma 2 lists (saves memory; the result cannot be resumed, nor can
        a disjunction's).
        """
        predicate = _as_predicate(predicate)
        return self._answer(
            "skyline",
            predicate,
            self._skyline_strategy(preference_by),
            tracer,
            keep_lists=keep_lists,
            resumable=keep_lists and isinstance(predicate, BooleanPredicate),
            preference_by=preference_by,
        )

    def topk(
        self,
        fn: RankingFunction,
        k: int,
        predicate: Predicate = None,
        tracer: Tracer | None = None,
        keep_lists: bool = True,
    ) -> QueryResult:
        """A standard top-k query (Section V-B): best-first by the lower
        bound of ``fn`` over each node, k-th-score preference pruning.
        ``predicate`` reads as in :meth:`skyline`."""
        predicate = _as_predicate(predicate)
        return self._answer(
            "topk",
            predicate,
            TopKStrategy(fn, k),
            tracer,
            keep_lists=keep_lists,
            resumable=keep_lists and isinstance(predicate, BooleanPredicate),
            fn=fn,
            k=k,
        )

    def dynamic_skyline(
        self,
        query_point: Sequence[float],
        predicate: BooleanPredicate | None = None,
        tracer: Tracer | None = None,
    ) -> QueryResult:
        """A dynamic skyline query (Section VII extension): the skyline in
        the ``|x − query_point|`` space."""
        if len(query_point) != self.rtree.dims:
            raise ValueError(
                f"query point has {len(query_point)} dims, "
                f"tree has {self.rtree.dims}"
            )
        return self._answer(
            "dynamic_skyline",
            predicate or BooleanPredicate(),
            DynamicSkylineStrategy(query_point),
            tracer,
            resumable=False,
        )

    def lower_hull(
        self,
        predicate: BooleanPredicate | None = None,
        tracer: Tracer | None = None,
    ) -> QueryResult:
        """A 2-D lower-left convex hull query (Section VII extension):
        hull-vertex tids by increasing x, stats aggregated over every
        extreme-point search (each one a top-1 run on the same reader)."""
        if self.rtree.dims != 2:
            raise ValueError("lower_hull supports 2-D preference spaces")
        predicate = predicate or BooleanPredicate()

        def search(algorithm1, reader, stats):
            def extreme(weights):
                found = algorithm1(
                    TopKStrategy(LinearFunction(weights), k=1),
                    keep_lists=False,
                ).results
                if not found:
                    return None
                return found[0].tid, (found[0].point[0], found[0].point[1])

            return lower_hull_chain(extreme)

        tids, stats = self._run("lower_hull", predicate, search, tracer)
        stats.results = len(tids)
        return QueryResult(
            kind="lower_hull",
            predicate=predicate,
            tids=tids,
            scores=None,
            stats=stats,
            state=SearchState(),
            resumable=False,
        )

    # ------------------------------------------------------------------ #
    # incremental queries (Lemma 2)
    # ------------------------------------------------------------------ #

    def drill_down(
        self,
        previous: QueryResult,
        dim: str,
        value: Any,
        tracer: Tracer | None = None,
    ) -> QueryResult:
        """Strengthen the previous query's predicate by one conjunct."""
        self._check_resumable(previous)
        state = previous.state
        return self._resume(
            previous,
            previous.predicate.drill_down(dim, value),
            "drill",
            state.results + state.d_list + state.heap,
            state.b_list,
            {id(entry) for entry in state.d_list},
            tracer,
        )

    def roll_up(
        self, previous: QueryResult, dim: str, tracer: Tracer | None = None
    ) -> QueryResult:
        """Relax the previous query's predicate by removing one conjunct."""
        self._check_resumable(previous)
        state = previous.state
        return self._resume(
            previous,
            previous.predicate.roll_up(dim),
            "roll",
            state.results + state.b_list + state.heap,
            state.d_list,
            frozenset(),
            tracer,
        )

    @staticmethod
    def _check_resumable(previous: QueryResult) -> None:
        if not previous.resumable:
            raise ValueError(
                f"cannot drill-down/roll-up from this {previous.kind!r} "
                f"result (served by {previous.stats.tier!r}): only "
                "conjunctive skyline / top-k answers produced by Algorithm 1 "
                "keep Lemma 2 search state; re-run the query from scratch"
            )

    def _resume(
        self, previous, predicate, mode, carried, kept, dominated, tracer
    ) -> QueryResult:
        strategy = (
            self._skyline_strategy(previous.preference_by)
            if previous.kind == "skyline"
            else TopKStrategy(previous.fn, previous.k)
        )
        return self._answer(
            previous.kind,
            predicate,
            strategy,
            tracer,
            resume=(mode, carried, list(kept), dominated),
            fn=previous.fn,
            k=previous.k,
            preference_by=previous.preference_by,
        )

    @staticmethod
    def _resume_state(resume, reader, stats, tracer) -> SearchState:
        """Rebuild the candidate heap from a previous query's lists.

        Carried entries are pre-filtered with the new predicate's
        signature, as the paper suggests, to keep the rebuilt heap small
        (failures go straight to the new ``b_list``).
        """
        mode, carried, kept_list, dominated = resume
        state = SearchState()
        if mode == "drill":
            state.b_list = PrunedList(kept_list)  # still fail the stronger BP
        else:
            state.d_list = PrunedList(kept_list)  # still dominated
        state.seq = max((entry.seq for entry in carried), default=0)
        with _span(tracer, "resume:prefilter", mode=mode):
            for entry in carried:
                if reader is None or reader.check_path(entry.path):
                    state.heap.append(entry)
                    continue
                state.b_list.append(entry)
                stats.boolean_pruned += 1
                if tracer is not None:
                    # A carried entry the old query already
                    # preference-pruned that the new signature rejects too
                    # fails both arms.
                    arm = "both" if id(entry) in dominated else "bool"
                    tracer.prune(arm, path=entry.path, key=entry.key)
        return state

    # ------------------------------------------------------------------ #
    # the runner
    # ------------------------------------------------------------------ #

    def _answer(
        self,
        kind: str,
        predicate,
        strategy,
        tracer: Tracer | None,
        resume=None,
        keep_lists: bool = True,
        **result_fields,
    ) -> QueryResult:
        """One Algorithm 1 search (fresh or resumed) → a :class:`QueryResult`."""

        def search(algorithm1, reader, stats):
            state = None
            if resume is not None:
                state = self._resume_state(resume, reader, stats, tracer)
            return algorithm1(strategy, state, keep_lists)

        final_state, stats = self._run(
            kind, predicate, search, tracer, incremental=resume is not None
        )
        reported = [e for e in final_state.results if e.tid is not None]
        return QueryResult(
            kind=kind,
            predicate=predicate,
            tids=[e.tid for e in reported],
            scores=[e.key for e in reported] if kind == "topk" else None,
            stats=stats,
            state=final_state,
            **result_fields,
        )

    def _run(
        self,
        kind: str,
        predicate,
        search: Callable,
        tracer: Tracer | None,
        incremental: bool = False,
    ) -> tuple[Any, QueryStats]:
        """Set up one signature-method query, run ``search``, stamp it.

        ``search(algorithm1, reader, stats)`` is the kind-specific part:
        ``algorithm1(strategy, state=None, keep_lists=True)`` runs (or
        resumes) Algorithm 1 on this query's reader, pool, stats, tracer
        and ticker, as many times as the kind needs.  Returns ``search``'s
        value and the stamped stats, which the readers bumped as they
        went.  A storage fault the conservative readers cannot absorb
        propagates, with this attempt's stats as its ``stats`` attribute.
        """
        stats = QueryStats()
        stats.epoch = self.epoch
        pool = self.query_pool()
        if tracer is not None and tracer.counters is None:
            tracer.counters = stats.counters
        span_attrs = {"predicate": repr(predicate), "incremental": incremental}
        if self.epoch is not None:
            span_attrs["epoch"] = self.epoch
        try:
            with _span(tracer, f"query:{kind}", **span_attrs):
                started = time.perf_counter()
                with _span(tracer, "reader:setup"):
                    reader = self._reader(predicate, pool, stats, tracer)

                def algorithm1(strategy, state=None, keep_lists=True):
                    return run_algorithm1(
                        self.rtree,
                        strategy,
                        stats,
                        reader=reader,
                        pool=pool,
                        block_category=SBLOCK,
                        state=state,
                        keep_lists=keep_lists,
                        tracer=tracer,
                        ticker=self.ticker,
                    )

                outcome = search(algorithm1, reader, stats)
                stats.elapsed_seconds = time.perf_counter() - started
        except Exception as failure:
            # The fallback chain adds what this attempt spent to the
            # answer that replaces it.
            failure.stats = stats
            raise
        finally:
            self.finish_pool(pool, stats)
        # Tiers 1-2 are the reader's doing: it either pruned with every
        # partial it wanted or answered some bit tests conservatively.
        stats.tier = "conservative" if stats.degraded else "signature"
        return outcome, stats

    def _reader(self, predicate, pool, stats, tracer):
        """The boolean-prune reader: conjunctive, or any-of for a DNF."""
        conjunctive = isinstance(predicate, BooleanPredicate)
        if conjunctive and predicate.is_empty():
            return None
        plumbing = {
            "tracer": tracer,
            "deadline_at": self.deadline_at,
            "breakers": self.breakers,
            "epoch": self.epoch,
        }
        if not conjunctive:
            return self.pcube.reader_for_dnf(predicate, pool, stats, **plumbing)
        return self.pcube.reader_for_predicate(
            predicate.conjuncts, pool, stats, **plumbing
        )
