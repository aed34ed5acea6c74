"""Query sessions: the one place a signature-method query is set up and run.

The paper presents Algorithm 1 as *one* framework whose query kinds differ
only in the preference-pruning strategy (Section V; Section VII adds
dynamic skylines and convex hulls "easily").  :class:`QuerySession` is that
framework's single driver: :meth:`QuerySession._run` builds the per-query
context — stats, buffer pool, retry budget, quarantine-aware signature
reader, ticker — runs the search and stamps the outcome, and every
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
  still qualify, so everything they dominated stays dominated (as does a
  carried entry one of them dominates, or that their k-th score beats:
  it joins ``d_list`` before its bit is tested), while boolean-pruned
  entries may now qualify.

Top-k searches terminate early and may leave pending heap entries; those
are carried over too (they were neither pruned nor reported).  A search
records the lists and the pending heap lazily, and reading them turns them
into entries (:class:`~repro.query.algorithm1.SearchState`); the resume
reads them and hands the new search plain lists.

A session owns no mutable state of its own — it binds a (relation, R-tree,
P-Cube) triple, a buffer-pool policy and optional serving hooks, and every
query method produces a fresh :class:`QueryResult`.  A system's sessions
are built by :meth:`QuerySession.for_snapshot` over a published
:class:`~repro.core.epoch.Snapshot` — its frozen tree, relation view and
store view — and differ only in their pool:

* **cold pool** — no shared pool; each query runs on a private
  :class:`~repro.storage.buffer.BufferPool`, so disk-access counts stay a
  pure function of the query (the paper-comparable mode;
  ``PCubeSystem.engine`` is such a session over the snapshot published
  last).
* **shared pool** — the serving executor's, accessed through a per-query
  :class:`~repro.storage.buffer.PoolView`, so ``QueryStats`` records this
  query's hit/miss delta; the ticker (the executor's deadline/cancel
  probe) is invoked on every Algorithm 1 heap pop.

Either way the result's stats carry the snapshot epoch, and a drill-down
or roll-up resumes only a result of the session's own epoch.  A query on
an unpinned snapshot whose pages or row versions later writes reclaimed
raises :class:`~repro.core.epoch.StaleSnapshotError` before it reads.

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

import math
import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Sequence

from repro.query.algorithm1 import (
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


#: Pages of the cold pool a session without a shared pool gives each query.
COLD_POOL_PAGES = 4096

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
        relation, rtree, pcube: The structures to query — a snapshot's
            frozen projections (:meth:`for_snapshot`), or, in tests, any
            objects with the same read protocol.
        pool: A shared :class:`BufferPool` to run against; each query
            observes it through a private :class:`PoolView`.  ``None``
            (the default) gives every query a fresh cold pool of
            :data:`COLD_POOL_PAGES` pages instead.
        epoch: Stamped onto every result's ``stats.epoch`` and checked by
            a drill-down / roll-up.
        ticker: Invoked once per Algorithm 1 heap pop; raises to abort the
            query (deadline/cancellation in the serving executor).
        deadline_at: ``time.perf_counter()`` instant this session's queries
            must finish by.  Storage retries spend from what remains of it
            (a backoff that would outspend the budget is skipped and the
            fault surfaces immediately); the ticker still enforces the
            deadline itself.
    """

    def __init__(
        self,
        relation,
        rtree,
        pcube,
        pool: BufferPool | None = None,
        epoch: int | None = None,
        ticker: Callable[[], None] | None = None,
        deadline_at: float | None = None,
    ) -> None:
        self.relation = relation
        self.rtree = rtree
        self.pcube = pcube
        self.pool = pool
        self.epoch = epoch
        self.ticker = ticker
        self.deadline_at = deadline_at
        #: The snapshot :meth:`for_snapshot` bound, checked readable before
        #: every query (``None`` for a session built by hand).
        self.snapshot: "Snapshot | None" = None

    @classmethod
    def for_snapshot(
        cls,
        snapshot: "Snapshot",
        pool: BufferPool | None = None,
        ticker: Callable[[], None] | None = None,
        deadline_at: float | None = None,
    ) -> "QuerySession":
        """Bind a session to a pinned snapshot's frozen structures.

        The caller keeps the snapshot pinned for the session's lifetime;
        a query on an unpinned snapshot that later writes reclaimed raises
        :class:`~repro.core.epoch.StaleSnapshotError` before it reads.
        """
        session = cls(
            snapshot.relation,
            snapshot.rtree,
            snapshot.pcube,
            pool=pool,
            epoch=snapshot.epoch,
            ticker=ticker,
            deadline_at=deadline_at,
        )
        session.snapshot = snapshot
        return session

    # ------------------------------------------------------------------ #
    # pool policy
    # ------------------------------------------------------------------ #

    def query_pool(self) -> BufferPool | PoolView:
        """Cold private pool, or a per-query view of the shared one."""
        if self.pool is None:
            return BufferPool(self.rtree.disk, capacity=COLD_POOL_PAGES)
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
    ) -> QueryResult:
        """A standard skyline query (Algorithm 1 from the root).

        ``predicate`` is a conjunction, or a sequence of conjunctions read
        as their disjunction (signature union, paper Fig. 3b; see
        :meth:`~repro.core.pcube.ReaderFactory.reader_for_dnf`).
        ``preference_by`` restricts the skyline to a subset of preference
        dimensions by name (Section III's
        ``preference by N'1, ..., N'j``).  A conjunction's result keeps
        the Lemma 2 lists and can be resumed; a disjunction's cannot.
        """
        predicate = _as_predicate(predicate)
        return self._answer(
            "skyline",
            predicate,
            self._skyline_strategy(preference_by),
            resumable=isinstance(predicate, BooleanPredicate),
            preference_by=preference_by,
        )

    def topk(
        self,
        fn: RankingFunction,
        k: int,
        predicate: Predicate = None,
    ) -> QueryResult:
        """A standard top-k query (Section V-B): best-first by the lower
        bound of ``fn`` over each node, k-th-score preference pruning.
        ``predicate`` reads as in :meth:`skyline`.  A function that does
        not fit the tree's dimensions is refused with ``ValueError``."""
        misfit = fn.misfit(self.rtree.dims)
        if misfit is not None:
            raise ValueError(misfit)
        predicate = _as_predicate(predicate)
        return self._answer(
            "topk",
            predicate,
            TopKStrategy(fn, k),
            resumable=isinstance(predicate, BooleanPredicate),
            fn=fn,
            k=k,
        )

    def dynamic_skyline(
        self,
        query_point: Sequence[float],
        predicate: BooleanPredicate | None = None,
    ) -> QueryResult:
        """A dynamic skyline query (Section VII extension): the skyline in
        the ``|x − query_point|`` space."""
        if len(query_point) != self.rtree.dims:
            raise ValueError(
                f"query point has {len(query_point)} dims, "
                f"tree has {self.rtree.dims}"
            )
        if not all(math.isfinite(x) for x in query_point):
            raise ValueError(f"query point must be finite, got {list(query_point)}")
        return self._answer(
            "dynamic_skyline",
            predicate or BooleanPredicate(),
            DynamicSkylineStrategy(query_point),
            resumable=False,
        )

    def lower_hull(
        self,
        predicate: BooleanPredicate | None = None,
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
                    TopKStrategy(LinearFunction(weights), k=1)
                ).results
                if not found:
                    return None
                return found[0].tid, (found[0].point[0], found[0].point[1])

            return lower_hull_chain(extreme)

        tids, stats = self._run(predicate, search)
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
        )

    def roll_up(self, previous: QueryResult, dim: str) -> QueryResult:
        """Relax the previous query's predicate by removing one conjunct."""
        self._check_resumable(previous)
        state = previous.state
        settled = self._strategy_of(previous)
        for entry in state.results:
            settled.add_result(entry)
        carried, dominated = [], []
        for entry in [*state.b_list, *state.heap]:
            entry.vetted = None  # a mark of the old run's buffer
            (dominated if settled.prune(entry) else carried).append(entry)
        return self._resume(
            previous,
            previous.predicate.roll_up(dim),
            "roll",
            state.results + carried,
            state.d_list,
            dominated,
        )

    def _check_resumable(self, previous: QueryResult) -> None:
        if not previous.resumable:
            raise ValueError(
                f"cannot drill-down/roll-up from this {previous.kind!r} "
                f"result (served by {previous.stats.tier!r}): only "
                "conjunctive skyline / top-k answers produced by Algorithm 1 "
                "keep Lemma 2 search state; re-run the query from scratch"
            )
        if previous.stats.epoch != self.epoch:
            # Lemma 2's lists describe the tree and the relation of the
            # epoch they were built at; a write since may have moved,
            # removed or added any tuple they prune.
            raise ValueError(
                f"cannot drill-down/roll-up at epoch {self.epoch} from a "
                f"result of epoch {previous.stats.epoch}: re-run the query "
                "from scratch"
            )

    def _strategy_of(self, previous: QueryResult):
        if previous.kind == "skyline":
            return self._skyline_strategy(previous.preference_by)
        return TopKStrategy(previous.fn, previous.k)

    def _resume(
        self, previous, predicate, mode, carried, kept, dominated=()
    ) -> QueryResult:
        return self._answer(
            previous.kind,
            predicate,
            self._strategy_of(previous),
            resume=(mode, carried, list(kept), dominated),
            fn=previous.fn,
            k=previous.k,
            preference_by=previous.preference_by,
        )

    @staticmethod
    def _resume_state(resume, reader, stats) -> SearchState:
        """Rebuild the candidate heap from a previous query's lists.

        Carried entries are pre-filtered with the new predicate's
        signature, as the paper suggests, to keep the rebuilt heap small
        (failures go straight to the new ``b_list``); a roll-up's entries
        that the old results settle join ``d_list`` as dominance-pruned.
        The state is built from plain lists of entries.
        """
        mode, carried, kept_list, dominated = resume
        heap, failed = [], []
        for entry in carried:
            if reader is None or reader.check_path(entry.path):
                heap.append(entry)
            else:
                failed.append(entry)
        stats.boolean_pruned += len(failed)
        seq = max((entry.seq for entry in carried), default=0)
        if mode == "drill":
            # ``kept_list`` still fails the stronger BP
            return SearchState(heap, kept_list + failed, seq=seq)
        # still dominated, as is what the old results settle
        stats.dominance_pruned += len(dominated)
        return SearchState(heap, failed, [*kept_list, *dominated], seq=seq)

    # ------------------------------------------------------------------ #
    # the runner
    # ------------------------------------------------------------------ #

    def _answer(
        self,
        kind: str,
        predicate,
        strategy,
        resume=None,
        **result_fields,
    ) -> QueryResult:
        """One Algorithm 1 search (fresh or resumed) → a :class:`QueryResult`."""

        def search(algorithm1, reader, stats):
            state = None
            if resume is not None:
                state = self._resume_state(resume, reader, stats)
            return algorithm1(strategy, state)

        final_state, stats = self._run(predicate, search)
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

    def _run(self, predicate, search: Callable) -> tuple[Any, QueryStats]:
        """Set up one signature-method query, run ``search``, stamp it.

        ``search(algorithm1, reader, stats)`` is the kind-specific part:
        ``algorithm1(strategy, state=None)`` runs (or
        resumes) Algorithm 1 on this query's reader, pool, stats and
        ticker, as many times as the kind needs.  Returns ``search``'s
        value and the stamped stats, which the readers bumped as they
        went.  A storage fault the conservative readers cannot absorb
        propagates, with this attempt's stats as its ``stats`` attribute.
        """
        if self.snapshot is not None:
            self.snapshot.check_readable()
        stats = QueryStats()
        stats.epoch = self.epoch
        pool = self.query_pool()
        try:
            started = time.perf_counter()
            reader = self._reader(predicate, pool, stats)

            def algorithm1(strategy, state=None):
                return run_algorithm1(
                    self.rtree,
                    strategy,
                    stats,
                    reader=reader,
                    pool=pool,
                    block_category=SBLOCK,
                    state=state,
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

    def _reader(self, predicate, pool, stats):
        """The boolean-prune reader: conjunctive, or any-of for a DNF."""
        conjunctive = isinstance(predicate, BooleanPredicate)
        if conjunctive and predicate.is_empty():
            return None
        if not conjunctive:
            return self.pcube.reader_for_dnf(
                predicate, pool, stats, self.deadline_at
            )
        return self.pcube.reader_for_predicate(
            predicate.conjuncts, pool, stats, self.deadline_at
        )
