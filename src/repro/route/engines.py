"""The five engines, behind one adapter interface.

Each adapter is ``(session, request) -> QueryResult`` and must either
answer exactly or raise :class:`StrategyUnsupported` when the query shape is
outside its contract.  The contracts:

* ``signature`` — Algorithm 1 with P-Cube boolean pruning, via the
  session (its reader-decided ``signature`` / ``conservative`` tiers
  included).  Supports every query shape, and is the only engine for
  dynamic skylines, hulls and disjunctions.
* ``boolean-first`` — the Section VI-A baseline's table-scan arm:
  selection by one counted heap scan, then the preference step in memory,
  reported in Algorithm 1's order; always exact.  It is the serving
  fallback when the search structures fault.
* ``domination-first`` — BBS + minimal probing (*Ranking* for top-k).
  No preference-subspace support (the baseline searches full space).
* ``index-merge`` — refuses every request: the [14] baseline reads
  per-dimension B+-trees, and a served system keeps none.  The figures
  measure :func:`~repro.baselines.index_merge.index_merge_topk` directly,
  over trees they build themselves.
* ``naive`` — the ground-truth scan; supports everything, always last.

Every served read runs :func:`chain_for`'s chain: :data:`SERVING_CHAIN`
for a conjunctive skyline / top-k, ``(signature,)`` for everything else.
``domination-first`` and ``index-merge`` are reached only by handing
:func:`~repro.route.fallback.run_chain` a chain that names them (the
routing sweep's pinned series, the differential and fallback-edge tests).

With the result cache on, answers are canonicalised (:func:`canonicalize`)
before the router caches or returns them: skylines as ascending tids,
top-k sorted by ``(score, tid)``.  Canonical order is what makes a hit and
a computed answer byte-identical — every engine legitimately differs in
*reporting* order, never in the answer set/scores.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.baselines.boolean_first import (
    boolean_first_skyline,
    boolean_first_topk,
    select_tuples,
)
from repro.baselines.domination_first import (
    domination_first_skyline,
    ranking_topk,
)
from repro.baselines.naive import naive_skyline, naive_topk
from repro.query.algorithm1 import SearchState
from repro.query.predicates import BooleanPredicate
from repro.query.session import Predicate, QueryResult, QuerySession
from repro.query.stats import QueryStats

#: Engine names.
SIGNATURE = "signature"
BOOLEAN_FIRST = "boolean-first"
DOMINATION_FIRST = "domination-first"
INDEX_MERGE = "index-merge"
NAIVE = "naive"
#: The chain every served conjunctive skyline / top-k runs down: the
#: paper's method, then the exact scans that survive a faulted search
#: structure (naive is the backstop that needs nothing but the heap).
SERVING_CHAIN = (SIGNATURE, BOOLEAN_FIRST, NAIVE)


class StrategyUnsupported(Exception):
    """The strategy cannot answer this query (e.g. domination-first over a
    preference subspace, or index-merge on a system with no B+-trees)."""

    def __init__(self, strategy: str, reason: str) -> None:
        super().__init__(f"{strategy}: {reason}")
        self.strategy = strategy
        self.reason = reason


@dataclass(frozen=True)
class RouteRequest:
    """One query, described once: the executor builds it, and the router,
    the chain runner and the engines all read this object."""

    kind: str  # "skyline" | "topk" | "dynamic_skyline" | "lower_hull"
    predicate: Predicate  # a conjunction, or a list of them for a DNF
    fn: object | None = None
    k: int | None = None
    preference_by: tuple[str, ...] | None = None
    query_point: tuple[float, ...] | None = None


def chain_for(request: RouteRequest) -> tuple[str, ...]:
    """The chain a served read runs down: :data:`SERVING_CHAIN` for a
    conjunctive skyline / top-k; ``(signature,)`` for dynamic skylines,
    hulls and disjunctions, which no scan engine answers, so a fault in
    the search structures surfaces to the caller."""
    if request.kind in ("skyline", "topk") and isinstance(
        request.predicate, BooleanPredicate
    ):
        return SERVING_CHAIN
    return (SIGNATURE,)


def canonicalize(result: QueryResult) -> QueryResult:
    """Sort the answer into a strategy-independent order, in place."""
    if result.kind == "skyline":
        result.tids = sorted(result.tids)
    elif result.scores is not None:
        pairs = sorted(zip(result.scores, result.tids))
        result.tids = [tid for _, tid in pairs]
        result.scores = [score for score, _ in pairs]
    return result


def stateless_result(
    request: RouteRequest,
    tids: list[int],
    scores: list[float] | None,
    stats: QueryStats,
) -> QueryResult:
    """An answer with no search behind it — a scan engine's, or a cached
    one: no Lemma 2 lists, so a drill-down from it must re-run."""
    stats.results = len(tids)
    return QueryResult(
        kind=request.kind,
        predicate=request.predicate,
        tids=tids,
        scores=scores,
        stats=stats,
        state=SearchState(),
        fn=request.fn,
        k=request.k,
        preference_by=request.preference_by,
        resumable=False,
    )


def _wrap(
    session: QuerySession,
    request: RouteRequest,
    tids: list[int],
    scores: list[float] | None,
    stats: QueryStats,
    tier: str,
) -> QueryResult:
    stats.epoch = session.epoch
    stats.tier = tier
    return stateless_result(request, tids, scores, stats)


# --------------------------------------------------------------------- #
# adapters
# --------------------------------------------------------------------- #


def run_signature(
    session: QuerySession, request: RouteRequest
) -> QueryResult:
    """The session's own signature path — Algorithm 1 with P-Cube bits."""
    if request.kind == "skyline":
        return session.skyline(
            request.predicate, preference_by=request.preference_by
        )
    if request.kind == "topk":
        return session.topk(request.fn, request.k, request.predicate)
    if request.kind == "dynamic_skyline":
        return session.dynamic_skyline(request.query_point, request.predicate)
    return session.lower_hull(request.predicate)


def run_boolean_first(
    session: QuerySession, request: RouteRequest
) -> QueryResult:
    """Boolean selection by table scan first, preference step in memory."""
    relation = session.relation
    if request.kind == "skyline":
        tids, stats = boolean_first_skyline(
            relation,
            {},
            request.predicate,
            ticker=session.ticker,
            subspace=session.subspace(request.preference_by),
        )
        return _wrap(session, request, tids, None, stats, BOOLEAN_FIRST)
    ranked, stats = boolean_first_topk(
        relation,
        {},
        request.fn,
        request.k,
        request.predicate,
        ticker=session.ticker,
    )
    tids = [tid for tid, _ in ranked]
    scores = [score for _, score in ranked]
    return _wrap(session, request, tids, scores, stats, BOOLEAN_FIRST)


def run_domination_first(
    session: QuerySession, request: RouteRequest
) -> QueryResult:
    """BBS + minimal probing (the paper's Domination/Ranking baseline)."""
    if request.preference_by is not None:
        raise StrategyUnsupported(
            DOMINATION_FIRST, "no preference-subspace support"
        )
    pool = session.query_pool()
    if request.kind == "skyline":
        tids, stats, _ = domination_first_skyline(
            session.relation,
            session.rtree,
            request.predicate,
            pool=pool,
            ticker=session.ticker,
        )
        session.finish_pool(pool, stats)
        return _wrap(session, request, tids, None, stats, DOMINATION_FIRST)
    ranked, stats, _ = ranking_topk(
        session.relation,
        session.rtree,
        request.fn,
        request.k,
        request.predicate,
        pool=pool,
        ticker=session.ticker,
    )
    session.finish_pool(pool, stats)
    tids = [tid for tid, _ in ranked]
    scores = [score for _, score in ranked]
    return _wrap(session, request, tids, scores, stats, DOMINATION_FIRST)


def run_index_merge(
    session: QuerySession, request: RouteRequest
) -> QueryResult:
    """The [14] baseline needs per-dimension B+-trees: refused."""
    raise StrategyUnsupported(INDEX_MERGE, "a served system keeps no B+-trees")


def run_naive(
    session: QuerySession, request: RouteRequest
) -> QueryResult:
    """Ground truth: counted scan, literal domination / full sort."""
    stats = QueryStats()
    relation = session.relation
    selected = select_tuples(
        relation, {}, request.predicate, stats, session.ticker
    )
    stats.note_heap(len(selected))
    candidates = [(tid, relation.pref_point(tid)) for tid in selected]
    if request.kind == "skyline":
        subspace = session.subspace(request.preference_by)
        if subspace is not None:
            candidates = [
                (tid, tuple(point[d] for d in subspace))
                for tid, point in candidates
            ]
        tids = naive_skyline(candidates)
        return _wrap(session, request, tids, None, stats, NAIVE)
    ranked = naive_topk(candidates, request.fn, request.k)
    tids = [tid for tid, _ in ranked]
    scores = [score for _, score in ranked]
    return _wrap(session, request, tids, scores, stats, NAIVE)


ENGINES = {
    SIGNATURE: run_signature,
    BOOLEAN_FIRST: run_boolean_first,
    DOMINATION_FIRST: run_domination_first,
    INDEX_MERGE: run_index_merge,
    NAIVE: run_naive,
}
