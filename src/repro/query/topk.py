"""Top-k queries with boolean predicates — the Signature method."""

from __future__ import annotations

from repro.core.pcube import PCube
from repro.cube.relation import Relation
from repro.obs.trace import Tracer
from repro.query.algorithm1 import SearchState
from repro.query.predicates import BooleanPredicate
from repro.query.ranking import RankingFunction
from repro.query.session import QuerySession
from repro.query.stats import QueryStats
from repro.rtree.rtree import RTree
from repro.storage.buffer import BufferPool


def topk_signature(
    relation: Relation,
    rtree: RTree,
    pcube: PCube,
    fn: RankingFunction,
    k: int,
    predicate: BooleanPredicate | None = None,
    pool: BufferPool | None = None,
    keep_lists: bool = True,
    tracer: Tracer | None = None,
) -> tuple[list[tuple[int, float]], QueryStats, SearchState]:
    """Top-k processing per Section V-B: best-first by the lower bound of
    ``fn`` over each node, k-th-score preference pruning, signature-based
    boolean pruning.

    Returns:
        ``(ranked, stats, state)`` where ``ranked`` is a list of
        ``(tid, score)`` in non-decreasing score order (ties arbitrary), of
        length ``min(k, |qualifying tuples|)``.
    """
    result = QuerySession(relation, rtree, pcube, pool=pool).topk(fn, k, predicate, tracer, keep_lists=keep_lists)
    return list(zip(result.tids, result.scores)), result.stats, result.state
