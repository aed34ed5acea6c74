"""Skyline queries with boolean predicates — the Signature method."""

from __future__ import annotations

from repro.core.pcube import PCube
from repro.cube.relation import Relation
from repro.obs.trace import Tracer
from repro.query.algorithm1 import SearchState
from repro.query.predicates import BooleanPredicate
from repro.query.session import QuerySession
from repro.query.stats import QueryStats
from repro.rtree.rtree import RTree
from repro.storage.buffer import BufferPool


def skyline_signature(
    relation: Relation,
    rtree: RTree,
    pcube: PCube,
    predicate: BooleanPredicate | None = None,
    pool: BufferPool | None = None,
    keep_lists: bool = True,
    preference_by: tuple[str, ...] | None = None,
    tracer: Tracer | None = None,
) -> tuple[list[int], QueryStats, SearchState]:
    """The paper's skyline query processing (Algorithm 1 + signatures).

    Args:
        relation: Base table (only consulted for dimensionality here; the
            search runs entirely on the R-tree and signatures).
        rtree: Shared partition template.
        pcube: The signature cube.
        predicate: Boolean conjunction; ``None``/empty disables boolean
            pruning (plain BBS behaviour, still I/O optimal).
        pool: Buffer pool; a fresh (cold) one is created when omitted.
        keep_lists: Maintain the Lemma 2 lists for drill-down / roll-up.
        preference_by: Optional subset of preference-dimension *names* to
            compute the skyline over (Section III's ``preference by N'1,
            ..., N'j``); default is all preference dimensions.

    Returns:
        ``(tids, stats, state)`` — skyline tids in discovery (key) order.
    """
    result = QuerySession(relation, rtree, pcube, pool=pool).skyline(predicate, preference_by, tracer, keep_lists=keep_lists)
    return result.tids, result.stats, result.state
