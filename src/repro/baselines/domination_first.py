"""The Domination-first baseline (called *Ranking* for top-k queries).

Section VI-A: "We combine the BBS algorithm [9] and minimal probing method
[3].  ...  The BBS algorithm is similar to Algorithm 1, except that there is
no boolean checking in the prune procedure.  For each candidate result, we
conduct a boolean verification guided by the minimal probing principle:
boolean verification involves randomly accessing data by tid stored in the
R-tree, and we only issue a boolean checking for a tuple in between lines 7
and 8."

So: disk accesses split into R-tree block reads (``DBLOCK``) and random
tuple accesses for verification (``DBOOL``) — the two series of Figure 9 —
and the lazy verification keeps extra candidates in the heap, which is what
inflates this baseline's peak heap size in Figure 10.
"""

from __future__ import annotations

import time

from repro.cube.relation import Relation
from repro.query.algorithm1 import (
    SearchState,
    SkylineStrategy,
    TopKStrategy,
    run_algorithm1,
)
from repro.query.predicates import BooleanPredicate
from repro.query.ranking import RankingFunction
from repro.query.stats import QueryStats
from repro.rtree.rtree import RTree
from repro.storage.buffer import BufferPool
from repro.storage.counters import DBLOCK, DBOOL


def bbs_skyline(
    rtree: RTree,
    pool: BufferPool | None = None,
    stats: QueryStats | None = None,
) -> tuple[list[int], QueryStats]:
    """Plain BBS [9]: progressive skyline with no boolean predicate.

    I/O-optimal in R-tree block reads, as the paper recalls; the base the
    Domination method builds on, and the ``BP = φ`` case of every method.
    """
    stats = stats if stats is not None else QueryStats()
    if pool is None:
        pool = BufferPool(rtree.disk, capacity=4096)
    started = time.perf_counter()
    strategy = SkylineStrategy(dims=rtree.dims)
    state = run_algorithm1(
        rtree,
        strategy,
        stats,
        reader=None,
        pool=pool,
        block_category=DBLOCK,
    )
    stats.elapsed_seconds = time.perf_counter() - started
    return [e.tid for e in state.results if e.tid is not None], stats


def _minimal_probe_verifier(
    relation: Relation,
    predicate: BooleanPredicate,
    stats: QueryStats,
):
    """Boolean verification by random tuple access (one ``DBOOL`` read).

    Probes bypass the buffer pool deliberately: minimal probing's cost
    model — and the paper's ``DBool`` series in Figure 9 — counts every
    verification as one random access.
    """
    requirements = [
        (relation.schema.boolean_position(dim), value)
        for dim, value in predicate
    ]

    def verify(tid: int) -> bool:
        bool_row, _ = relation.fetch(
            tid, counters=stats.counters, category=DBOOL
        )
        return all(bool_row[pos] == value for pos, value in requirements)

    return verify


def domination_first_skyline(
    relation: Relation,
    rtree: RTree,
    predicate: BooleanPredicate,
    pool: BufferPool | None = None,
    ticker=None,
) -> tuple[list[int], QueryStats, SearchState]:
    """BBS + minimal probing for skyline queries with boolean predicates.

    Note the correctness subtlety the implementation honours: a tuple that
    fails verification is *discarded entirely* — it must not prune others,
    because domination only counts within the predicate's subset.  That is
    precisely why this baseline surfaces (and verifies) so many candidates.
    """
    stats = QueryStats()
    if pool is None:
        pool = BufferPool(rtree.disk, capacity=4096)
    started = time.perf_counter()
    strategy = SkylineStrategy(dims=rtree.dims)
    verifier = None
    if not predicate.is_empty():
        verifier = _minimal_probe_verifier(relation, predicate, stats)
    state = run_algorithm1(
        rtree,
        strategy,
        stats,
        reader=None,
        verifier=verifier,
        pool=pool,
        block_category=DBLOCK,
        ticker=ticker,
    )
    stats.elapsed_seconds = time.perf_counter() - started
    tids = [e.tid for e in state.results if e.tid is not None]
    return tids, stats, state


def ranking_topk(
    relation: Relation,
    rtree: RTree,
    fn: RankingFunction,
    k: int,
    predicate: BooleanPredicate,
    pool: BufferPool | None = None,
    ticker=None,
) -> tuple[list[tuple[int, float]], QueryStats, SearchState]:
    """BBS-style best-first top-k + minimal probing (the *Ranking* method)."""
    stats = QueryStats()
    if pool is None:
        pool = BufferPool(rtree.disk, capacity=4096)
    started = time.perf_counter()
    strategy = TopKStrategy(fn, k)
    verifier = None
    if not predicate.is_empty():
        verifier = _minimal_probe_verifier(relation, predicate, stats)
    state = run_algorithm1(
        rtree,
        strategy,
        stats,
        reader=None,
        verifier=verifier,
        pool=pool,
        block_category=DBLOCK,
        ticker=ticker,
    )
    stats.elapsed_seconds = time.perf_counter() - started
    ranked = [
        (e.tid, e.key) for e in state.results if e.tid is not None
    ]
    return ranked, stats, state
