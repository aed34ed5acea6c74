"""The Index-merge baseline for top-k queries (after Xin et al. [14]).

Section VI-A: "We build B+-tree indices on boolean dimensions, and R-tree
index on preference dimensions.  Given a query with boolean predicates, we
join all corresponding indices.  The ranking function is re-formulated as
follows: if a data satisfies boolean predicates, the function value on
preference dimensions is returned.  Otherwise, it returns MAX value."

Concretely this joins the boolean⋈preference search *online*: candidates
stream out of the R-tree in score order (the "progressive" half of [14]),
and boolean membership is decided from the B+-tree indexes (the
"selective" half): the full posting list of every conjunct is read
(``BINDEX`` pages) and intersected into a membership set, so candidates
are filtered for free.  The join is paid per query; P-Cube's point
(Figure 13) is that the signature *materialises the joint space offline*,
so it never pays it.
"""

from __future__ import annotations

import time
from typing import Iterable, Sequence

import numpy as np

from repro.btree.btree import BPlusTree
from repro.query.algorithm1 import TopKStrategy, run_algorithm1
from repro.query.predicates import BooleanPredicate
from repro.query.ranking import RankingFunction
from repro.query.stats import QueryStats
from repro.rtree.rtree import RTree
from repro.storage.buffer import BufferPool
from repro.storage.counters import BINDEX, DBLOCK


def intersect_postings(postings: Iterable[Sequence[int]]) -> set[int]:
    """The tids on every posting list.

    ``postings`` is consumed lazily and left at the first empty
    intersection, so the posting lists after it are never read — and
    never counted as ``BINDEX`` pages.
    """
    merged = None
    for posting in postings:
        arr = np.asarray(posting, dtype=np.int64)
        merged = (
            np.unique(arr) if merged is None else np.intersect1d(merged, arr)
        )
        if merged.size == 0:
            break
    return set(merged.tolist()) if merged is not None else set()


def index_merge_topk(
    rtree: RTree,
    indexes: dict[str, BPlusTree],
    fn: RankingFunction,
    k: int,
    predicate: BooleanPredicate,
    pool: BufferPool | None = None,
    ticker=None,
) -> tuple[list[tuple[int, float]], QueryStats]:
    """Progressive + selective index-merge top-k."""
    stats = QueryStats()
    if pool is None:
        pool = BufferPool(rtree.disk, capacity=4096)
    started = time.perf_counter()

    conjuncts = list(predicate)
    verifier = None
    if conjuncts:
        # --- selective step: intersect full posting lists -------------- #
        qualifying = intersect_postings(
            indexes[dim].search(value, pool, stats.counters, category=BINDEX)
            for dim, value in conjuncts
        )

        def verifier(tid: int) -> bool:
            return tid in qualifying

    # --- progressive step: stream candidates in score order ------------ #
    strategy = TopKStrategy(fn, k)
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
    ranked = [(e.tid, e.key) for e in state.results if e.tid is not None]
    return ranked, stats
