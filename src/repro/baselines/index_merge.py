"""The Index-merge baseline for top-k queries (after Xin et al. [14]).

Section VI-A: "We build B+-tree indices on boolean dimensions, and R-tree
index on preference dimensions.  Given a query with boolean predicates, we
join all corresponding indices.  The ranking function is re-formulated as
follows: if a data satisfies boolean predicates, the function value on
preference dimensions is returned.  Otherwise, it returns MAX value."

Concretely this joins the boolean⋈preference search *online*: candidates
stream out of the R-tree in score order, and boolean membership is decided
from the B+-tree indexes.  The "progressive and selective" merging of [14]
appears as the per-query choice between two merge plans:

* **merge** — read the full posting list of every conjunct (``BINDEX``
  pages), intersect them into a membership set, then filter candidates for
  free;
* **probe** — verify each streamed candidate by descending each conjunct's
  B+-tree (``BINDEX`` pages per probe).

The planner picks whichever is estimated cheaper — long posting lists with
small k favour probing, short ones favour merging.  Either way the join is
paid per query; P-Cube's point (Figure 13) is that the signature
*materialises the joint space offline*, so it never pays it.
"""

from __future__ import annotations

import time
from typing import Iterable, Sequence

import numpy as np

from repro.btree.btree import BPlusTree
from repro.cube.relation import Relation
from repro.query.algorithm1 import TopKStrategy, run_algorithm1
from repro.query.predicates import BooleanPredicate
from repro.query.ranking import RankingFunction
from repro.query.stats import QueryStats
from repro.rtree.rtree import RTree
from repro.storage.buffer import BufferPool
from repro.storage.counters import BINDEX, DBLOCK


def _estimate_posting_pages(
    relation: Relation, index: BPlusTree
) -> float:
    distinct = sum(1 for _ in index.distinct_keys())
    expected_posting = len(relation) / max(1, distinct)
    return expected_posting / max(1, index.order // 2)


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
    relation: Relation,
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
        # --- selective step: pick the merge plan ----------------------- #
        merge_cost = sum(
            _estimate_posting_pages(relation, indexes[dim])
            for dim, _ in conjuncts
        )
        expected_selectivity = 1.0
        for dim, _ in conjuncts:
            distinct = sum(1 for _ in indexes[dim].distinct_keys())
            expected_selectivity /= max(1, distinct)
        expected_candidates = (
            k / expected_selectivity if expected_selectivity > 0 else len(relation)
        )
        probe_cost = (
            expected_candidates
            * sum(indexes[dim].height() for dim, _ in conjuncts)
        )

        if merge_cost <= probe_cost:
            # --- merge: intersect full posting lists ------------------- #
            qualifying = intersect_postings(
                indexes[dim].search(
                    value, pool, stats.counters, category=BINDEX
                )
                for dim, value in conjuncts
            )

            def verifier(tid: int) -> bool:
                return tid in qualifying

        else:
            # --- probe: per-candidate index descents ------------------- #
            def verifier(tid: int) -> bool:
                for dim, value in conjuncts:
                    found = indexes[dim].search(
                        value, pool, stats.counters, category=BINDEX
                    )
                    if tid not in found:
                        return False
                return True

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
        keep_lists=False,
        ticker=ticker,
    )
    stats.elapsed_seconds = time.perf_counter() - started
    ranked = [(e.tid, e.key) for e in state.results if e.tid is not None]
    return ranked, stats
