"""The Boolean-first baseline.

Section VI-A: "We use B+-tree to index each boolean dimension.  Given the
boolean predicates, we first select tuples satisfying the boolean
conditions.  This may be conducted by index scan or table scan, and we
report the best performance of the two alternatives.  We then [compute] the
skylines or top-k results."

The access-path choice is made by a textbook cost comparison:

* *index scan* — descend the most selective conjunct's B+-tree, read its
  posting leaves (``BINDEX``), then fetch the distinct heap pages of the
  candidate tids (``BTABLE``) and verify the remaining conjuncts in memory;
* *table scan* — read every heap page once (``BTABLE``), filter in memory.

The preference step runs in memory over the selected subset (SFS for
skylines, a bounded heap for top-k); the baseline's "candidate heap" metric
(Figure 10) is the size of that selected subset — the memory this approach
has to hold regardless of how few answers come out.
"""

from __future__ import annotations

import heapq
import time
from typing import Sequence

import numpy as np

from repro.baselines.skyline_algs import sfs_skyline
from repro.btree.btree import BPlusTree, order_for_page
from repro.cube.relation import Relation
from repro.query.predicates import BooleanPredicate
from repro.query.ranking import RankingFunction
from repro.query.stats import QueryStats
from repro.storage.counters import BINDEX, BTABLE


def build_boolean_indexes(relation: Relation) -> dict[str, BPlusTree]:
    """One B+-tree per boolean dimension, mapping value → tid, on the
    relation's disk (tag ``btree:<dim>``).

    The baselines' structures, built by whoever measures them: a served
    system keeps none.  Each node is sized to fit one page of that disk
    (:func:`~repro.btree.btree.order_for_page`), so a node visit is one
    counted ``BINDEX`` read of one page.
    """
    disk = relation.disk
    order = order_for_page(disk.page_size)
    indexes: dict[str, BPlusTree] = {}
    for dim in relation.schema.boolean_dims:
        tree = BPlusTree(order=order, disk=disk, tag=f"btree:{dim}")
        position = relation.schema.boolean_position(dim)
        tree.bulk_insert(
            (relation.bool_row(tid)[position], tid) for tid in relation.tids()
        )
        indexes[dim] = tree
    return indexes


def _posting_length_estimate(
    relation: Relation, index: BPlusTree
) -> float:
    """Expected tuples per value under a uniform assumption (optimizer
    statistics: table size / distinct keys, a count the tree keeps)."""
    return len(relation) / max(1, index.n_distinct_keys)


def _index_plan_dim(
    relation: Relation,
    indexes: dict[str, BPlusTree],
    predicate: BooleanPredicate,
) -> str | None:
    """The conjunct whose index scan beats a table scan, if any does.

    A textbook cost comparison on optimizer-style estimates; ``None``
    (table scan) when the predicate is empty or there are no postings to
    use — callers pass ``indexes={}`` when the B+-trees are absent or do
    not cover the relation they are answering over.
    """
    if not indexes or predicate.is_empty():
        return None
    best_dim: str | None = None
    best_estimate = float("inf")
    for dim, _ in predicate:
        estimate = _posting_length_estimate(relation, indexes[dim])
        if estimate < best_estimate:
            best_estimate = estimate
            best_dim = dim
    index = indexes[best_dim]
    index_pages = best_estimate / max(1, index.order // 2) + index.height()
    # Cardenas' formula: expected distinct pages hit by k uniform tids.
    n_pages = relation.heap_page_count()
    heap_pages_touched = n_pages * (
        1.0 - (1.0 - 1.0 / n_pages) ** best_estimate
    )
    return best_dim if index_pages + heap_pages_touched < n_pages else None


def select_tuples(
    relation: Relation,
    indexes: dict[str, BPlusTree],
    predicate: BooleanPredicate,
    stats: QueryStats,
    ticker=None,
) -> list[int]:
    """Boolean selection via the cheaper of index scan and table scan.

    This is the one "scan the relation, test the predicate" loop: the
    boolean-first engine, the naive engine and the serving fallback all
    select through it (the latter two with ``indexes={}``, which always
    takes the table-scan arm).

    ``ticker`` (the serving executor's deadline/cancel probe) fires once
    per tuple considered, so routed deadlines apply inside the scan: that
    is the one reason for the per-row loop.  When no ticker is installed,
    scans run page-at-a-time against the columnar projection — identical
    answers and counted ``BTABLE``/``BINDEX`` reads (each heap page is
    read through :meth:`~repro.cube.relation.RelationView.scan_pages`),
    with the per-tuple predicate work vectorized.
    """
    use_vector = ticker is None
    conjuncts = predicate.conjuncts
    index_dim = _index_plan_dim(relation, indexes, predicate)
    if index_dim is not None:
        # Index scan on the most selective dimension, verify the rest.
        candidate_tids = indexes[index_dim].search(
            conjuncts[index_dim], counters=stats.counters, category=BINDEX
        )
        ordered = sorted(candidate_tids)
        keep: list[bool] | None = None
        if use_vector and ordered:
            projection = relation.columnar()
            match = projection.match_mask(conjuncts)
            tids = np.asarray(ordered, dtype=np.int64)
            # Postings outlive rows (no index maintenance on delete), so a
            # tid may point past the projection; those verify False.
            in_range = tids < projection.n
            ok = np.zeros(len(ordered), dtype=bool)
            if bool(in_range.any()):
                valid = tids[in_range]
                ok[in_range] = projection.live[valid] & match[valid]
            keep = ok.tolist()
        selected: list[int] = []
        seen_pages: set[int] = set()
        for index_pos, tid in enumerate(ordered):
            if ticker is not None:
                ticker()
            page = tid // relation.rows_per_page
            if page not in seen_pages:
                seen_pages.add(page)
                stats.counters.record(BTABLE)
            # B+-tree postings keep deleted tids (no index maintenance on
            # delete), so tombstones are filtered here, after paying for
            # the page that proves the row is dead.
            if keep is not None:
                if keep[index_pos]:
                    selected.append(tid)
            elif relation.is_live(tid) and all(
                relation.bool_value(tid, dim) == val
                for dim, val in conjuncts.items()
            ):
                selected.append(tid)
        return selected
    # Table scan (an empty predicate has no conjuncts: every live row).
    if use_vector:
        projection = relation.columnar()
        match = projection.match_mask(conjuncts)
        pages = [
            np.asarray(page, dtype=np.int64)
            for page in relation.scan_pages(stats.counters, BTABLE)
        ]
        if not pages:
            return []
        tids = np.concatenate(pages)
        hits = projection.live[tids] & match[tids]
        return tids[hits].tolist()
    selected = []
    for page in relation.scan_pages(stats.counters, BTABLE):
        for tid in page:
            if not relation.is_live(tid):
                continue
            if ticker is not None:
                ticker()
            if all(
                relation.bool_value(tid, dim) == val
                for dim, val in conjuncts.items()
            ):
                selected.append(tid)
    return selected


def _gather_points(
    relation: Relation,
    tids: Sequence[int],
    ticker,
    subspace: Sequence[int] | None = None,
):
    """Preference points for the selected tids, projected onto the
    ``subspace`` positions when a ``preference by`` names some.

    Where :func:`select_tuples` ran vectorised (no ticker) this is a
    columnar gather returning the float64 matrix itself — downstream
    kernels (``score_block``, SFS) take it without per-row tuple copies.  Otherwise exact-float tuples, fetched per tid: under a
    serving ticker nothing else touches the projection, and rebuilding it
    after every write to gather a few hundred rows costs more than the
    scan that selected them.
    """
    if ticker is None and tids:
        block = relation.columnar().pref_block(tids)
        return block if subspace is None else block[:, list(subspace)]
    points = [relation.pref_point(tid) for tid in tids]
    if subspace is None:
        return points
    return [tuple(point[d] for d in subspace) for point in points]


def boolean_first_skyline(
    relation: Relation,
    indexes: dict[str, BPlusTree],
    predicate: BooleanPredicate,
    ticker=None,
    subspace: Sequence[int] | None = None,
) -> tuple[list[int], QueryStats]:
    """Boolean-then-preference skyline, reported in SFS order — which is
    Algorithm 1's ``(Σ point, point, tid)``."""
    stats = QueryStats()
    started = time.perf_counter()
    candidates = select_tuples(relation, indexes, predicate, stats, ticker)
    stats.note_heap(len(candidates))
    gathered = _gather_points(relation, candidates, ticker, subspace)
    # A columnar matrix goes to SFS as it is, next to the (tid, row) pairs.
    tids = sfs_skyline(
        list(zip(candidates, gathered)),
        matrix=None if isinstance(gathered, list) else gathered,
    )
    stats.results = len(tids)
    stats.elapsed_seconds = time.perf_counter() - started
    return tids, stats


def boolean_first_topk(
    relation: Relation,
    indexes: dict[str, BPlusTree],
    fn: RankingFunction,
    k: int,
    predicate: BooleanPredicate,
    ticker=None,
) -> tuple[list[tuple[int, float]], QueryStats]:
    """Boolean-then-preference top-k."""
    stats = QueryStats()
    started = time.perf_counter()
    candidates = select_tuples(relation, indexes, predicate, stats, ticker)
    stats.note_heap(len(candidates))
    scores = fn.score_block(_gather_points(relation, candidates, ticker))
    best = heapq.nsmallest(k, zip(scores, candidates))
    ranked = [(tid, score) for score, tid in best]
    stats.results = len(ranked)
    stats.elapsed_seconds = time.perf_counter() - started
    return ranked, stats
