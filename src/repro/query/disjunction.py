"""Disjunctive boolean predicates via signature union (paper Fig. 3b).

Section IV-B.2 defines *two* assembly operators; intersection serves the
conjunctive queries of the evaluation, while union serves disjunctions —
the paper's own example assembles the ``(A=a2 OR B=b2)`` signature.  This
module processes predicates in disjunctive normal form: a list of
conjunctive :class:`~repro.query.predicates.BooleanPredicate` disjuncts.

Two assembly modes, mirroring the conjunctive ones:

* **lazy** — an any-of reader over the per-disjunct readers: exact at leaf
  slots, conservative at internal nodes;
* **eager** — materialise each disjunct's exact signature (recursive
  intersection over its cover) and fold them with the paper's union
  operator; maximal pruning, higher load cost.
"""

from __future__ import annotations

import time
from typing import Sequence

from repro.core.ops import union_all
from repro.core.pcube import EmptyReader, PCube, SignatureAdapter
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
from repro.storage.counters import SBLOCK


class AnyOfReader:
    """Disjunction of boolean-prune readers (lazy OR)."""

    def __init__(self, readers: Sequence) -> None:
        if not readers:
            raise ValueError("AnyOfReader needs at least one reader")
        self.readers = list(readers)

    @property
    def load_seconds(self) -> float:
        return sum(reader.load_seconds for reader in self.readers)

    @property
    def loads(self) -> int:
        return sum(reader.loads for reader in self.readers)

    def check_entry(self, parent_path, position) -> bool:
        return any(
            reader.check_entry(parent_path, position)
            for reader in self.readers
        )

    def check_block(self, parent_path, wanted: int) -> int | None:
        """Member *k* sees only the entries every member < *k* rejected —
        the per-entry ``any`` short-circuit, a node at a time."""
        passed = 0
        for reader in self.readers:
            if not wanted:
                break
            got = reader.check_block(parent_path, wanted)
            if got is None:
                return None
            passed |= got
            wanted &= ~got
        return passed

    def check_path(self, path) -> bool:
        return any(reader.check_path(path) for reader in self.readers)


def matches_dnf(
    relation: Relation,
    disjuncts: Sequence[BooleanPredicate],
    tid: int,
) -> bool:
    """Ground-truth DNF evaluation (any disjunct matches)."""
    return any(disjunct.matches(relation, tid) for disjunct in disjuncts)


def reader_for_dnf(
    pcube: PCube,
    disjuncts: Sequence[BooleanPredicate],
    pool: BufferPool | None = None,
    counters=None,
    eager: bool = False,
):
    """A boolean-prune reader for ``disjunct_1 OR disjunct_2 OR ...``.

    Returns ``None`` when some disjunct is the empty conjunction ``φ``
    (the disjunction is then a tautology: no pruning possible).
    """
    if not disjuncts:
        raise ValueError("reader_for_dnf needs at least one disjunct")
    if any(disjunct.is_empty() for disjunct in disjuncts):
        return None
    readers = []
    for disjunct in disjuncts:
        reader = pcube.reader_for_predicate(
            disjunct.conjuncts, pool, counters, eager=eager
        )
        if isinstance(reader, EmptyReader):
            continue  # an unsatisfiable disjunct contributes nothing
        readers.append(reader)
    if not readers:
        return EmptyReader()
    if eager:
        # Every eager reader is a SignatureAdapter; fold with the paper's
        # union operator into one exact signature (Fig. 3b).
        signatures = [reader.signature for reader in readers]
        return SignatureAdapter(union_all(signatures))
    if len(readers) == 1:
        return readers[0]
    return AnyOfReader(readers)


def _run_dnf(
    relation: Relation,
    rtree: RTree,
    pcube: PCube,
    disjuncts: Sequence[BooleanPredicate],
    strategy,
    pool: BufferPool | None,
    eager: bool,
) -> tuple[SearchState, QueryStats]:
    stats = QueryStats()
    if pool is None:
        pool = BufferPool(rtree.disk, capacity=4096)
    started = time.perf_counter()
    reader = reader_for_dnf(
        pcube, disjuncts, pool, stats.counters, eager=eager
    )
    state = run_algorithm1(
        rtree,
        strategy,
        stats,
        reader=reader,
        pool=pool,
        block_category=SBLOCK,
    )
    stats.elapsed_seconds = time.perf_counter() - started
    if reader is not None:
        stats.sig_load_seconds = reader.load_seconds
    return state, stats


def skyline_dnf(
    relation: Relation,
    rtree: RTree,
    pcube: PCube,
    disjuncts: Sequence[BooleanPredicate],
    pool: BufferPool | None = None,
    eager_assembly: bool = False,
) -> tuple[list[int], QueryStats]:
    """Skyline over the union of the disjuncts' subsets."""
    state, stats = _run_dnf(
        relation,
        rtree,
        pcube,
        disjuncts,
        SkylineStrategy(dims=rtree.dims),
        pool,
        eager_assembly,
    )
    return [e.tid for e in state.results if e.tid is not None], stats


def topk_dnf(
    relation: Relation,
    rtree: RTree,
    pcube: PCube,
    fn: RankingFunction,
    k: int,
    disjuncts: Sequence[BooleanPredicate],
    pool: BufferPool | None = None,
    eager_assembly: bool = False,
) -> tuple[list[tuple[int, float]], QueryStats]:
    """Top-k over the union of the disjuncts' subsets."""
    state, stats = _run_dnf(
        relation,
        rtree,
        pcube,
        disjuncts,
        TopKStrategy(fn, k),
        pool,
        eager_assembly,
    )
    ranked = [(e.tid, e.key) for e in state.results if e.tid is not None]
    return ranked, stats
