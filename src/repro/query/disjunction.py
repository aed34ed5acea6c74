"""Disjunctive boolean predicates via signature union (paper Fig. 3b).

Section IV-B.2 defines *two* assembly operators; intersection serves the
conjunctive queries of the evaluation, while union serves disjunctions —
the paper's own example assembles the ``(A=a2 OR B=b2)`` signature.  This
module processes predicates in disjunctive normal form: a list of
conjunctive :class:`~repro.query.predicates.BooleanPredicate` disjuncts.

The union is answered on demand by an any-of reader over the
per-disjunct readers, each of them exact (a multi-cell disjunct is an
:class:`~repro.core.store.AssembledReader`), so a bit is set exactly where
:func:`repro.core.ops.union_all` of the disjuncts' full signatures sets it.
"""

from __future__ import annotations

from typing import Sequence

from repro.core.pcube import EmptyReader, PCube
from repro.core.store import MemberReaders
from repro.cube.relation import Relation
from repro.query.predicates import BooleanPredicate
from repro.query.ranking import RankingFunction
from repro.query.stats import QueryStats
from repro.rtree.rtree import RTree
from repro.storage.buffer import BufferPool


class AnyOfReader(MemberReaders):
    """Disjunction of boolean-prune readers (OR on demand)."""

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
    **plumbing,
):
    """A boolean-prune reader for ``disjunct_1 OR disjunct_2 OR ...``.

    ``plumbing`` (tracer, ticket deadline, breaker board, epoch) is handed to
    every per-disjunct ``reader_for_predicate`` unchanged.  Returns
    ``None`` when some disjunct is the empty conjunction ``φ`` (the
    disjunction is then a tautology: no pruning possible).
    """
    if not disjuncts:
        raise ValueError("reader_for_dnf needs at least one disjunct")
    if any(disjunct.is_empty() for disjunct in disjuncts):
        return None
    readers = []
    for disjunct in disjuncts:
        reader = pcube.reader_for_predicate(
            disjunct.conjuncts, pool, counters, **plumbing
        )
        if isinstance(reader, EmptyReader):
            continue  # an unsatisfiable disjunct contributes nothing
        readers.append(reader)
    if not readers:
        return EmptyReader()
    if len(readers) == 1:
        return readers[0]
    return AnyOfReader(readers)


def skyline_dnf(
    relation: Relation,
    rtree: RTree,
    pcube: PCube,
    disjuncts: Sequence[BooleanPredicate],
    pool: BufferPool | None = None,
) -> tuple[list[int], QueryStats]:
    """Skyline over the union of the disjuncts' subsets."""
    from repro.query.session import QuerySession

    result = QuerySession(relation, rtree, pcube, pool=pool).skyline_dnf(
        disjuncts
    )
    return result.tids, result.stats


def topk_dnf(
    relation: Relation,
    rtree: RTree,
    pcube: PCube,
    fn: RankingFunction,
    k: int,
    disjuncts: Sequence[BooleanPredicate],
    pool: BufferPool | None = None,
) -> tuple[list[tuple[int, float]], QueryStats]:
    """Top-k over the union of the disjuncts' subsets."""
    from repro.query.session import QuerySession

    result = QuerySession(relation, rtree, pcube, pool=pool).topk_dnf(
        fn, k, disjuncts
    )
    return list(zip(result.tids, result.scores)), result.stats
