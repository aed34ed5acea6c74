"""Bloom signatures: conservative pruning, exact query results."""

import pytest

from repro.baselines.naive import naive_skyline
from repro.core.bloom_sig import BloomConjunction, BloomSignature
from repro.core.signature import Signature
from repro.data.workload import sample_predicate
from repro.query.algorithm1 import SkylineStrategy, run_algorithm1
from repro.query.stats import QueryStats

FANOUT = 4


def test_no_false_negatives_on_set_bits():
    paths = [(1, 2, 3), (2, 1, 1), (4, 4, 4)]
    signature = Signature.from_paths(paths, FANOUT)
    bloom = BloomSignature.from_signature(signature)
    for path in paths:
        assert bloom.check_path(path)
        for i in range(1, len(path)):
            assert bloom.check_path(path[:i])


def test_empty_signature_rejects_everything():
    bloom = BloomSignature.from_signature(Signature(FANOUT))
    assert not bloom.check_path(())
    assert not bloom.check_path((1, 1))
    assert not bloom.check_block((), 0b1)


def test_nonempty_root_check():
    bloom = BloomSignature.from_signature(
        Signature.from_paths([(1, 1)], FANOUT)
    )
    assert bloom.check_path(())


def test_size_much_smaller_than_exact(small_system):
    from repro.cube.cuboid import Cell

    cell = Cell(("A1",), (0,))
    signature = small_system.pcube.signature_of(cell)
    bloom = BloomSignature.from_signature(signature, fp_rate=0.05)
    from repro.core.partial import decompose

    exact_bytes = sum(
        p.size_bytes
        for p in decompose(signature, small_system.disk.page_size)
    )
    assert bloom.size_bytes() < exact_bytes


def test_conjunction_requires_signatures():
    with pytest.raises(ValueError):
        BloomConjunction([])


def test_query_results_exact_despite_false_positives(small_system, rng):
    """Dropping the Bloom reader into Algorithm 1 must keep skyline answers
    exact: false positives cost block reads, never wrong results."""
    relation = small_system.relation
    for _ in range(3):
        predicate = sample_predicate(relation, 2, rng)
        blooms = [
            BloomSignature.from_signature(
                small_system.pcube.signature_of(cell), fp_rate=0.05
            )
            for cell in predicate.atomic_cells()
        ]
        reader = BloomConjunction(blooms)
        stats = QueryStats()
        state = run_algorithm1(
            small_system.engine.rtree,
            SkylineStrategy(small_system.rtree.dims),
            stats,
            reader=reader,
            verifier=lambda tid: predicate.matches(relation, tid),
        )
        expected = set(
            naive_skyline(
                [
                    (tid, relation.pref_point(tid))
                    for tid in relation.tids()
                    if predicate.matches(relation, tid)
                ]
            )
        )
        assert {e.tid for e in state.results} == expected


def test_bloom_reads_at_least_as_many_blocks_as_exact(small_system, rng):
    predicate = sample_predicate(small_system.relation, 1, rng)
    (cell,) = predicate.atomic_cells()
    signature = small_system.pcube.signature_of(cell)

    from repro.core.readers import SignatureAdapter

    exact_stats = QueryStats()
    run_algorithm1(
        small_system.engine.rtree,
        SkylineStrategy(2),
        exact_stats,
        reader=SignatureAdapter(signature),
    )
    bloom_stats = QueryStats()
    run_algorithm1(
        small_system.engine.rtree,
        SkylineStrategy(2),
        bloom_stats,
        reader=BloomSignature.from_signature(signature, fp_rate=0.2),
        verifier=lambda tid: predicate.matches(small_system.relation, tid),
    )
    assert bloom_stats.nodes_expanded >= exact_stats.nodes_expanded
