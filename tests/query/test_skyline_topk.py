"""Signature-method queries against ground truth, across configurations."""

import random

import pytest

from repro.baselines.naive import naive_skyline, naive_topk
from repro.core.ops import intersect_all
from repro.core.readers import AssembledReader, SignatureAdapter
from repro.data.workload import sample_linear_function, sample_predicate
from repro.query.algorithm1 import SkylineStrategy, run_algorithm1
from repro.query.predicates import BooleanPredicate
from repro.query.stats import QueryStats


def truth_points(system, predicate):
    relation = system.relation
    return [
        (tid, relation.pref_point(tid))
        for tid in relation.tids()
        if predicate.matches(relation, tid)
    ]


@pytest.mark.parametrize("n_conjuncts", [0, 1, 2, 3])
def test_skyline_matches_naive(small_system, rng, n_conjuncts):
    for trial in range(3):
        if n_conjuncts:
            predicate = sample_predicate(small_system.relation, n_conjuncts, rng)
        else:
            predicate = BooleanPredicate()
        result = small_system.engine.skyline(predicate)
        expected = set(naive_skyline(truth_points(small_system, predicate)))
        assert set(result.tids) == expected
        assert result.stats.results == len(expected)


def _search_with(system, reader):
    stats = QueryStats()
    state = run_algorithm1(
        system.engine.rtree, SkylineStrategy(system.rtree.dims), stats,
        reader=reader,
    )
    return [entry.tid for entry in state.results], stats


def test_assembled_skyline_reads_the_exact_intersections_blocks(small_system, rng):
    """A multi-predicate read expands exactly the nodes a search on the
    materialised recursive intersection (Fig. 3) expands, never more than
    the plain AND of the members, and strictly fewer somewhere."""
    pcube = small_system.pcube
    saved = 0
    for n_conjuncts in (2, 2, 2, 3, 3):
        predicate = sample_predicate(small_system.relation, n_conjuncts, rng)
        cells = predicate.atomic_cells()
        result = small_system.engine.skyline(predicate)
        tids, stats = result.tids, result.stats
        exact_tids, exact = _search_with(
            small_system,
            SignatureAdapter(
                intersect_all(
                    [pcube.store.load_full_signature(cell) for cell in cells]
                )
            ),
        )
        plain_tids, plain = _search_with(
            small_system,
            AssembledReader([pcube.store.reader(cell) for cell in cells], 0),
        )
        assert tids == exact_tids == plain_tids
        assert stats.sblock == exact.sblock <= plain.sblock
        assert stats.boolean_pruned == exact.boolean_pruned
        saved += plain.sblock - stats.sblock
    assert saved > 0


def test_skyline_empty_selection(small_system):
    predicate = BooleanPredicate({"A1": 999})
    result = small_system.engine.skyline(predicate)
    assert result.tids == []
    # The root entry is boolean-pruned immediately: no R-tree blocks read.
    assert result.stats.sblock == 0


@pytest.mark.parametrize("k", [1, 5, 20, 100])
def test_topk_matches_naive(small_system, rng, k):
    predicate = sample_predicate(small_system.relation, 1, rng)
    fn = sample_linear_function(2, rng)
    scores = small_system.engine.topk(fn, k, predicate).scores
    expected = naive_topk(truth_points(small_system, predicate), fn, k)
    assert len(scores) == len(expected)
    assert [round(s, 9) for s in scores] == [round(s, 9) for _, s in expected]
    # Scores come out sorted.
    assert scores == sorted(scores)


def test_topk_k_larger_than_selection(small_system, rng):
    predicate = sample_predicate(small_system.relation, 3, rng)
    fn = sample_linear_function(2, rng)
    qualifying = truth_points(small_system, predicate)
    result = small_system.engine.topk(fn, len(qualifying) + 50, predicate)
    assert len(result) == len(qualifying)


def test_topk_with_distance_function(small_system, rng):
    from repro.data.workload import sample_target_function

    predicate = sample_predicate(small_system.relation, 1, rng)
    fn = sample_target_function(small_system.relation, rng)
    scores = small_system.engine.topk(fn, 10, predicate).scores
    expected = naive_topk(truth_points(small_system, predicate), fn, 10)
    assert [round(s, 9) for s in scores] == [round(s, 9) for _, s in expected]


def test_signature_reads_fewer_blocks_than_bbs(small_system, rng):
    """The headline mechanism: with a selective predicate, signature-guided
    search must expand no more nodes than predicate-blind BBS."""
    from repro.baselines.domination_first import domination_first_skyline

    for _ in range(5):
        predicate = sample_predicate(small_system.relation, 2, rng)
        sig_stats = small_system.engine.skyline(predicate).stats
        _, dom_stats, _ = domination_first_skyline(
            small_system.engine.relation, small_system.engine.rtree, predicate
        )
        assert sig_stats.sblock <= dom_stats.dblock
        assert sig_stats.peak_heap <= dom_stats.peak_heap


def test_distribution_robustness(rng):
    """Correctness across data distributions (Figure 12's concern)."""
    from repro.data.synthetic import SyntheticConfig, generate_relation
    from repro.system import build_system

    for distribution in ("correlated", "anticorrelated", "clustered"):
        config = SyntheticConfig(
            n_tuples=600,
            n_boolean=2,
            cardinality=5,
            n_preference=3,
            distribution=distribution,
            seed=2,
        )
        relation = generate_relation(config)
        system = build_system(relation, fanout=8)
        predicate = sample_predicate(relation, 1, rng)
        tids = system.engine.skyline(predicate).tids
        expected = set(
            naive_skyline(
                [
                    (tid, relation.pref_point(tid))
                    for tid in relation.tids()
                    if predicate.matches(relation, tid)
                ]
            )
        )
        assert set(tids) == expected
