"""Algorithm 1 internals: strategies, pruning order, list bookkeeping."""

import pytest

from repro.baselines.naive import naive_skyline, naive_topk
from repro.query.algorithm1 import (
    HeapEntry,
    SearchState,
    SkylineStrategy,
    TopKStrategy,
    make_root_state,
    run_algorithm1,
)
from repro.query.ranking import LinearFunction
from repro.query.stats import QueryStats
from repro.rtree.bulk import bulk_load
from repro.rtree.frozen import freeze
from repro.rtree.geometry import Rect

import random


@pytest.fixture
def tree():
    rng = random.Random(99)
    points = [(tid, (rng.random(), rng.random())) for tid in range(300)]
    return freeze(bulk_load(points, dims=2, max_entries=6)), points


def test_heap_entry_ordering():
    a = HeapEntry(key=1.0, seq=1, path=())
    b = HeapEntry(key=1.0, seq=2, path=())
    c = HeapEntry(key=0.5, seq=3, path=())
    assert c < a < b


def test_skyline_strategy_prune_and_add():
    strategy = SkylineStrategy(dims=2)
    entry = HeapEntry(key=1.0, seq=1, path=(1,), tid=0, point=(0.4, 0.6))
    assert not strategy.prune(entry)
    strategy.add_result(entry)
    dominated = HeapEntry(key=1.5, seq=2, path=(2,), tid=1, point=(0.5, 0.7))
    assert strategy.prune(dominated)
    incomparable = HeapEntry(key=1.0, seq=3, path=(3,), tid=2, point=(0.7, 0.3))
    assert not strategy.prune(incomparable)


def test_topk_strategy_bound():
    strategy = TopKStrategy(LinearFunction([1.0, 1.0]), k=2)
    for score, tid in [(0.3, 0), (0.5, 1)]:
        strategy.add_result(
            HeapEntry(key=score, seq=tid, path=(), tid=tid, point=(0, 0))
        )
    assert strategy.prune(HeapEntry(key=0.6, seq=9, path=()))
    assert strategy.prune(HeapEntry(key=0.5, seq=10, path=()))
    assert not strategy.prune(HeapEntry(key=0.4, seq=11, path=()))
    assert strategy.finished(0.5)
    assert not strategy.finished(0.49)


def test_topk_strategy_keeps_k_best():
    strategy = TopKStrategy(LinearFunction([1.0]), k=2)
    entries = [
        HeapEntry(key=s, seq=i, path=(), tid=i, point=(s,))
        for i, s in enumerate([0.9, 0.3, 0.5])
    ]
    kept = [strategy.add_result(e) for e in entries]
    assert kept == [True, True, True]  # 0.5 displaces 0.9
    assert strategy.scores == [0.3, 0.5]
    assert not strategy.add_result(
        HeapEntry(key=0.8, seq=9, path=(), tid=9, point=(0.8,))
    )


def test_topk_k_validation():
    with pytest.raises(ValueError):
        TopKStrategy(LinearFunction([1.0]), k=0)


def test_make_root_state_empty_tree():
    from repro.rtree.rtree import RTree

    tree = RTree(dims=2, max_entries=4, min_entries=2)
    state = make_root_state(tree, SkylineStrategy(2))
    assert state.heap == []


def test_run_skyline_without_boolean_matches_naive(tree):
    rtree, points = tree
    stats = QueryStats()
    state = run_algorithm1(rtree, SkylineStrategy(2), stats)
    got = {e.tid for e in state.results}
    assert got == set(naive_skyline(points))
    assert stats.results == len(got)
    assert stats.nodes_expanded > 0
    assert stats.peak_heap > 0


def test_run_topk_matches_naive(tree):
    rtree, points = tree
    fn = LinearFunction([0.7, 1.3])
    stats = QueryStats()
    state = run_algorithm1(rtree, TopKStrategy(fn, 10), stats)
    got = [(e.tid, e.key) for e in state.results]
    expected = naive_topk(points, fn, 10)
    assert [round(s, 9) for _, s in got] == [round(s, 9) for _, s in expected]


def test_results_pop_in_key_order(tree):
    rtree, points = tree
    state = run_algorithm1(rtree, SkylineStrategy(2), QueryStats())
    keys = [e.key for e in state.results]
    assert keys == sorted(keys)


def test_topk_early_termination_leaves_heap(tree):
    rtree, _ = tree
    fn = LinearFunction([1.0, 1.0])
    state = run_algorithm1(rtree, TopKStrategy(fn, 5), QueryStats())
    assert len(state.results) == 5
    assert state.heap  # pending entries preserved for incremental reuse


def test_lists_cover_everything_for_skyline(tree):
    """At termination every generated entry ended in exactly one of result,
    b_list, d_list, or was expanded — so results + d_list covers the
    frontier (the Lemma 2 requirement)."""
    rtree, points = tree
    stats = QueryStats()
    state = run_algorithm1(rtree, SkylineStrategy(2), stats)
    assert state.heap == []
    assert not state.b_list  # no boolean predicate
    # Every data point is a result, in d_list, or below a d_list node.
    covered = {e.tid for e in state.results}
    pending = [e for e in state.d_list]
    while pending:
        entry = pending.pop()
        if entry.is_tuple:
            covered.add(entry.tid)
        else:
            for _, child in entry.node.live_entries():
                if child.is_leaf_entry:
                    covered.add(child.tid)
                else:
                    pending.append(
                        HeapEntry(0, 0, (), node=child.child)
                    )
    assert covered == {tid for tid, _ in points}


def test_verifier_filters_results(tree):
    rtree, points = tree
    allowed = {tid for tid, _ in points if tid % 2 == 0}
    stats = QueryStats()
    state = run_algorithm1(
        rtree,
        SkylineStrategy(2),
        stats,
        verifier=lambda tid: tid in allowed,
    )
    got = {e.tid for e in state.results}
    expected = set(
        naive_skyline([(t, p) for t, p in points if t in allowed])
    )
    assert got == expected
    assert stats.verified >= len(expected)
    assert stats.verify_failed == stats.verified - len(state.results)


def test_resume_from_state(tree):
    """Resuming with a reconstructed heap reproduces a fresh run."""
    rtree, points = tree
    first = run_algorithm1(rtree, SkylineStrategy(2), QueryStats())
    resume = SearchState()
    resume.heap = list(first.results) + list(first.d_list)
    resume.seq = max(e.seq for e in resume.heap)
    second = run_algorithm1(
        rtree, SkylineStrategy(2), QueryStats(), state=resume
    )
    assert {e.tid for e in second.results} == {e.tid for e in first.results}
