"""The three comparison methods: correctness and cost-model behaviour."""

import pytest

from repro.baselines.boolean_first import (
    boolean_first_skyline,
    boolean_first_topk,
    _index_plan_dim,
    build_boolean_indexes,
    select_tuples,
)
from repro.baselines.domination_first import (
    bbs_skyline,
    domination_first_skyline,
    ranking_topk,
)
from repro.baselines.index_merge import index_merge_topk
from repro.baselines.naive import naive_skyline, naive_topk
from repro.btree.btree import BPlusTree, order_for_page
from repro.data.synthetic import SyntheticConfig, generate_relation
from repro.data.workload import sample_linear_function, sample_predicate
from repro.query.predicates import BooleanPredicate
from repro.query.stats import QueryStats
from repro.storage.counters import BINDEX, BTABLE, DBOOL
from repro.storage.disk import SimulatedDisk


@pytest.fixture(scope="module")
def small_indexes(small_system):
    """The baselines' B+-trees over the shared system's relation (a served
    system keeps none)."""
    return build_boolean_indexes(small_system.relation)


def truth_points(system, predicate):
    relation = system.relation
    return [
        (tid, relation.pref_point(tid))
        for tid in relation.tids()
        if predicate.matches(relation, tid)
    ]


# --------------------------------------------------------------------------- #
# Boolean-first
# --------------------------------------------------------------------------- #


def test_boolean_indexes_cover_all_dims(small_system, small_indexes):
    assert set(small_indexes) == set(small_system.relation.schema.boolean_dims)
    index = small_indexes["A1"]
    expected = [
        tid
        for tid in small_system.relation.tids()
        if small_system.relation.bool_value(tid, "A1") == 3
    ]
    assert sorted(index.search(3)) == expected


def test_the_planner_walks_no_index_entry(small_system, small_indexes, monkeypatch):
    """The plan's statistic is the count each tree keeps, not a walk of
    its entries."""
    walked = []
    monkeypatch.setattr(
        BPlusTree, "items", lambda self: walked.append(self.tag) or iter(())
    )
    view = small_system.engine.relation
    dims = view.schema.boolean_dims
    for n in range(1, len(dims) + 1):
        predicate = BooleanPredicate({dim: 1 for dim in dims[:n]})
        _index_plan_dim(view, small_indexes, predicate)
        select_tuples(view, small_indexes, predicate, QueryStats())
    assert walked == []


@pytest.mark.parametrize("n_conjuncts", [1, 2, 3])
def test_boolean_first_skyline_correct(small_system, small_indexes, rng, n_conjuncts):
    predicate = sample_predicate(small_system.relation, n_conjuncts, rng)
    tids, stats = boolean_first_skyline(
        small_system.engine.relation, small_indexes, predicate
    )
    assert sorted(tids) == sorted(
        naive_skyline(truth_points(small_system, predicate))
    )
    assert stats.total_io() > 0
    assert stats.peak_heap >= len(tids)


def test_boolean_first_empty_predicate_scans(small_system, small_indexes):
    tids, stats = boolean_first_skyline(
        small_system.engine.relation, small_indexes, BooleanPredicate()
    )
    assert sorted(tids) == sorted(
        naive_skyline(list(small_system.relation.pref_points()))
    )
    assert stats.counters.get(BTABLE) == small_system.relation.heap_page_count()


def test_boolean_first_topk_correct(small_system, small_indexes, rng):
    predicate = sample_predicate(small_system.relation, 1, rng)
    fn = sample_linear_function(2, rng)
    ranked, stats = boolean_first_topk(
        small_system.engine.relation, small_indexes, fn, 10, predicate
    )
    expected = naive_topk(truth_points(small_system, predicate), fn, 10)
    assert [round(s, 9) for _, s in ranked] == [round(s, 9) for _, s in expected]


def test_select_tuples_prefers_index_for_selective_predicates(
    fresh_system, rng
):
    # Cardinality 100 over 2000 rows: ~20-tid postings, so the index path
    # must beat the full scan.
    system = fresh_system(n_tuples=2000, cardinality=100, seed=14)
    predicate = sample_predicate(system.relation, 1, rng)
    indexes = build_boolean_indexes(system.relation)
    stats = QueryStats()
    selected = select_tuples(system.engine.relation, indexes, predicate, stats)
    assert sorted(selected) == [
        tid
        for tid in system.relation.tids()
        if predicate.matches(system.relation, tid)
    ]
    assert stats.counters.get(BTABLE) < system.relation.heap_page_count()
    assert stats.counters.get(BINDEX) > 0


def test_select_tuples_prefers_scan_for_wide_predicates(small_system, small_indexes, rng):
    # Cardinality 8 over 1500 rows: a posting touches every heap page, so
    # the planner should fall back to the plain table scan (no index I/O).
    predicate = sample_predicate(small_system.relation, 1, rng)
    stats = QueryStats()
    select_tuples(
        small_system.engine.relation, small_indexes, predicate, stats
    )
    assert stats.counters.get(BTABLE) == small_system.relation.heap_page_count()
    assert stats.counters.get(BINDEX) == 0


def test_select_tuples_peak_heap_is_candidate_count(small_system, small_indexes, rng):
    predicate = sample_predicate(small_system.relation, 1, rng)
    tids, stats = boolean_first_skyline(
        small_system.engine.relation, small_indexes, predicate
    )
    candidates = sum(
        1
        for tid in small_system.relation.tids()
        if predicate.matches(small_system.relation, tid)
    )
    assert stats.peak_heap == candidates


# --------------------------------------------------------------------------- #
# Domination-first (BBS + minimal probing)
# --------------------------------------------------------------------------- #


def test_bbs_skyline_no_predicate(small_system):
    tids, stats = bbs_skyline(small_system.engine.rtree)
    assert sorted(tids) == sorted(
        naive_skyline(list(small_system.relation.pref_points()))
    )
    assert stats.dblock > 0
    assert stats.counters.get(DBOOL) == 0


@pytest.mark.parametrize("n_conjuncts", [1, 2, 3])
def test_domination_first_correct(small_system, rng, n_conjuncts):
    predicate = sample_predicate(small_system.relation, n_conjuncts, rng)
    tids, stats, _ = domination_first_skyline(
        small_system.engine.relation, small_system.engine.rtree, predicate
    )
    assert sorted(tids) == sorted(
        naive_skyline(truth_points(small_system, predicate))
    )
    assert stats.counters.get(DBOOL) >= len(tids)  # at least one probe per result
    assert stats.verified == stats.counters.get(DBOOL)


def test_domination_failed_candidates_do_not_prune(small_system, rng):
    """The subtle bug this baseline invites: a verified-out tuple must not
    dominate later candidates.  With selective predicates, a wrong
    implementation returns too few skyline points."""
    for _ in range(5):
        predicate = sample_predicate(small_system.relation, 3, rng)
        tids, _, _ = domination_first_skyline(
            small_system.engine.relation, small_system.engine.rtree, predicate
        )
        assert sorted(tids) == sorted(
            naive_skyline(truth_points(small_system, predicate))
        )


def test_ranking_topk_correct(small_system, rng):
    predicate = sample_predicate(small_system.relation, 1, rng)
    fn = sample_linear_function(2, rng)
    ranked, stats, _ = ranking_topk(
        small_system.engine.relation, small_system.engine.rtree, fn, 10, predicate
    )
    expected = naive_topk(truth_points(small_system, predicate), fn, 10)
    assert [round(s, 9) for _, s in ranked] == [round(s, 9) for _, s in expected]
    assert stats.counters.get(DBOOL) >= 10


def test_minimal_probing_is_lazy(small_system, rng):
    """Far fewer verifications than candidates surfaced by plain BBS over
    the whole data set — only reported candidates are probed."""
    predicate = sample_predicate(small_system.relation, 1, rng)
    _, stats, _ = domination_first_skyline(
        small_system.engine.relation, small_system.engine.rtree, predicate
    )
    assert stats.verified < len(small_system.relation)


# --------------------------------------------------------------------------- #
# Index merge
# --------------------------------------------------------------------------- #


@pytest.mark.parametrize("n_conjuncts", [1, 2, 3])
def test_index_merge_topk_correct(small_system, small_indexes, rng, n_conjuncts):
    predicate = sample_predicate(small_system.relation, n_conjuncts, rng)
    fn = sample_linear_function(2, rng)
    ranked, stats = index_merge_topk(
        small_system.engine.rtree,
        small_indexes,
        fn,
        10,
        predicate,
    )
    expected = naive_topk(truth_points(small_system, predicate), fn, 10)
    assert [round(s, 9) for _, s in ranked] == [round(s, 9) for _, s in expected]
    assert stats.counters.get(BINDEX) > 0  # the online join is paid


def test_index_merge_no_predicate(small_system, small_indexes, rng):
    fn = sample_linear_function(2, rng)
    ranked, stats = index_merge_topk(
        small_system.engine.rtree,
        small_indexes,
        fn,
        5,
        BooleanPredicate(),
    )
    expected = naive_topk(list(small_system.relation.pref_points()), fn, 5)
    assert [round(s, 9) for _, s in ranked] == [round(s, 9) for _, s in expected]
    assert stats.counters.get(BINDEX) == 0


def test_naive_topk_tie_break_and_bounds():
    points = [(0, (1.0,)), (1, (1.0,)), (2, (2.0,))]
    from repro.query.ranking import LinearFunction

    ranked = naive_topk(points, LinearFunction([1.0]), 2)
    assert ranked == [(0, 1.0), (1, 1.0)]
    assert naive_topk(points, LinearFunction([1.0]), 10) == [
        (0, 1.0),
        (1, 1.0),
        (2, 2.0),
    ]
    assert naive_skyline([]) == []


def test_select_tuples_excludes_tombstoned_rows_on_both_paths():
    """Deleted rows stay in heap pages and B+-tree postings, but neither
    access path may return them."""
    from repro.cube.relation import Relation
    from repro.cube.schema import Schema
    disk = SimulatedDisk(page_size=128)  # many heap pages => index scan wins
    schema = Schema(("A",), ("X", "Y"))
    bool_rows = [(i % 10,) for i in range(200)]
    pref_rows = [(i / 200, 1 - i / 200) for i in range(200)]
    relation = Relation(schema, bool_rows, pref_rows, disk=disk)
    indexes = build_boolean_indexes(relation)
    for tid in range(0, 200, 7):
        relation.tombstone(tid)
    live = set(relation.live_tids())
    view = relation.view(0)  # no epoch manager: the latest state

    # Table scan (empty predicate always scans the heap).
    stats = QueryStats()
    assert set(select_tuples(view, indexes, BooleanPredicate(), stats)) == live

    # Index scan: postings still hold the dead tids; verification drops them.
    stats = QueryStats()
    selected = select_tuples(
        view, indexes, BooleanPredicate({"A": 3}), stats
    )
    assert stats.counters.get(BINDEX) > 0  # the index path actually ran
    assert set(selected) == {
        tid for tid in live if relation.bool_value(tid, "A") == 3
    }
    assert set(indexes["A"].search(3)) - live  # dead tids were candidates


@pytest.mark.parametrize("page_size", [128, 1024])
def test_boolean_index_nodes_fit_their_page(page_size):
    """Each node is sized to its disk's page, so one node visit — one
    counted ``BINDEX`` read — is one page: none is oversized."""
    disk = SimulatedDisk(page_size=page_size)
    relation = generate_relation(
        SyntheticConfig(
            n_tuples=1500, n_boolean=2, cardinality=8, n_preference=2, seed=5
        ),
        disk=disk,
    )
    indexes = build_boolean_indexes(relation)
    assert {tree.order for tree in indexes.values()} == {
        order_for_page(page_size)
    }
    assert disk.size_bytes("btree") > 0
    assert [
        page.page_id
        for page in disk.oversized_pages()
        if page.tag.startswith("btree:")
    ] == []


def test_boolean_index_order_is_unchanged_at_4kb_pages():
    """At the default page the order stays at its cap: no figure count
    moves with the page-fitting rule."""
    assert order_for_page(4096) == 128
    assert order_for_page(128) == 6
    assert order_for_page(24) == 4  # never below the tree's minimum
