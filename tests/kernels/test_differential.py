"""Every query engine on the one kernel path, against the naive answers.

One seeded system, one mixed workload: the signature engine, all four
baselines and the in-memory skyline algorithms must answer what the
naive references answer over the qualifying tuples.  Counted I/O is not
re-derived here — it follows from heap order, which follows from the
kernels' keys, and :mod:`tests.kernels.test_parity` pins those
bit-for-bit against :mod:`tests.kernels.reference`; the committed bench
baselines pin the counts themselves.

The one fork the product keeps is ``boolean_first``'s: a scan under a
serving ticker runs per row (the ticker fires per tuple, for deadlines),
one without runs against the columnar projection.  The two must give the
same answers *and* the same counted reads; that is checked here.
"""

import pytest

from repro.baselines.boolean_first import (
    _index_plan_dim,
    boolean_first_skyline,
    boolean_first_topk,
    build_boolean_indexes,
)
from repro.baselines.domination_first import (
    bbs_skyline,
    domination_first_skyline,
    ranking_topk,
)
from repro.baselines.index_merge import index_merge_topk
from repro.baselines.naive import naive_skyline, naive_topk
from repro.baselines.skyline_algs import sfs_skyline
from repro.data.fixtures import build_sweep_system
from repro.query.dynamic import naive_dynamic_skyline
from repro.query.predicates import BooleanPredicate
from repro.query.ranking import (
    LinearFunction,
    WeightedSquaredDistance,
)
from tests.kernels import reference
from tests.reference import bnl_skyline, dnc_skyline, naive_lower_hull

pytestmark = pytest.mark.kernels


@pytest.fixture(scope="module")
def system():
    return build_sweep_system(4_000, n_preference=2, seed=31)


@pytest.fixture(scope="module")
def indexes(system):
    """The baselines' B+-trees, built over the system's relation."""
    return build_boolean_indexes(system.relation)


@pytest.fixture(scope="module")
def points(system):
    return list(system.relation.pref_points())


def _predicates(system):
    dims = system.relation.schema.boolean_dims
    value = system.relation.bool_row(0)[0]
    return [
        BooleanPredicate(),
        BooleanPredicate({dims[0]: value}),
    ]


def _truth(relation, predicate):
    return [
        (tid, relation.pref_point(tid))
        for tid in relation.tids()
        if predicate.matches(relation, tid)
    ]


def _ranked(pairs):
    return [tid for tid, _ in pairs], [score for _, score in pairs]


LINEAR = LinearFunction((0.55, 0.45))
WSD = WeightedSquaredDistance(target=(0.25, 0.75), weights=(1.0, 0.5))


def test_signature_engine_differential(system):
    for predicate in _predicates(system):
        truth = _truth(system.relation, predicate)
        result = system.engine.skyline(predicate=predicate)
        assert result.tids  # the sweep data always has a non-empty skyline
        assert sorted(result.tids) == sorted(naive_skyline(truth))
        for fn, k in ((LINEAR, 10), (WSD, 7)):
            result = system.engine.topk(fn, k, predicate=predicate)
            assert (result.tids, result.scores) == _ranked(
                naive_topk(truth, fn, k)
            )
    truth = _truth(system.relation, BooleanPredicate())
    result = system.engine.dynamic_skyline((0.5, 0.5))
    assert sorted(result.tids) == sorted(
        naive_dynamic_skyline(truth, (0.5, 0.5))
    )
    assert system.engine.lower_hull().tids == naive_lower_hull(truth)


def test_subspace_skyline_differential(system):
    name = system.relation.schema.preference_dims[0]
    result = system.engine.skyline(preference_by=(name,))
    projected = [
        (tid, point[:1]) for tid, point in system.relation.pref_points()
    ]
    assert sorted(result.tids) == sorted(naive_skyline(projected))


def test_boolean_first_differential(system, indexes):
    for predicate in _predicates(system):
        truth = _truth(system.relation, predicate)
        tids, _ = boolean_first_skyline(
            system.engine.relation, indexes, predicate
        )
        # SFS reports in Algorithm 1's order: the signature engine's list.
        assert tids == system.engine.skyline(predicate=predicate).tids
        assert sorted(tids) == sorted(naive_skyline(truth))
        ranked, _ = boolean_first_topk(
            system.engine.relation, indexes, LINEAR, 10, predicate
        )
        assert ranked == naive_topk(truth, LINEAR, 10)


def test_domination_first_differential(system):
    truth = _truth(system.relation, BooleanPredicate())
    tids, _ = bbs_skyline(system.engine.rtree)
    assert sorted(tids) == sorted(naive_skyline(truth))
    for predicate in _predicates(system):
        truth = _truth(system.relation, predicate)
        tids, _, _ = domination_first_skyline(
            system.engine.relation, system.engine.rtree, predicate
        )
        assert sorted(tids) == sorted(naive_skyline(truth))
        ranked, _, _ = ranking_topk(
            system.engine.relation, system.engine.rtree, LINEAR, 10, predicate
        )
        assert ranked == naive_topk(truth, LINEAR, 10)


def test_index_merge_differential(system, indexes):
    for predicate in _predicates(system):
        ranked, _ = index_merge_topk(
            system.engine.rtree,
            indexes,
            LINEAR,
            10,
            predicate,
        )
        truth = _truth(system.relation, predicate)
        assert ranked == naive_topk(truth, LINEAR, 10)


def test_memory_algorithms_differential(points):
    expected = [
        tid
        for (tid, _), dead in zip(points, reference.dominated_mask(points))
        if not dead
    ]
    assert naive_skyline(points) == expected
    assert sfs_skyline(points) == reference.sfs_skyline(points)
    # The three classic algorithms and the reference agree with each
    # other too (set-wise; output orders legitimately differ).
    assert set(sfs_skyline(points)) == set(expected)
    assert set(bnl_skyline(points)) == set(expected)
    assert set(dnc_skyline(points)) == set(expected)
    scores = reference.linear_score_block(
        LINEAR.weights, [point for _, point in points]
    )
    best = sorted(zip(scores, (tid for tid, _ in points)))[:10]
    assert naive_topk(points, LINEAR, 10) == [(t, s) for s, t in best]


# --------------------------------------------------------------------------- #
# boolean_first's ticker fork: per-row under a ticker, columnar without
# --------------------------------------------------------------------------- #


def _no_op():
    pass


def _both_forks(relation, indexes, predicate):
    """Each boolean-first query with ``ticker=None`` and with a no-op
    ticker: answers and counted reads per category."""
    runs = []
    for ticker in (None, _no_op):
        tids, sky_stats = boolean_first_skyline(
            relation, indexes, predicate, ticker=ticker
        )
        ranked, topk_stats = boolean_first_topk(
            relation, indexes, LINEAR, 10, predicate, ticker=ticker
        )
        runs.append(
            (
                tids,
                ranked,
                sky_stats.counters.snapshot(),
                topk_stats.counters.snapshot(),
                sky_stats.peak_heap,
            )
        )
    return runs


def _plans(system, indexes):
    """One predicate per access path: index scan and table scan."""
    relation = system.relation
    dims = relation.schema.boolean_dims
    row = relation.bool_row(0)
    candidates = [BooleanPredicate()] + [
        BooleanPredicate(dict(zip(dims[:n], row[:n])))
        for n in range(1, len(dims) + 1)
    ]
    plans = {}
    for predicate in candidates:
        arm = (
            "index"
            if _index_plan_dim(relation, indexes, predicate)
            else "table"
        )
        plans.setdefault(arm, []).append(predicate)
    return plans


@pytest.mark.parametrize("arm", ["index", "table"])
def test_ticker_fork_gives_the_same_answers_and_reads(system, indexes, arm):
    predicates = _plans(system, indexes)[arm]
    for predicate in predicates:
        vector, per_row = _both_forks(
            system.engine.relation, indexes, predicate
        )
        assert vector == per_row, predicate
        assert vector[0]


def test_ticker_fork_on_a_posting_past_the_projection():
    """A reader's relation view can be shorter than the rows the postings
    were built over (trees built after a write, read at an older
    snapshot).  Postings past the
    view's projection — one of them a deleted row's, which the B+-trees
    keep — must verify False on both forks, after the same page reads."""
    system = build_sweep_system(600, n_preference=2, seed=5)
    relation = system.relation
    snapshot = system.pin_snapshot()
    try:
        row = relation.bool_row(0)
        appended = [
            system.insert(row, (0.0, 0.0))[0],
            system.insert(row, (0.01, 0.01))[0],
        ]
        indexes = build_boolean_indexes(relation)
        system.delete(appended[0])
        view = snapshot.relation
        dims = relation.schema.boolean_dims
        predicate = BooleanPredicate(dict(zip(dims, row)))
        assert _index_plan_dim(view, indexes, predicate) is not None
        posting = indexes[dims[0]].search(row[0])
        assert max(posting) >= len(view) == view.columnar().n
        vector, per_row = _both_forks(view, indexes, predicate)
        assert vector == per_row
        assert not set(appended) & set(vector[0] + _ranked(vector[1])[0])
    finally:
        system.unpin_snapshot(snapshot)
