"""The preference engine: standard queries and Lemma 2 drill/roll chains."""

import pytest

from repro.baselines.naive import naive_skyline, naive_topk
from repro.data.workload import sample_linear_function, sample_predicate
from repro.query.predicates import BooleanPredicate


def truth_skyline(system, predicate):
    relation = system.relation
    return set(
        naive_skyline(
            [
                (tid, relation.pref_point(tid))
                for tid in relation.tids()
                if predicate.matches(relation, tid)
            ]
        )
    )


def anchored_value(system, predicate, dim, rng):
    """A value for ``dim`` co-occurring with ``predicate`` (non-empty drill)."""
    matching = [
        tid
        for tid in system.relation.tids()
        if predicate.matches(system.relation, tid)
    ]
    anchor = rng.choice(matching)
    return system.relation.bool_value(anchor, dim)


def test_skyline_query_result_fields(small_system, rng):
    predicate = sample_predicate(small_system.relation, 1, rng)
    result = small_system.engine.skyline(predicate)
    assert result.kind == "skyline"
    assert result.predicate == predicate
    assert result.scores is None
    assert len(result) == len(result.tids)
    assert result.stats.elapsed_seconds > 0


def test_topk_query_result_fields(small_system, rng):
    fn = sample_linear_function(2, rng)
    result = small_system.engine.topk(fn, 5)
    assert result.kind == "topk"
    assert result.k == 5
    assert result.fn is fn
    assert len(result.scores) == len(result.tids) == 5


def test_empty_predicate_defaults(small_system):
    result = small_system.engine.skyline()
    assert result.predicate.is_empty()
    assert set(result.tids) == truth_skyline(small_system, BooleanPredicate())


def test_drill_down_matches_fresh_query(small_system, rng):
    for _ in range(4):
        base_pred = sample_predicate(small_system.relation, 1, rng)
        base = small_system.engine.skyline(base_pred)
        dim = rng.choice(
            [
                d
                for d in small_system.relation.schema.boolean_dims
                if d not in base_pred.dims()
            ]
        )
        value = anchored_value(small_system, base_pred, dim, rng)
        drilled = small_system.engine.drill_down(base, dim, value)
        expected = truth_skyline(
            small_system, base_pred.drill_down(dim, value)
        )
        assert set(drilled.tids) == expected


def test_drill_down_is_cheaper_than_fresh(small_system, rng):
    base_pred = sample_predicate(small_system.relation, 1, rng)
    base = small_system.engine.skyline(base_pred)
    dim = next(
        d
        for d in small_system.relation.schema.boolean_dims
        if d not in base_pred.dims()
    )
    value = anchored_value(small_system, base_pred, dim, rng)
    drilled = small_system.engine.drill_down(base, dim, value)
    fresh = small_system.engine.skyline(base_pred.drill_down(dim, value))
    assert set(drilled.tids) == set(fresh.tids)
    assert drilled.stats.sblock <= fresh.stats.sblock


def test_roll_up_matches_fresh_query(small_system, rng):
    for _ in range(4):
        predicate = sample_predicate(small_system.relation, 2, rng)
        base = small_system.engine.skyline(predicate)
        dim = rng.choice(predicate.dims())
        rolled = small_system.engine.roll_up(base, dim)
        expected = truth_skyline(small_system, predicate.roll_up(dim))
        assert set(rolled.tids) == expected


def test_roll_up_to_empty_predicate(small_system, rng):
    predicate = sample_predicate(small_system.relation, 1, rng)
    base = small_system.engine.skyline(predicate)
    rolled = small_system.engine.roll_up(base, predicate.dims()[0])
    assert rolled.predicate.is_empty()
    assert set(rolled.tids) == truth_skyline(small_system, BooleanPredicate())


def test_chained_drill_downs(small_system, rng):
    predicate = sample_predicate(small_system.relation, 3, rng)
    dims = predicate.dims()
    conjuncts = predicate.conjuncts
    current = small_system.engine.skyline(
        BooleanPredicate({dims[0]: conjuncts[dims[0]]})
    )
    for dim in dims[1:]:
        current = small_system.engine.drill_down(current, dim, conjuncts[dim])
        assert set(current.tids) == truth_skyline(
            small_system, current.predicate
        )
    # And back up the same chain.
    for dim in reversed(dims[1:]):
        current = small_system.engine.roll_up(current, dim)
        assert set(current.tids) == truth_skyline(
            small_system, current.predicate
        )


def test_drill_then_roll_is_identity(small_system, rng):
    base_pred = sample_predicate(small_system.relation, 1, rng)
    base = small_system.engine.skyline(base_pred)
    dim = next(
        d
        for d in small_system.relation.schema.boolean_dims
        if d not in base_pred.dims()
    )
    value = anchored_value(small_system, base_pred, dim, rng)
    drilled = small_system.engine.drill_down(base, dim, value)
    back = small_system.engine.roll_up(drilled, dim)
    assert set(back.tids) == set(base.tids)


def test_topk_drill_down(small_system, rng):
    fn = sample_linear_function(2, rng)
    base_pred = sample_predicate(small_system.relation, 1, rng)
    base = small_system.engine.topk(fn, 10, base_pred)
    dim = next(
        d
        for d in small_system.relation.schema.boolean_dims
        if d not in base_pred.dims()
    )
    value = anchored_value(small_system, base_pred, dim, rng)
    drilled = small_system.engine.drill_down(base, dim, value)
    relation = small_system.relation
    new_pred = base_pred.drill_down(dim, value)
    expected = naive_topk(
        [
            (tid, relation.pref_point(tid))
            for tid in relation.tids()
            if new_pred.matches(relation, tid)
        ],
        fn,
        10,
    )
    assert [round(s, 9) for s in drilled.scores] == [
        round(s, 9) for s, in [(s,) for _, s in expected]
    ]


def test_topk_roll_up(small_system, rng):
    fn = sample_linear_function(2, rng)
    predicate = sample_predicate(small_system.relation, 2, rng)
    base = small_system.engine.topk(fn, 8, predicate)
    dim = predicate.dims()[0]
    rolled = small_system.engine.roll_up(base, dim)
    relation = small_system.relation
    new_pred = predicate.roll_up(dim)
    expected = naive_topk(
        [
            (tid, relation.pref_point(tid))
            for tid in relation.tids()
            if new_pred.matches(relation, tid)
        ],
        fn,
        8,
    )
    assert [round(s, 9) for s in rolled.scores] == [
        round(s, 9) for _, s in expected
    ]


@pytest.mark.parametrize("kind", ["skyline", "topk"])
def test_drill_down_counts_each_carried_entry_the_new_signature_rejects(
    small_system, rng, kind
):
    """Lemma 2's prefilter: a carried entry (an old result, a
    preference-pruned entry or a pending one) with no tuple of the stronger
    predicate beneath it goes straight to the new ``b_list``, right after
    the kept ones, and counts as one boolean prune."""
    engine, relation = small_system.engine, small_system.relation
    paths = small_system.rtree.all_paths()
    fn = sample_linear_function(2, rng)
    rejected_total = 0
    for _ in range(6):
        base_pred = sample_predicate(relation, 1, rng)
        base = (
            engine.skyline(base_pred)
            if kind == "skyline"
            else engine.topk(fn, 10, base_pred)
        )
        dim = rng.choice(
            [d for d in relation.schema.boolean_dims if d not in base_pred.dims()]
        )
        value = anchored_value(small_system, base_pred, dim, rng)
        new_pred = base_pred.drill_down(dim, value)
        matching = [
            paths[tid] for tid in relation.tids() if new_pred.matches(relation, tid)
        ]
        carried = base.state.results + base.state.d_list + base.state.heap
        rejected = [
            entry
            for entry in carried
            if not any(path[: len(entry.path)] == entry.path for path in matching)
        ]
        kept = len(base.state.b_list)

        drilled = engine.drill_down(base, dim, value)
        b_list = list(drilled.state.b_list)
        assert b_list[kept : kept + len(rejected)] == rejected
        # Every boolean prune, the prefilter's and the search's, is one
        # entry the drill-down added to ``b_list``.
        assert drilled.stats.boolean_pruned == len(b_list) - kept
        rejected_total += len(rejected)
    assert rejected_total > 0


# --------------------------------------------------------------------------- #
# Lemma 2 across a write: a result resumes only at its own epoch
# --------------------------------------------------------------------------- #


@pytest.fixture(scope="module")
def written_after_base():
    """``skyline(A0=1)`` (seven tids), then a delete of one of them and an
    insert at the origin, tid 3 000, that dominates every ``A0=1`` tuple."""
    from repro.data.synthetic import SyntheticConfig, generate_relation
    from repro.system import build_system

    config = SyntheticConfig(
        n_tuples=3_000,
        n_boolean=2,
        cardinality=4,
        n_preference=2,
        seed=5,
        boolean_names=("A0", "A1"),
    )
    system = build_system(generate_relation(config), fanout=8)
    base = system.engine.skyline(BooleanPredicate({"A0": 1}))
    assert len(base.tids) == 7 and 2442 in base.tids
    system.delete(2442)
    assert system.insert((1, 2), (0.0, 0.0))[0] == 3_000
    return system, base


def test_a_drill_down_across_a_write_is_refused(written_after_base):
    """The base's lists still hold the deleted tid and know nothing of the
    inserted one: resumed, they answered ``[…, 2442, …]`` without 3 000."""
    system, base = written_after_base
    with pytest.raises(ValueError, match="epoch"):
        system.engine.drill_down(base, "A1", 2)
    fresh = system.engine.skyline(BooleanPredicate({"A0": 1, "A1": 2}))
    assert fresh.tids == [3_000]


def test_a_roll_up_across_a_write_is_refused(written_after_base):
    system, base = written_after_base
    with pytest.raises(ValueError, match="epoch"):
        system.engine.roll_up(base, "A0")
    assert system.engine.skyline(BooleanPredicate()).tids == [3_000]
