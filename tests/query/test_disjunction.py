"""Disjunctive (OR) predicates via signature union."""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.baselines.naive import naive_skyline, naive_topk
from repro.core.ops import intersect_all, union_all
from repro.core.readers import AnyOfReader, EmptyReader, SignatureAdapter
from repro.cube.relation import Relation
from repro.cube.schema import Schema
from repro.data.workload import sample_linear_function, sample_predicate
from repro.query.algorithm1 import SkylineStrategy, run_algorithm1
from repro.query.predicates import BooleanPredicate
from repro.query.stats import QueryStats
from repro.system import build_system
from tests.core.test_assembled_reader import node_paths
from tests.reference import matches_dnf


def qualifying(system, disjuncts):
    relation = system.relation
    return [
        (tid, relation.pref_point(tid))
        for tid in relation.tids()
        if matches_dnf(relation, disjuncts, tid)
    ]


def sample_disjuncts(system, rng, n=2):
    return [sample_predicate(system.relation, 1, rng) for _ in range(n)]


def test_dnf_skyline_matches_naive(small_system, rng):
    for n_disjuncts in (1, 2, 3):
        disjuncts = sample_disjuncts(small_system, rng, n_disjuncts)
        result = small_system.engine.skyline(disjuncts)
        expected = set(naive_skyline(qualifying(small_system, disjuncts)))
        assert set(result.tids) == expected
        assert result.stats.results == len(expected)


def test_dnf_topk_matches_naive(small_system, rng):
    disjuncts = sample_disjuncts(small_system, rng, 2)
    fn = sample_linear_function(2, rng)
    scores = small_system.engine.topk(fn, 10, disjuncts).scores
    expected = naive_topk(qualifying(small_system, disjuncts), fn, 10)
    assert [round(s, 9) for s in scores] == [
        round(s, 9) for _, s in expected
    ]


def test_dnf_with_conjunctive_disjuncts(small_system, rng):
    """(A=a AND B=b) OR (C=c): mixed-width disjuncts."""
    first = sample_predicate(small_system.relation, 2, rng)
    second = sample_predicate(small_system.relation, 1, rng)
    disjuncts = [first, second]
    tids = small_system.engine.skyline(disjuncts).tids
    expected = set(naive_skyline(qualifying(small_system, disjuncts)))
    assert set(tids) == expected


def test_tautological_disjunct_disables_pruning(small_system):
    reader = small_system.engine.pcube.reader_for_dnf(
        [BooleanPredicate({"A1": 1}), BooleanPredicate()],
    )
    assert reader is None


def test_all_unsatisfiable_disjuncts(small_system):
    reader = small_system.engine.pcube.reader_for_dnf(
        [BooleanPredicate({"A1": 777}), BooleanPredicate({"A2": 888})],
    )
    assert isinstance(reader, EmptyReader)
    result = small_system.engine.skyline([BooleanPredicate({"A1": 777})])
    assert result.tids == []
    assert result.stats.sblock == 0


def test_unsatisfiable_disjunct_is_dropped(small_system, rng):
    live = sample_predicate(small_system.relation, 1, rng)
    disjuncts = [live, BooleanPredicate({"A1": 777})]
    tids = small_system.engine.skyline(disjuncts).tids
    expected = set(naive_skyline(qualifying(small_system, [live])))
    assert set(tids) == expected


def _union_oracle(pcube, disjuncts):
    """The paper's operators on full signatures: recursive intersection
    per disjunct, folded with union (Fig. 3)."""
    return SignatureAdapter(
        union_all(
            [
                intersect_all(
                    [
                        pcube.store.load_full_signature(cell)
                        for cell in disjunct.atomic_cells()
                    ]
                )
                for disjunct in disjuncts
            ]
        )
    )


def test_dnf_reader_is_the_union_signature_bit_for_bit(small_system, rng):
    rtree, pcube = small_system.rtree, small_system.pcube
    full = (1 << rtree.max_entries) - 1
    paths = node_paths(small_system)
    for widths in ((1, 1), (2, 1), (2, 2)):
        disjuncts = [
            sample_predicate(small_system.relation, n, rng) for n in widths
        ]
        reader = small_system.engine.pcube.reader_for_dnf(disjuncts)
        oracle = _union_oracle(pcube, disjuncts)
        assert isinstance(reader, AnyOfReader)
        for path in paths:
            assert reader.check_block(path, full) == oracle.check_block(path, full)
        # The union signature admits exactly the union of tuple paths.
        tuple_paths = rtree.all_paths()
        for tid in small_system.relation.tids():
            assert reader.check_path(tuple_paths[tid]) == matches_dnf(
                small_system.relation, disjuncts, tid
            )


def test_dnf_skyline_reads_the_union_signatures_blocks(small_system, rng):
    for _ in range(3):
        disjuncts = [
            sample_predicate(small_system.relation, 2, rng)
            for _ in range(2)
        ]
        result = small_system.engine.skyline(disjuncts)
        oracle_stats = QueryStats()
        state = run_algorithm1(
            small_system.engine.rtree,
            SkylineStrategy(small_system.rtree.dims),
            oracle_stats,
            reader=_union_oracle(small_system.pcube, disjuncts),
        )
        assert result.tids == [entry.tid for entry in state.results]
        assert result.stats.sblock == oracle_stats.sblock


def test_reader_validation(small_system):
    with pytest.raises(ValueError):
        small_system.engine.pcube.reader_for_dnf([])
    with pytest.raises(ValueError):
        AnyOfReader([])


@settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    rows=st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=2),
            st.integers(min_value=0, max_value=2),
            st.integers(min_value=0, max_value=7),
            st.integers(min_value=0, max_value=7),
        ),
        min_size=1,
        max_size=50,
    ),
    v1=st.integers(min_value=0, max_value=2),
    v2=st.integers(min_value=0, max_value=2),
)
def test_dnf_property(rows, v1, v2):
    schema = Schema(("A", "B"), ("X", "Y"))
    relation = Relation(
        schema,
        [(a, b) for a, b, _, _ in rows],
        [(x / 7.0, y / 7.0) for _, _, x, y in rows],
    )
    system = build_system(relation, fanout=4)
    disjuncts = [BooleanPredicate({"A": v1}), BooleanPredicate({"B": v2})]
    tids = system.engine.skyline(disjuncts).tids
    expected = set(naive_skyline(qualifying(system, disjuncts)))
    assert set(tids) == expected
