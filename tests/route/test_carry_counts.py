"""A counted, deterministic pin of the carry mechanism.

One fixed 60-op read / write stream on the 2 000-tuple relation of the
end-to-end benchmark's ``--quick`` scale, replayed through
``QueryExecutor(routing=True)``.  The exact hit / carried / dropped /
flushed counts are asserted, so a change that silently stops carrying — or
carries too much — fails here rather than in a benchmark, and every answer
is compared with the naive scan of the live relation.
"""

from __future__ import annotations

import random

import pytest

from repro.baselines.naive import naive_skyline, naive_topk
from repro.data.synthetic import SyntheticConfig, generate_relation
from repro.data.workload import sample_linear_function, sample_predicate
from repro.query.predicates import BooleanPredicate
from repro.serve import QueryExecutor
from repro.system import build_system

pytestmark = pytest.mark.routing

K = 10
#: What the stream below must produce; change them only with the rule.
EXPECTED = {
    "cache_hits": 18,  # the router's count; the rest are the cache's
    "cache_misses": 27,
    "carried": 57,  # entry × reconcile pairs that survived
    "dropped_cell": 1,  # the short top-k, on an insert into its cell
    "dropped_answer": 12,
    "flushed_unknown": 7,  # everything cached at the quarantine repair
    "invalidated": 20,
}


def _stream(relation):
    """The ops: every 4th one writes — into a template's cell
    two times in three — and one write is a quarantine repair, which
    publishes without naming rows."""
    rng = random.Random("carry-pin")
    dims = relation.schema.n_preference
    cells = [
        sample_predicate(relation, n_conjuncts, rng)
        for n_conjuncts in (1, 1, 2)  # the 2-conjunct top-k is short of K
    ]
    templates = [("skyline", BooleanPredicate(), None)]
    templates += [("skyline", cell, None) for cell in cells]
    templates += [
        ("topk", cell, sample_linear_function(dims, rng))
        for cell in [BooleanPredicate(), *cells]
    ]
    members = [
        tid
        for tid in relation.live_tids()
        if any(cell.matches(relation, tid) for cell in cells)
    ]

    def tid():
        return members.pop(rng.randrange(len(members)))

    def row():
        anchor = rng.choice(members if rng.random() < 0.67 else relation.tids())
        return relation.bool_row(anchor), tuple(
            rng.random() for _ in range(dims)
        )

    writes = iter(
        [
            ("insert", row()),
            ("update", (tid(), row()[1])),
            ("delete", (tid(),)),
            ("insert_batch", ([row() for _ in range(4)],)),
            ("insert", row()),
            ("update", (tid(), row()[1])),
            ("insert", row()),
            ("repair_quarantined", ()),
            ("delete", (tid(),)),
            ("insert", row()),
            ("insert_batch", ([row() for _ in range(4)],)),
            ("update", (tid(), row()[1])),
            ("insert", row()),
            ("delete", (tid(),)),
            ("insert", row()),
        ]
    )
    return [
        next(writes) if i % 4 == 3 else ("read", rng.choice(templates))
        for i in range(60)
    ]


def _naive(relation, kind, predicate, fn):
    candidates = [
        (tid, relation.pref_point(tid))
        for tid in relation.live_tids()
        if predicate.matches(relation, tid)
    ]
    if kind == "skyline":
        return sorted(naive_skyline(candidates))
    return [round(score, 9) for _, score in naive_topk(candidates, fn, K)]


def test_carry_counts_on_the_committed_stream():
    relation = generate_relation(
        SyntheticConfig(n_tuples=2000, cardinality=100, seed=7)
    )
    system = build_system(relation, fanout=64)
    ops = _stream(relation)
    carried_hits = 0
    with QueryExecutor(system, threads=1, routing=True) as executor:
        for name, args in ops:
            if name != "read":
                getattr(system, name)(*args)
                continue
            kind, predicate, fn = args
            if kind == "skyline":
                result = executor.skyline(predicate=predicate).result(60.0)
                answer = result.tids
            else:
                result = executor.topk(fn, K, predicate=predicate).result(60.0)
                answer = [round(score, 9) for score in result.scores]
            assert answer == _naive(relation, kind, predicate, fn), (
                kind,
                predicate,
                result.stats.cache_outcome,
            )
            assert result.stats.epoch == system.epochs.current_epoch
            if result.stats.cache_outcome == "hit":
                carried_hits += (
                    result.stats.cache_computed_epoch < result.stats.epoch
                )
        router = executor.health()["router"]
    counted = {**router["routing"], **router["cache"]}
    assert {key: counted[key] for key in EXPECTED} == EXPECTED
    # Flush-all would serve none of these: every hit was computed at an
    # older epoch than the one it was served at.
    assert carried_hits == 18
    assert system.verify_consistency().ok
