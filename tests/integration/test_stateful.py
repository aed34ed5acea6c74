"""Stateful model checking: the whole system vs a brute-force oracle.

A hypothesis rule machine interleaves insertions, deletions, preference
updates and queries of every type against a live system, checking each
query answer against naive recomputation over the shadow model.  Writes
go through the system's journalled methods, so each publishes the epoch
``system.engine`` then reads.  This is the widest net for interaction bugs
(e.g. a node split leaving a stale signature bit that only a later roll-up
trips over).
"""

import math

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from repro.baselines.naive import naive_skyline, naive_topk
from repro.core.signature import Signature
from repro.cube.relation import Relation
from repro.cube.schema import Schema
from repro.query.predicates import BooleanPredicate
from repro.query.ranking import LinearFunction
from repro.system import build_system

CARDINALITY = 3
GRID = 6  # coordinates live on a GRID x GRID lattice (forces ties)

values = st.integers(min_value=0, max_value=CARDINALITY - 1)
coords = st.integers(min_value=0, max_value=GRID - 1)


class PCubeMachine(RuleBasedStateMachine):
    @initialize(
        rows=st.lists(
            st.tuples(values, values, coords, coords), min_size=2, max_size=15
        )
    )
    def build(self, rows):
        schema = Schema(("A", "B"), ("X", "Y"))
        bool_rows = [(a, b) for a, b, _, _ in rows]
        pref_rows = [(x / GRID, y / GRID) for _, _, x, y in rows]
        self.relation = Relation(schema, bool_rows, pref_rows)
        self.system = build_system(
            self.relation, fanout=4, rtree_method="insert", with_indexes=False
        )
        self.alive = set(self.relation.tids())

    # ------------------------------------------------------------------ #
    # mutations
    # ------------------------------------------------------------------ #

    @rule(a=values, b=values, x=coords, y=coords)
    def insert(self, a, b, x, y):
        tid, _ = self.system.insert((a, b), (x / GRID, y / GRID))
        self.alive.add(tid)

    @precondition(lambda self: len(self.alive) > 1)
    @rule(index=st.integers(min_value=0, max_value=10**6))
    def delete(self, index):
        tid = sorted(self.alive)[index % len(self.alive)]
        self.system.delete(tid)
        self.alive.discard(tid)

    @precondition(lambda self: self.alive)
    @rule(index=st.integers(min_value=0, max_value=10**6), x=coords, y=coords)
    def move(self, index, x, y):
        tid = sorted(self.alive)[index % len(self.alive)]
        self.system.update(tid, (x / GRID, y / GRID))

    # ------------------------------------------------------------------ #
    # queries (each checked against the shadow model)
    # ------------------------------------------------------------------ #

    def _qualifying(self, predicate):
        return [
            (tid, self.relation.pref_point(tid))
            for tid in self.alive
            if predicate.matches(self.relation, tid)
        ]

    @rule(a=values)
    def skyline_one_predicate(self, a):
        predicate = BooleanPredicate({"A": a})
        result = self.system.engine.skyline(predicate)
        assert set(result.tids) == set(naive_skyline(self._qualifying(predicate)))

    @rule(a=values, b=values)
    def skyline_two_predicates(self, a, b):
        predicate = BooleanPredicate({"A": a, "B": b})
        result = self.system.engine.skyline(predicate)
        assert set(result.tids) == set(naive_skyline(self._qualifying(predicate)))

    @rule(a=values, b=values, k=st.integers(min_value=1, max_value=6),
          w1=st.floats(min_value=0.1, max_value=2.0),
          w2=st.floats(min_value=0.1, max_value=2.0))
    def topk_query(self, a, b, k, w1, w2):
        predicate = BooleanPredicate({"A": a, "B": b})
        fn = LinearFunction([w1, w2])
        result = self.system.engine.topk(fn, k, predicate)
        expected = naive_topk(self._qualifying(predicate), fn, k)
        assert len(result.tids) == len(expected)
        for got, (_, want) in zip(result.scores, expected):
            assert math.isclose(got, want, rel_tol=1e-9, abs_tol=1e-12)

    @rule(a=values, b=values)
    def drill_then_roll(self, a, b):
        base_pred = BooleanPredicate({"A": a})
        base = self.system.engine.skyline(base_pred)
        drilled = self.system.engine.drill_down(base, "B", b)
        expected = set(
            naive_skyline(self._qualifying(BooleanPredicate({"A": a, "B": b})))
        )
        assert set(drilled.tids) == expected
        rolled = self.system.engine.roll_up(drilled, "B")
        assert set(rolled.tids) == set(base.tids)

    # ------------------------------------------------------------------ #
    # structural invariants after every step
    # ------------------------------------------------------------------ #

    @invariant()
    def signatures_exact(self):
        if not hasattr(self, "system"):
            return
        paths = self.system.rtree.all_paths()
        assert set(paths) == self.alive
        for cuboid in self.system.pcube.cuboids:
            groups: dict = {}
            for tid in self.alive:
                groups.setdefault(
                    cuboid.cell_for(self.relation, tid), []
                ).append(tid)
            for cell, tids in groups.items():
                expected = Signature.from_paths(
                    [paths[t] for t in tids], self.system.rtree.max_entries
                )
                assert self.system.pcube.signature_of(cell) == expected


PCubeMachine.TestCase.settings = settings(
    max_examples=30, stateful_step_count=25, deadline=None
)
TestPCubeMachine = PCubeMachine.TestCase
