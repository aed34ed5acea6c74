"""The carry rule, one directed case per branch (DESIGN.md §12).

A publish names what it wrote; the first routed read after it re-keys to
the new epoch every cached answer the written rows provably cannot change
and drops the rest.  Each case here asserts the *outcome* (hit = carried,
miss = dropped) **and** that the served answer is byte-identical to the
canonicalised answer an unrouted session computes on the same snapshot —
:meth:`Routed.read` checks the second on every call.
"""

from __future__ import annotations

import pytest

from repro.core.epoch import DELTA_LOG_EPOCHS
from repro.data.synthetic import SyntheticConfig, generate_relation
from repro.query.predicates import BooleanPredicate
from repro.query.ranking import (
    LinearFunction,
    SeparableFunction,
    WeightedSquaredDistance,
)
from repro.query.session import QuerySession
from repro.route import QueryRouter, RouteRequest
from repro.route.engines import canonicalize
from repro.storage.disk import SimulatedDisk
from repro.storage.faults import (
    FaultPlan,
    FaultRule,
    FaultyDisk,
    SimulatedCrash,
)
from repro.system import build_system

pytestmark = pytest.mark.routing

FN = LinearFunction((1.0, 2.0, 0.5))
#: One function of each class, each best at the origin and worst at (1, 1, 1)
#: on the unit cube: the carry verdict calls ``fn.score(point)`` for all three.
FNS = {
    "linear": FN,
    "wsd": WeightedSquaredDistance((0.0, 0.0, 0.0), (1.0, 2.0, 0.5)),
    "separable": SeparableFunction(
        [(0, "linear", 1.0, 0.0), (1, "squared", 2.0, 0.0), (2, "linear", 0.5, 0.0)]
    ),
}
every_class = pytest.mark.parametrize("fn", FNS.values(), ids=FNS.keys())
K = 5
WORST = (1.0, 1.0, 1.0)
BEST = (0.0, 0.0, 0.0)


def _bytes(result):
    canonicalize(result)
    return result.tids, result.scores


class Routed:
    """A router over a private system whose every read is checked against
    an unrouted session pinned at the same snapshot."""

    def __init__(self, system):
        self.system = system
        self.router = QueryRouter.for_system(system)
        self.relation = system.relation
        self.fn = FN
        # Cell A = a0 (and the other boolean value that a0 rows avoid).
        self.a0 = self.relation.bool_row(0)[0]
        self.inside = self.relation.bool_row(0)
        self.outside = next(
            self.relation.bool_row(tid)
            for tid in self.relation.live_tids()
            if self.relation.bool_row(tid)[0] != self.a0
        )
        dim = self.relation.schema.boolean_dims[0]
        self.cell = BooleanPredicate({dim: self.a0})

    def read(self, kind, snapshot=None, **kwargs):
        pinned = snapshot or self.system.pin_snapshot()
        kwargs.setdefault("predicate", BooleanPredicate())
        try:
            routed = self.router.route(
                QuerySession.for_snapshot(pinned), RouteRequest(kind, **kwargs)
            )
            serial = getattr(QuerySession.for_snapshot(pinned), kind)(**kwargs)
            assert (routed.tids, routed.scores) == _bytes(serial), (
                f"{kind} {routed.stats.cache_outcome} diverged from the "
                f"unrouted answer at epoch {pinned.epoch}"
            )
            assert routed.stats.epoch == pinned.epoch
        finally:
            if snapshot is None:
                self.system.unpin_snapshot(pinned)
        return routed

    def outcome(self, kind, **kwargs):
        return self.read(kind, **kwargs).stats.cache_outcome

    def skyline(self, **kwargs):
        return self.read("skyline", predicate=self.cell, **kwargs)

    def topk(self, k=K):
        return self.read("topk", fn=self.fn, k=k, predicate=self.cell)

    def non_member(self, answer):
        return next(
            tid
            for tid in self.relation.live_tids()
            if self.cell.matches(self.relation, tid)
            and tid not in answer.tids
        )

    def counters(self):
        return self.router.cache.snapshot()


@pytest.fixture
def routed(fresh_system):
    return Routed(
        fresh_system(n_tuples=300, cardinality=3, n_preference=3, seed=31)
    )


def _worse(point):
    return tuple(x + 1e-3 for x in point)


def _better(point):
    return tuple(x * 0.5 for x in point)


# -- the cell test -------------------------------------------------------- #


def test_write_outside_the_cell_carries_and_stamps_the_computed_epoch(routed):
    first = routed.skyline()
    assert first.stats.cache_outcome == "miss"
    assert first.stats.cache_computed_epoch is None
    routed.system.insert(routed.outside, BEST)
    carried = routed.skyline()
    assert carried.stats.cache_outcome == "hit"
    assert carried.stats.cache_computed_epoch == first.stats.epoch
    assert carried.stats.epoch == first.stats.epoch + 1
    view = routed.counters()
    assert (view["carried"], view["invalidated"]) == (1, 0)


def test_apex_entry_sees_every_write(routed):
    before = routed.read("skyline")
    tid, _ = routed.system.insert(routed.outside, BEST)
    after = routed.read("skyline")
    assert after.stats.cache_outcome == "miss"
    assert tid in after.tids and after.tids != before.tids
    assert routed.counters()["dropped_answer"] == 1


# -- the answer test: skylines ------------------------------------------- #


def test_skyline_insert_dominated_dominating_and_equal(routed):
    member = routed.relation.pref_point(routed.skyline().tids[0])
    routed.system.insert(routed.inside, _worse(member))
    assert routed.skyline().stats.cache_outcome == "hit"

    tid, _ = routed.system.insert(routed.inside, member)  # a tie is not <
    equal = routed.skyline()
    assert equal.stats.cache_outcome == "miss" and tid in equal.tids

    tid, _ = routed.system.insert(routed.inside, _better(member))
    dominating = routed.skyline()
    assert dominating.stats.cache_outcome == "miss" and tid in dominating.tids
    view = routed.counters()
    assert (view["carried"], view["dropped_answer"]) == (1, 2)
    assert view["invalidated"] == 2


def test_skyline_delete_and_update_of_members_and_non_members(routed):
    answer = routed.skyline()
    routed.system.delete(routed.non_member(answer))
    assert routed.skyline().stats.cache_outcome == "hit"

    member_point = routed.relation.pref_point(answer.tids[0])
    routed.system.update(routed.non_member(answer), _worse(member_point))
    assert routed.skyline().stats.cache_outcome == "hit"

    mover = routed.non_member(answer)
    routed.system.update(mover, _better(member_point))
    moved = routed.skyline()
    assert moved.stats.cache_outcome == "miss" and mover in moved.tids

    # A written member drops the entry even when its new point is worse.
    routed.system.update(moved.tids[0], WORST)
    assert routed.skyline().stats.cache_outcome == "miss"
    gone = routed.skyline().tids[0]
    routed.system.delete(gone)
    after = routed.skyline()
    assert after.stats.cache_outcome == "miss" and gone not in after.tids


def test_subspace_skyline_is_tested_on_its_own_dimensions(routed):
    subspace = routed.relation.schema.preference_dims[:2]
    projected = routed.skyline(preference_by=subspace)
    routed.skyline()
    x, y, _ = routed.relation.pref_point(projected.tids[0])
    # Dominated on (P0, P1), unbeatable on P2: only the full space admits it.
    tid, _ = routed.system.insert(routed.inside, (x + 1e-3, y + 1e-3, 0.0))
    assert routed.skyline(preference_by=subspace).stats.cache_outcome == "hit"
    full = routed.skyline()
    assert full.stats.cache_outcome == "miss" and tid in full.tids


# -- the answer test: top-k ---------------------------------------------- #


@every_class
def test_topk_insert_worse_equal_and_better_than_the_kth(routed, fn):
    routed.fn = fn
    answer = routed.topk()
    routed.system.insert(routed.inside, WORST)
    assert routed.topk().stats.cache_outcome == "hit"

    kth_point = routed.relation.pref_point(answer.tids[-1])
    routed.system.insert(routed.inside, kth_point)  # ties the k-th score
    assert routed.topk().stats.cache_outcome == "miss"

    tid, _ = routed.system.insert(routed.inside, BEST)
    better = routed.topk()
    assert better.stats.cache_outcome == "miss" and better.tids[0] == tid
    assert routed.counters()["dropped_answer"] == 2


@every_class
def test_topk_delete_and_update(routed, fn):
    routed.fn = fn
    answer = routed.topk()
    routed.system.delete(routed.non_member(answer))
    routed.system.update(routed.non_member(answer), WORST)
    assert routed.topk().stats.cache_outcome == "hit"
    routed.system.update(answer.tids[0], WORST)
    assert routed.topk().stats.cache_outcome == "miss"
    routed.system.delete(routed.topk().tids[-1])
    assert routed.topk().stats.cache_outcome == "miss"


@every_class
def test_short_topk_drops_on_the_cell_test_alone(routed, fn):
    routed.fn = fn
    short = routed.topk(k=500)
    assert len(short.tids) < 500
    tid, _ = routed.system.insert(routed.inside, WORST)
    after = routed.topk(k=500)
    assert after.stats.cache_outcome == "miss" and after.tids[-1] == tid
    view = routed.counters()
    assert (view["dropped_cell"], view["dropped_answer"]) == (1, 0)
    routed.system.insert(routed.outside, BEST)
    assert routed.topk(k=500).stats.cache_outcome == "hit"


# -- more than one row, more than one publish ---------------------------- #


def test_insert_batch_one_row_in_the_cell_nine_outside(routed):
    member = routed.relation.pref_point(routed.skyline().tids[0])
    routed.topk()
    rows = [(routed.outside, BEST)] * 9
    routed.system.insert_batch(rows + [(routed.inside, _worse(member))])
    assert routed.skyline().stats.cache_outcome == "hit"
    assert routed.topk().stats.cache_outcome == "hit"
    tids, _ = routed.system.insert_batch(
        [(routed.inside, _better(member))] + rows
    )
    sky = routed.skyline()
    assert sky.stats.cache_outcome == "miss" and tids[0] in sky.tids


def test_two_publishes_between_two_reads(routed):
    answer = routed.skyline()
    routed.topk()
    member = routed.relation.pref_point(answer.tids[0])
    routed.system.insert(routed.inside, _worse(member))
    routed.system.delete(routed.non_member(answer))
    assert routed.skyline().stats.cache_outcome == "hit"
    assert routed.counters()["carried"] == 2  # one reconcile, two entries
    # One bad delta among good ones is enough.
    routed.system.insert(routed.outside, BEST)
    routed.system.insert(routed.inside, BEST)
    routed.system.insert(routed.outside, WORST)
    assert routed.skyline().stats.cache_outcome == "miss"
    assert routed.topk().stats.cache_outcome == "miss"


@pytest.mark.parametrize("survives", [True, False])
def test_late_put_from_an_old_pin_is_judged_by_the_same_rule(routed, survives):
    old = routed.system.pin_snapshot()
    routed.system.insert(routed.outside, BEST)
    routed.system.insert(routed.inside, WORST if survives else BEST)
    assert routed.outcome("skyline") == "miss"  # reconciles two epochs ahead
    late = routed.skyline(snapshot=old)
    assert late.stats.cache_outcome == "miss" and late.stats.epoch == old.epoch
    routed.system.unpin_snapshot(old)
    assert all(
        key[0] == routed.system.epochs.current_epoch
        for key in routed.router.cache._entries
    )
    current = routed.skyline()
    if survives:
        assert current.stats.cache_outcome == "hit"
        assert current.stats.cache_computed_epoch == old.epoch
    else:
        assert current.stats.cache_outcome == "miss"
        assert current.tids != late.tids


# -- unknown ⇒ drop ------------------------------------------------------ #


def test_publishers_without_a_write_set_flush(routed):
    routed.skyline()
    routed.topk()
    routed.system.repair_quarantined()  # publishes; names no rows
    assert routed.skyline().stats.cache_outcome == "miss"
    assert routed.topk().stats.cache_outcome == "miss"
    view = routed.counters()
    assert (view["flushed_unknown"], view["invalidated"]) == (2, 2)
    assert view["carried"] == 0


def _crashable():
    disk = FaultyDisk(SimulatedDisk())
    relation = generate_relation(
        SyntheticConfig(
            n_tuples=113, n_boolean=2, cardinality=3, n_preference=3, seed=13
        ),
        disk=disk,
    )
    return disk, Routed(build_system(relation, fanout=5))


def test_abandoned_write_poisons_the_next_delta():
    """A crash between the relation append and the commit leaves a row no
    write set names; whoever publishes next records "unknown"."""
    disk, routed = _crashable()
    routed.skyline()
    disk.plan = FaultPlan(
        [FaultRule(kind="crash", op="write", tag="rtree", count=1)]
    )
    with pytest.raises(SimulatedCrash):
        routed.system.insert(routed.outside, BEST)
    disk.plan = FaultPlan()
    epochs = routed.system.epochs
    assert epochs.stats.abandoned == 1
    assert routed.skyline().stats.cache_outcome == "hit"  # nothing published
    assert routed.system.recover() == "reindexed"
    assert epochs.deltas_between(epochs.current_epoch - 1, epochs.current_epoch) is None
    assert routed.skyline().stats.cache_outcome == "miss"
    assert routed.counters()["flushed_unknown"] == 1


def test_abandoned_write_poisons_a_publish_that_names_its_rows(fresh_system):
    system = fresh_system(n_tuples=113)
    epochs = system.epochs
    with pytest.raises(RuntimeError, match="boom"):
        with epochs.write():
            raise RuntimeError("boom")
    row = (0, system.relation.bool_row(0), None)
    with epochs.write():
        poisoned = epochs.publish([row]).epoch
    with epochs.write():
        named = epochs.publish([row]).epoch
    assert epochs.deltas_between(poisoned - 1, poisoned) is None
    assert epochs.deltas_between(poisoned, named) == [row]
    assert epochs.deltas_between(poisoned - 1, named) is None
    assert epochs.deltas_between(named, named) == []


@pytest.mark.parametrize("extra", [0, 1])
def test_a_delta_that_fell_off_the_log_is_unknown(extra):
    _, routed = _crashable()
    routed.skyline()
    for _ in range(DELTA_LOG_EPOCHS + extra):
        routed.system.insert(routed.outside, WORST)
    assert routed.outcome("skyline", predicate=routed.cell) == (
        "miss" if extra else "hit"
    )
    assert routed.counters()["flushed_unknown"] == extra
    assert len(routed.system.epochs._deltas) == DELTA_LOG_EPOCHS
