"""ResultCache unit behaviour: keys, LRU, reconcile / carry, signature memo."""

from __future__ import annotations

import pytest

from repro.query.predicates import BooleanPredicate
from repro.query.ranking import (
    LinearFunction,
    SeparableFunction,
    WeightedSquaredDistance,
)
from repro.route import APEX, CachedAnswer, ResultCache, result_key

pytestmark = pytest.mark.routing


def _answer(tids=(1, 2), scores=None, strategy="naive"):
    return CachedAnswer(
        tids=tuple(tids), scores=scores, strategy=strategy, tier=None
    )


def test_key_embeds_epoch_kind_cell_and_digest():
    predicate = BooleanPredicate({"A": 1})
    key = result_key("skyline", predicate, None, None, None, epoch=7)
    assert key[0] == 7
    assert key[1] == "skyline"
    assert key[2] == predicate.cell().cell_id
    assert key[3] == "*"

    apex = result_key("skyline", BooleanPredicate(), None, None, None, 7)
    assert apex[2] == APEX

    subspace = result_key(
        "skyline", predicate, ("X", "Y"), None, None, 7
    )
    assert subspace[3] == "X,Y"


def test_key_distinguishes_fn_and_k():
    predicate = BooleanPredicate({"A": 1})
    base = result_key(
        "topk", predicate, None, LinearFunction((1.0, 2.0)), 5, 7
    )
    other_fn = result_key(
        "topk", predicate, None, LinearFunction((2.0, 1.0)), 5, 7
    )
    other_k = result_key(
        "topk", predicate, None, LinearFunction((1.0, 2.0)), 6, 7
    )
    assert len({base, other_fn, other_k}) == 3


def test_key_uses_the_cache_token_not_the_repr():
    predicate = BooleanPredicate()
    functions = (
        LinearFunction((1.0, 2.0)),
        LinearFunction((2.0, 1.0)),
        LinearFunction((1.0, 1.0, 1.0)),
        WeightedSquaredDistance((0.5, 0.5)),
        WeightedSquaredDistance((0.5, 0.5), (1.0, 2.0)),
        SeparableFunction([(0, "linear", 1.0, 0.0)]),
        SeparableFunction([(0, "squared", 1.0, 0.0)]),
    )
    tokens = [fn.cache_token() for fn in functions]
    assert len({hash(token) for token in tokens}) == len(tokens)
    for fn in functions:
        assert result_key("topk", predicate, None, fn, 5, 7)[4][1] == fn.cache_token()
    assert LinearFunction((1, 1)).cache_token() == LinearFunction((1.0, 1.0)).cache_token()


def test_key_distinguishes_epochs():
    predicate = BooleanPredicate({"A": 1})
    old = result_key("skyline", predicate, None, None, None, 7)
    new = result_key("skyline", predicate, None, None, None, 8)
    assert old != new


def test_get_put_and_counters():
    cache = ResultCache(capacity=4)
    key = ("k",)
    assert cache.get(key) is None
    cache.put(key, _answer())
    hit = cache.get(key)
    assert hit is not None and hit.tids == (1, 2)
    view = cache.snapshot()
    assert view["stores"] == 1
    # A lookup's outcome is the router's count (RouterStats), not the cache's.
    assert not {"hits", "misses", "bypassed"} & set(view)
    assert len(cache) == 1


def test_lru_eviction_prefers_recently_used():
    cache = ResultCache(capacity=2)
    cache.put(("a",), _answer())
    cache.put(("b",), _answer())
    cache.get(("a",))  # refresh "a": "b" becomes the LRU victim
    cache.put(("c",), _answer())
    assert cache.get(("a",)) is not None
    assert cache.get(("b",)) is None
    assert cache.snapshot()["evicted"] == 1


def test_on_epoch_drops_only_dead_epochs():
    """With nobody to say what the epochs in between wrote, every older
    entry is dead (flush-all survives only as this); the reader's own epoch
    is untouched, and nothing is re-examined until the epoch moves again.
    (Was: "older keys are unreachable, dropping them is reclamation" —
    older entries are now candidates for the carry, see below.)"""
    cache = ResultCache()
    cache.put((3, "skyline"), _answer())
    cache.put((4, "skyline"), _answer())
    cache.put((5, "skyline"), _answer())
    dropped = cache.on_epoch(5)
    assert dropped == 2
    assert cache.get((5, "skyline")) is not None
    assert cache.get((3, "skyline")) is None
    view = cache.snapshot()
    assert (view["invalidated"], view["flushed_unknown"]) == (2, 2)
    assert cache.on_epoch(5) == 0  # idempotent at the same epoch
    assert cache.on_epoch(4) == 0  # and never walks backwards


def _testable(tids=(1, 2), points=((0.2, 0.2), (0.1, 0.9))):
    return CachedAnswer(
        tids=tuple(tids),
        scores=None,
        strategy="signature",
        tier="signature",
        computed_epoch=3,
        conjuncts=((0, "a"),),
        points=points,
    )


def test_on_epoch_carries_what_the_deltas_cannot_change():
    log = {
        4: [(7, ("b", "x"), (0.0, 0.0))],  # another cell
        5: [(8, ("a", "x"), (0.3, 0.3))],  # dominated by member 1
        6: [(9, ("a", "y"), (0.05, 0.05))],  # enters the skyline
    }
    asked = []

    def deltas(after, upto):
        asked.append((after, upto))
        return [row for e in range(after + 1, upto + 1) for row in log[e]]

    cache = ResultCache()
    cache.put((3, "skyline", "A=a"), _testable())
    cache.put((3, "opaque"), _answer())  # no predicate to test: never carried
    assert cache.on_epoch(5, deltas) == 1
    carried = cache.get((5, "skyline", "A=a"))
    assert carried is not None and carried.computed_epoch == 3
    assert cache.on_epoch(5, deltas) == 0 and cache.on_epoch(4, deltas) == 0
    assert asked == [(3, 5)]  # one lookup per entry epoch, none when idle

    # A late put from a reader pinned at 3 walks the same deltas...
    cache.put((3, "skyline", "late"), _testable(), deltas)
    assert cache.get((5, "skyline", "late")) is not None
    # ...and is refused when it has no delta source to be judged by.
    cache.put((3, "skyline", "blind"), _testable())
    assert all(key[0] == 5 for key in cache._entries)

    assert cache.on_epoch(6, deltas) == 2
    assert len(cache) == 0
    view = cache.snapshot()
    assert view["carried"] == 2
    assert view["dropped_cell"] == 1
    assert view["dropped_answer"] == 2
    assert view["flushed_unknown"] == 1
    assert view["invalidated"] == 4


def test_invalid_capacity_rejected():
    with pytest.raises(ValueError):
        ResultCache(capacity=0)
