"""QueryStats: accessors and the disk-latency model."""

import pytest

from repro.query.stats import QueryStats
from repro.storage.counters import BINDEX, BTABLE, DBLOCK, DBOOL, SBLOCK, SSIG


def test_fresh_stats_zero():
    stats = QueryStats()
    assert stats.total_io() == 0
    assert stats.peak_heap == 0
    assert stats.ssig == stats.sblock == stats.dblock == 0
    assert stats.counters.snapshot() == {}


def test_category_accessors():
    stats = QueryStats()
    stats.counters.record(SSIG, 2)
    stats.counters.record(SBLOCK, 3)
    stats.counters.record(DBLOCK, 5)
    stats.counters.record(DBOOL, 7)
    stats.counters.record(BINDEX, 11)
    stats.counters.record(BTABLE, 13)
    assert (stats.ssig, stats.sblock, stats.dblock) == (2, 3, 5)
    assert {cat: stats.counters.get(cat) for cat in (DBOOL, BINDEX, BTABLE)} == {
        DBOOL: 7, BINDEX: 11, BTABLE: 13
    }
    assert stats.total_io() == 41


def test_note_heap_keeps_maximum():
    stats = QueryStats()
    for size in (3, 10, 4):
        stats.note_heap(size)
    assert stats.peak_heap == 10


def test_modeled_seconds():
    stats = QueryStats()
    stats.elapsed_seconds = 0.1
    stats.counters.record(SBLOCK, 20)
    assert stats.modeled_seconds(0.005) == pytest.approx(0.1 + 0.1)
    assert stats.modeled_seconds(0.0) == pytest.approx(0.1)


def test_modeled_seconds_validation():
    with pytest.raises(ValueError):
        QueryStats().modeled_seconds(-1.0)


def test_routing_fields_default_unset():
    stats = QueryStats()
    assert stats.route is None
    assert stats.fallbacks == 0
    assert stats.cache_outcome is None
