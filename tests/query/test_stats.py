"""QueryStats: accessors, the disk-latency model, summaries."""

import pytest

from repro.query.stats import QueryStats
from repro.storage.counters import BINDEX, BTABLE, DBLOCK, DBOOL, SBLOCK, SSIG


def test_fresh_stats_zero():
    stats = QueryStats()
    assert stats.total_io() == 0
    assert stats.peak_heap == 0
    assert stats.ssig == stats.sblock == stats.dblock == stats.dbool == 0
    assert stats.bindex == stats.btable == 0


def test_category_accessors():
    stats = QueryStats()
    stats.counters.record(SSIG, 2)
    stats.counters.record(SBLOCK, 3)
    stats.counters.record(DBLOCK, 5)
    stats.counters.record(DBOOL, 7)
    stats.counters.record(BINDEX, 11)
    stats.counters.record(BTABLE, 13)
    assert (stats.ssig, stats.sblock, stats.dblock) == (2, 3, 5)
    assert (stats.dbool, stats.bindex, stats.btable) == (7, 11, 13)
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


def test_summary_contents():
    stats = QueryStats()
    stats.elapsed_seconds = 0.5
    stats.results = 4
    stats.counters.record(SSIG, 1)
    summary = stats.summary()
    assert summary["elapsed_seconds"] == 0.5
    assert summary["results"] == 4
    assert summary["total_io"] == 1
    assert summary[SSIG] == 1


# -- summary() key-set regression pins ---------------------------------- #
#
# summary() is the paper-comparable surface (Table II / the figures), so
# its key set is pinned: the clean set, the degraded block, and *nothing
# else*.  Serving-only annotations — the degraded flag's cousins from the
# routing layer (route, fallbacks, cache_outcome) — are deliberately kept
# out so routed and unrouted runs of the same query stay diffable.

CLEAN_SUMMARY_KEYS = frozenset({"elapsed_seconds", "total_io", "peak_heap", "results"})
DEGRADED_BLOCK_KEYS = frozenset(
    {
        "degraded",
        "fault_retries",
        "failed_loads",
        "degraded_checks",
        "breaker_skips",
    }
)


def test_summary_key_set_clean():
    stats = QueryStats()
    stats.counters.record(SSIG, 1)
    stats.counters.record(BTABLE, 2)
    assert set(stats.summary()) == CLEAN_SUMMARY_KEYS | {SSIG, BTABLE}


def test_summary_key_set_degraded():
    stats = QueryStats()
    stats.degraded = True
    stats.fault_retries = 2
    assert (
        set(stats.summary()) == CLEAN_SUMMARY_KEYS | DEGRADED_BLOCK_KEYS
    )


def test_routing_fields_never_leak_into_summary():
    """route/fallbacks/cache_outcome exist on QueryStats but must stay out
    of summary() in every combination — including alongside degradation."""
    stats = QueryStats()
    stats.route = "signature"
    stats.fallbacks = 2
    stats.cache_outcome = "hit"
    stats.cache_computed_epoch = 3
    assert set(stats.summary()) == CLEAN_SUMMARY_KEYS

    stats.degraded = True
    keys = set(stats.summary())
    assert keys == CLEAN_SUMMARY_KEYS | DEGRADED_BLOCK_KEYS
    assert {
        "route", "fallbacks", "cache_outcome", "cache_computed_epoch"
    }.isdisjoint(keys)


def test_routing_fields_default_unset():
    stats = QueryStats()
    assert stats.route is None
    assert stats.fallbacks == 0
    assert stats.cache_outcome is None
