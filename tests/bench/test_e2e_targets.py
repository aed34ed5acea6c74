"""Tier-1 guard for the end-to-end benchmark's recorder targets.

``benchmarks/e2e/tracing.py`` wraps functions under ``src/`` by name; a
refactor that moves or renames one would otherwise only fail when the
benchmark next runs.  This resolves every target the way
``SpanRecorder.install`` does and does one install / uninstall round trip.

The referee also reads stats snapshots by key with ``.get(key, 0)``, so a
renamed key would turn a per-layer figure into a silent zero.  The last test
runs quick traced workloads in-process and pins every *counted* figure (the
timed ones drift with the host).  ``sig_fit`` and ``sig_spill`` are the
workloads whose reads all go through Algorithm 1 with dynamic skylines and
2-conjunct look-aheads, so their pins guard every count a change to that
loop's bookkeeping must leave alone.
Read-only use of ``benchmarks/e2e``.
"""

from __future__ import annotations

import argparse
import importlib

import pytest

from benchmarks.e2e import run as e2e_run
from benchmarks.e2e.tracing import TARGETS, SpanRecorder

#: ``--quick --trace 1 --seed 7 --seconds 1``: every per-layer metric whose
#: unit is not a time or a percentage, rounded to 6 places; a counted metric
#: that is not listed reads 0.  Pure functions of the seed.  ``mixed_rw``'s
#: two write figures were re-recorded when the store's (cell, ref) B+-tree
#: went (16.25 -> 10.25 and 19.333333 -> 13.333333: its page writes left
#: every cell rewrite), and the three WAL figures when a journalled write
#: stopped appending a ``changes`` record and one ``cell`` record per
#: dirty cell (6.0 -> 2.0 records, 10.25 -> 6.25 disk writes and
#: 13.333333 -> 9.333333 disk I/O per write: four record pages fewer).
COUNTED = {
    "mixed_rw": {
        "system.disk_io_per_write": 9.333333,
        "route.cache_hit_rate": 0.5,
        "route.io_per_miss": 1.625,
        "route.share.signature": 1.0,
        "query.nodes_expanded_per_read": 3.5625,
        "query.peak_heap_p95": 199,
        "query.bool_pruned_per_read": 114.8125,
        "query.dom_pruned_per_read": 55.0625,
        "query.results_per_read": 14.625,
        "kernels.calls_per_read": 3.875,
        "kernels.rows_per_call": 52.822581,
        "core.sig_loads_per_read": 0.625,
        "core.cells_rewritten_per_write": 3.0,
        "core.partials_written_per_write": 3.0,
        "core.wal_records_per_write": 2.0,
        "bitmap.compress_calls_per_write": 6.25,
        "rtree.block_reads_per_read": 3.5625,
        "storage.disk_reads_per_read": 0.708333,
        "storage.pool_hit_rate": 0.80597,
        "storage.pool_gets_per_read": 4.1875,
        "storage.disk_reads.SSIG": 0.625,
        "storage.disk_reads.SBLOCK": 0.1875,
        "storage.disk_writes_per_write": 6.25,
        "storage.pages_freed_per_write": 3.0,
    },
    "routed_zipf": {
        "route.cache_hit_rate": 0.65,
        "route.io_per_miss": 1.857143,
        "route.share.signature": 1.0,
        "query.nodes_expanded_per_read": 3.1,
        "query.peak_heap_p95": 19,
        "query.bool_pruned_per_read": 116.65,
        "query.dom_pruned_per_read": 36.7,
        "query.results_per_read": 17.05,
        "kernels.calls_per_read": 3.4,
        "kernels.rows_per_call": 53.602941,
        "core.sig_loads_per_read": 0.4,
        "rtree.block_reads_per_read": 3.1,
        "storage.disk_reads_per_read": 0.283333,
        "storage.pool_hit_rate": 0.814286,
        "storage.pool_gets_per_read": 3.5,
        "storage.disk_reads.SSIG": 0.4,
        "storage.disk_reads.SBLOCK": 0.25,
    },
    "sig_fit": {
        "route.io_per_miss": 0.8,
        "route.share.signature": 1.0,
        "query.nodes_expanded_per_read": 10.95,
        "query.peak_heap_p95": 195,
        "query.bool_pruned_per_read": 347.8,
        "query.dom_pruned_per_read": 189.7,
        "query.results_per_read": 9.9,
        "kernels.calls_per_read": 14.35,
        "kernels.rows_per_call": 53.972125,
        "core.sig_loads_per_read": 1.0,
        "rtree.block_reads_per_read": 10.95,
        "storage.disk_reads_per_read": 0.866667,
        "storage.pool_hit_rate": 0.933054,
        "storage.pool_gets_per_read": 11.95,
        "storage.disk_reads.SSIG": 0.8,
    },
    "sig_spill": {
        "route.io_per_miss": 1.533333,
        "route.share.signature": 1.0,
        "query.nodes_expanded_per_read": 10.1,
        "query.peak_heap_p95": 145,
        "query.bool_pruned_per_read": 333.55,
        "query.dom_pruned_per_read": 170.75,
        "query.results_per_read": 9.55,
        "kernels.calls_per_read": 14.05,
        "kernels.rows_per_call": 53.850534,
        "core.sig_loads_per_read": 1.0,
        "rtree.block_reads_per_read": 10.1,
        "storage.disk_reads_per_read": 1.066667,
        "storage.pool_hit_rate": 0.864865,
        "storage.pool_gets_per_read": 11.1,
        "storage.disk_reads.SSIG": 1.0,
        "storage.disk_reads.SBLOCK": 0.5,
    },
}


def _resolve(target):
    """``(holder, function)`` exactly as ``install()`` looks it up: class
    targets through ``cls.__dict__``, module targets through ``getattr``."""
    module_name, _, class_name = target.owner.partition(":")
    module = importlib.import_module(module_name)
    if class_name:
        cls = getattr(module, class_name)
        return cls, cls.__dict__[target.attr]
    return module, getattr(module, target.attr)


def test_every_target_resolves():
    missing = []
    for target in TARGETS:
        try:
            _resolve(target)
        except (ImportError, AttributeError, KeyError) as exc:
            missing.append(f"{target.owner}.{target.attr}: {exc!r}")
    assert not missing, "\n".join(missing)


def test_install_uninstall_round_trip_restores_originals():
    before = [_resolve(target) for target in TARGETS]
    recorder = SpanRecorder()
    recorder.install()
    try:
        for target, (_, original) in zip(TARGETS, before):
            assert _resolve(target)[1].__wrapped__ is original, target
    finally:
        recorder.uninstall()
    assert not recorder.patched
    assert [_resolve(target) for target in TARGETS] == before


@pytest.mark.parametrize("workload", sorted(COUNTED))
def test_counted_per_layer_figures_are_pinned(workload, tmp_path, monkeypatch):
    monkeypatch.setattr(e2e_run, "OUT_DIR", tmp_path)
    args = argparse.Namespace(
        workload=workload, seed=7, seconds=1.0, trace=1, quick=True
    )
    result, details = e2e_run.run(args)
    assert result["correct"] and not details["problems"]
    counted = {
        name: round(metric["value"], 6)
        for name, metric in result["metrics"].items()
        if metric["unit"] not in ("ms", "%")
    }
    assert counted == {**dict.fromkeys(counted, 0), **COUNTED[workload]}
