"""Tier-1 guard for the end-to-end benchmark's recorder targets.

``benchmarks/e2e/tracing.py`` wraps functions under ``src/`` by name; a
refactor that moves or renames one would otherwise only fail when the
benchmark next runs.  This resolves every target the way
``SpanRecorder.install`` does and does one install / uninstall round trip.
Read-only use of ``benchmarks/e2e``.
"""

from __future__ import annotations

import importlib

from benchmarks.e2e.tracing import TARGETS, SpanRecorder


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
