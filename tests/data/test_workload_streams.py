"""The seeded workload streams are pinned: same generator, same draws.

Every driver under ``src/repro`` — the serving sweeps, ``serve --smoke`` /
``--health``, ``audit``, ``backup``, the durability sweep — replays
:mod:`repro.data.workload`.  The digests below were computed at the commit
that still carried the drivers' own copies (``audit.run_workload``,
``backup._record_workload``, ``bench/durability._run_workload`` — one digest,
all three agreed — and the two ``_build_workload``s), over the first 40 ops
of each mix at seed 7 on ``small_config()``, so "the shared generator draws
what the copies drew" is a test and not a belief.
"""

from __future__ import annotations

import hashlib
import random

import pytest

from repro.data.synthetic import generate_relation
from repro.data.workload import (
    READ_KINDS,
    apply_op,
    maintenance_ops,
    read_mix,
)
from repro.system import build_system

GOLDEN = {
    "maintenance": "e7d65d7293360837",
    "read/skyline,topk": "1fabea078e5c6a04",
    "read/all four kinds": "e07da9a2cecca3bd",
}


def _digest(obj) -> str:
    return hashlib.sha256(repr(obj).encode()).hexdigest()[:16]


def _canonical_reads(workload) -> list[tuple]:
    out = []
    for kind, kwargs in workload:
        fn = kwargs.get("fn")
        point = kwargs.get("query_point")
        out.append(
            (
                kind,
                tuple(kwargs["predicate"]),
                fn.weights if fn is not None else None,
                kwargs.get("k"),
                tuple(point) if point is not None else None,
            )
        )
    return out


def test_maintenance_mix_is_the_stream_the_three_copies_drew(small_config):
    system = build_system(generate_relation(small_config), fanout=8)
    ops = []
    for op in maintenance_ops(system.relation, random.Random(7), 40):
        apply_op(system, op)  # the next draw sees this one applied
        ops.append(op)
    assert _digest(ops) == GOLDEN["maintenance"]
    assert {kind for kind, _ in ops} == {
        "insert",
        "insert_batch",
        "delete",
        "update",
    }
    assert system.verify_consistency().ok


@pytest.mark.parametrize(
    "kinds, golden",
    [
        (("skyline", "topk"), "read/skyline,topk"),
        (READ_KINDS, "read/all four kinds"),
    ],
)
def test_read_mix_is_the_stream_both_copies_drew(small_system, kinds, golden):
    workload = read_mix(
        small_system.relation, random.Random(7), 40, kinds=kinds
    )
    assert _digest(_canonical_reads(workload)) == GOLDEN[golden]
    assert [kind for kind, _ in workload[: len(kinds)]] == list(kinds)
    # One list is both the workload and its reference run.
    kind, kwargs = workload[1]
    assert getattr(small_system.engine, kind)(**kwargs).tids


def test_read_mix_rejects_an_unknown_kind(small_system):
    with pytest.raises(ValueError, match="unknown read kind"):
        read_mix(small_system.relation, random.Random(7), 2, kinds=("hull",))
