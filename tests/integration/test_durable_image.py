"""The write side's disk image, pinned.

Every WAL and checkpoint page is part of the durable contract: restore and
recovery read them back on a later "process", so a refactor of the write
path must leave them byte-for-byte where they were.  Page checksums see a
dict payload by type only, so the digest below takes each ``wal:*`` /
``ckpt:*`` page's id, tag, logical size and *record CRC* (over the
record's content), plus the counted reads and metrics of
``MaintenanceWAL.read_committed`` over the whole archive and behind the
newest checkpoint.

Two runs are pinned: the default scenario of ``python -m repro.backup``
(four checkpoints, eight sealed segments) and the audit workload crashed at
its 60th WAL record append, past three segment seals, and recovered
(``python -m repro.audit --crash-op allocate --crash-tag wal:rec
--crash-after 59``).  The literals were recorded before the write side
was folded into one journal protocol, and re-recorded when the store's
(cell, ref) B+-tree went: its pages no longer take page ids, so later ids
and the checkpoint manifests' ``row_pages`` shifted, while every row's
tag, size and content and both metric lists stayed.  The backup digest was
re-recorded once more when ``maintainable`` left the manifests' ``config``:
the four ``ckpt:c*:manifest`` rows changed their CRC and nothing else did
(same ids and sizes; the crash image did not move).  It was re-recorded
again when every system gained its epoch manager: a manifest's ``epoch``
is now the published epoch (1, 9, 17, 25 in this scenario) where a system
without epochs wrote 0, so the same four manifest rows changed their CRC
and nothing else did.  Both digests were re-recorded when the served build
stopped making the baselines' B+-trees: their two pages no longer take page
ids, so every ``wal:*`` / ``ckpt:*`` id moved down by 2, and the four
manifests' ``config`` now records ``page_size`` in place of the B+-tree
flag (their ``row_pages`` shifted with the ids).  Every row's tag and
size, every other record's CRC and all four metric lists stayed.  Both
digests were re-recorded when the record CRC began to cover the C JSON
encoder's canonical text (sorted keys, compact separators) in place of a
text rendered in Python: every row's CRC moved and nothing else did — each
page's id, tag and size, each record's content (compared field by field
with the CRC left out) and all four metric lists stayed.  Both were
re-recorded when a journalled write stopped appending ``changes`` and
``cell`` records (an operation is its intent and its commit): the backup
scenario's 24 operations write 48 records where they wrote 246, so ids,
the seal count (9 → 8) and the metric lists moved.  The crash moved from
the 201st append to the 60th: the workload now makes only 60, and the
60th is the last operation's commit — a commit append is the one WAL
crash that leaves an operation pending (a crash on an intent means the
operation never happened), so recovery still has work to redo.  Both
were re-recorded when a write that empties a cell began to drop it, as a
build leaves such a cell absent, instead of storing one empty partial:
three cells empty in each run, so one signature page fewer is allocated
after the first of them and three after the last, and later ``wal:*`` /
``ckpt:*`` ids moved down by 1 and then 3 (the two checkpoint manifests
written after them list the shifted ``row_pages``, so their CRC moved).
Every row's tag, size and every other record's CRC, and all four metric
lists, stayed.  A change that means to move the image re-records them and
says why.
"""

from __future__ import annotations

import argparse
import hashlib
import random

import pytest

from repro.backup import build_scenario
from repro.core.checkpoint import catalog_checkpoints
from repro.core.wal import MaintenanceWAL, record_crc
from repro.data.fixtures import build_scenario_system
from repro.data.workload import apply_op, maintenance_ops
from repro.storage.disk import SimulatedDisk
from repro.storage.faults import FaultPlan, FaultRule, FaultyDisk, SimulatedCrash

pytestmark = [pytest.mark.durability, pytest.mark.crash]

#: The ``python -m repro.backup`` / ``repro.audit`` defaults.
SEED = 20080401
TUPLES = 120
FANOUT = 6

#: (digest of the wal:* and ckpt:* pages, pages digested, read_committed
#: metrics over the archive, the same behind the newest checkpoint).
IMAGES = {
    "backup": (
        "5859f8d079ccedfc",
        68,
        [("damaged_ignored", 0), ("record_reads", 48), ("seal_reads", 8),
         ("segments_scanned", 8), ("segments_skipped", 0)],
        [("damaged_ignored", 0), ("record_reads", 0), ("seal_reads", 8),
         ("segments_scanned", 0), ("segments_skipped", 8)],
    ),
    "crash_wal_rec": (
        "1c204d61036fe223",
        64,
        [("damaged_ignored", 0), ("record_reads", 60), ("seal_reads", 4),
         ("segments_scanned", 4), ("segments_skipped", 0)],
        [("damaged_ignored", 0), ("record_reads", 60), ("seal_reads", 4),
         ("segments_scanned", 4), ("segments_skipped", 0)],
    ),
}


def image(disk) -> tuple:
    rows = [
        (page.page_id, page.tag, page.size, record_crc(page.payload))
        for page in sorted(disk.pages(), key=lambda page: page.page_id)
        if page.tag.startswith(("wal:", "ckpt:"))
    ]
    digest = hashlib.sha256(repr(rows).encode()).hexdigest()[:16]
    _, archive = MaintenanceWAL.read_committed(disk)
    checkpoints = catalog_checkpoints(disk)
    after = checkpoints[-1].watermark_lsn - 1 if checkpoints else -1
    _, behind = MaintenanceWAL.read_committed(disk, after_lsn=after)
    return digest, len(rows), sorted(archive.items()), sorted(behind.items())


def backup_image() -> tuple:
    scenario = build_scenario(
        argparse.Namespace(
            tuples=TUPLES,
            ops=24,
            seed=SEED,
            fanout=FANOUT,
            checkpoint_every=8,
            segment_bytes=1024,
        )
    )
    return image(scenario.system.disk)


def crash_image() -> tuple:
    disk = FaultyDisk(SimulatedDisk())
    system = build_scenario_system(TUPLES, SEED, fanout=FANOUT, disk=disk)
    disk.plan = FaultPlan(
        [FaultRule(kind="crash", op="allocate", tag="wal:rec", after=59)]
    )
    with pytest.raises(SimulatedCrash):
        for op in maintenance_ops(system.relation, random.Random(SEED), 30):
            apply_op(system, op)
    disk.plan = FaultPlan()
    assert system.recover() == "reindexed"
    assert system.verify_consistency().ok
    return image(disk)


def test_the_backup_scenario_leaves_the_pinned_image():
    assert backup_image() == IMAGES["backup"]


def test_a_crash_in_a_wal_append_recovers_to_the_pinned_image():
    assert crash_image() == IMAGES["crash_wal_rec"]
