"""Acceptance: every declared crash point in every maintenance op recovers.

The crash-safety contract (ISSUE: crash-safe incremental maintenance): a
:class:`SimulatedCrash` injected at *any* disk access a maintenance
operation performs — WAL record appends, heap paging, R-tree node
allocations and writes, signature-page allocations — leaves the system
recoverable: after ``recover()``, ``verify_consistency()`` reports zero
problems and top-k / skyline answers under sampled predicates are
byte-identical to a crash-free run of the same operation.

The sweep enumerates the crash points empirically: a ``probability=0.0``
crash rule never fires but still counts matching accesses, so each
(op, tag) site's access count bounds the ``after=k`` sweep exactly.
"""

import random
from collections import Counter

import pytest

from repro.data.synthetic import SyntheticConfig, generate_relation
from repro.data.workload import sample_linear_function, sample_predicate
from repro.query.predicates import BooleanPredicate
from repro.storage.disk import SimulatedDisk
from repro.storage.faults import (
    FaultPlan,
    FaultRule,
    FaultyDisk,
    SimulatedCrash,
)
from repro.system import build_system

pytestmark = pytest.mark.crash

#: 113 tuples fill exactly one heap page (rows_per_page for 2+2 columns at
#: 4 KB), so the first maintenance insert must allocate a heap page — the
#: ("allocate", "heap") crash point is guaranteed to occur.
CONFIG = dict(
    n_tuples=113, n_boolean=2, cardinality=3, n_preference=2, seed=13
)

#: Every (op, tag-prefix) pair at which maintenance touches the disk.
CRASH_SITES = [
    ("allocate", "wal"),
    ("allocate", "heap"),
    ("allocate", "rtree"),
    ("write", "rtree"),
    ("allocate", "pcube:sig"),
]


def make_system():
    disk = FaultyDisk(SimulatedDisk())
    relation = generate_relation(SyntheticConfig(**CONFIG), disk=disk)
    return disk, build_system(relation, fanout=5)


def run_insert(system):
    system.insert(system.relation.bool_row(0), (0.42, 0.17))


def run_insert_batch(system):
    rows = [
        (system.relation.bool_row(tid), (0.1 * tid + 0.05, 0.93 - 0.1 * tid))
        for tid in range(5)
    ]
    system.insert_batch(rows)


def run_insert_split(system):
    """Five rows next to each other overflow one leaf: the only op that
    allocates R-tree pages (a node split)."""
    rows = [
        (system.relation.bool_row(tid), (0.42 + 0.001 * tid, 0.17))
        for tid in range(5)
    ]
    system.insert_batch(rows)


def run_delete(system):
    system.delete(7)


def run_update(system):
    system.update(11, (0.9, 0.05))


OPS = {
    "insert": run_insert,
    "insert_batch": run_insert_batch,
    "insert_split": run_insert_split,
    "delete": run_delete,
    "update": run_update,
}


def fingerprint(system):
    """Query answers under sampled predicates — the byte-identity probe."""
    rng = random.Random(99)
    fn = sample_linear_function(system.relation.schema.n_preference, rng)
    out = []
    for n_conjuncts in (1, 2):
        predicate = sample_predicate(system.relation, n_conjuncts, rng)
        sky = system.engine.skyline(predicate)
        topk = system.engine.topk(fn, 5, predicate)
        out.append((sky.tids, topk.tids, topk.scores))
    return out


@pytest.fixture(scope="module")
def crash_free():
    """Per-op fingerprints of a run no fault ever touched."""
    results = {}
    for kind, op in OPS.items():
        _, system = make_system()
        op(system)
        assert system.verify_consistency().ok
        results[kind] = fingerprint(system)
    return results


def count_crash_points(kind):
    """Access counts per crash site for one operation (rules never fire)."""
    disk, system = make_system()
    rules = [
        FaultRule(kind="crash", op=op, tag=tag, probability=0.0, count=None)
        for op, tag in CRASH_SITES
    ]
    disk.plan = FaultPlan(rules)
    OPS[kind](system)
    return {site: rule.seen for site, rule in zip(CRASH_SITES, rules)}


@pytest.fixture(scope="module")
def crash_points():
    """Per-op access counts per crash site."""
    return {kind: count_crash_points(kind) for kind in OPS}


def test_every_crash_site_is_reached(crash_points):
    """A listed site no op reaches is a crash point the sweep never tests."""
    for site in CRASH_SITES:
        assert sum(counts[site] for counts in crash_points.values()) >= 1, site
    assert crash_points["insert_split"][("allocate", "rtree")] >= 1


@pytest.mark.parametrize("kind", sorted(OPS))
def test_crash_sweep_recovers_every_point(kind, crash_free, crash_points):
    counts = crash_points[kind]
    # The op must actually exercise the journal, the tree and the store.
    assert counts[("allocate", "wal")] >= 2
    assert counts[("write", "rtree")] >= 1
    assert counts[("allocate", "pcube:sig")] >= 1
    if kind.startswith("insert"):
        assert counts[("allocate", "heap")] >= 1

    swept = 0
    for (op, tag), seen in counts.items():
        for k in range(seen):
            disk, system = make_system()
            disk.plan = FaultPlan(
                [FaultRule(kind="crash", op=op, tag=tag, after=k, count=1)]
            )
            with pytest.raises(SimulatedCrash):
                OPS[kind](system)
            disk.plan = FaultPlan()

            outcome = system.recover()
            assert outcome in ("clean", "replayed", "reindexed")
            report = system.verify_consistency()
            assert report.ok, (op, tag, k, outcome, report.problems)
            if outcome == "clean":
                # The intent never became durable: the operation simply
                # never happened.  Re-submitting completes it.
                OPS[kind](system)
                assert system.verify_consistency().ok
            assert fingerprint(system) == crash_free[kind], (op, tag, k, outcome)
            swept += 1
    assert swept == sum(counts.values())


def test_crash_during_recovery_converges(crash_free):
    """Recovery is idempotent: a crash *inside* recovery is also safe."""
    disk, system = make_system()
    disk.plan = FaultPlan(
        [FaultRule(kind="crash", op="write", tag="rtree", count=1)]
    )
    with pytest.raises(SimulatedCrash):
        run_update(system)

    # The reindex path re-allocates tree and signature pages; kill it there.
    disk.plan = FaultPlan(
        [
            FaultRule(
                kind="crash", op="allocate", tag="pcube:sig", after=3, count=1
            )
        ]
    )
    with pytest.raises(SimulatedCrash):
        system.recover()
    assert not system.wal.is_empty()

    disk.plan = FaultPlan()
    assert system.recover() == "reindexed"
    assert system.wal.is_empty()
    report = system.verify_consistency()
    assert report.ok, report.problems
    assert fingerprint(system) == crash_free["update"]
    assert system.maintenance_stats.recoveries == 2
    # Only the second recovery ran to completion.
    assert system.maintenance_stats.reindexes == 1


def test_recover_on_clean_system_is_a_no_op(crash_free):
    _, system = make_system()
    run_insert(system)
    before = fingerprint(system)
    assert system.recover() == "clean"
    assert system.maintenance_stats.recoveries == 0
    assert fingerprint(system) == before


def test_new_maintenance_refused_until_recovery(crash_free):
    disk, system = make_system()
    disk.plan = FaultPlan(
        [FaultRule(kind="crash", op="write", tag="rtree", count=1)]
    )
    with pytest.raises(SimulatedCrash):
        run_delete(system)
    disk.plan = FaultPlan()
    with pytest.raises(RuntimeError, match="recover"):
        run_insert(system)
    assert system.recover() == "reindexed"
    run_insert(system)
    assert system.verify_consistency().ok


def test_recovery_counters_reported(crash_free):
    disk, system = make_system()
    disk.plan = FaultPlan(
        [
            FaultRule(
                kind="crash", op="allocate", tag="pcube:sig", count=1
            )
        ]
    )
    with pytest.raises(SimulatedCrash):
        run_delete(system)
    disk.plan = FaultPlan()
    assert system.recover() == "replayed"
    snapshot = system.maintenance_stats.snapshot()
    assert snapshot["recoveries"] == 1
    assert snapshot["replayed_cells"] >= 1
    assert snapshot["reindexes"] == 0
    assert system.verify_consistency().ok


# --------------------------------------------------------------------- #
# multi-partial cells: a crash between two partial allocations
# --------------------------------------------------------------------- #

#: 128-byte pages split every cell's signature over five partials, so a
#: crash can land between two page allocations of one cell's rewrite (the
#: sweep's 4 KB fixture stores each cell on one page).
MULTI_PARTIAL = dict(CONFIG, n_tuples=200)


def make_multi_partial_system():
    disk = FaultyDisk(SimulatedDisk(page_size=128))
    relation = generate_relation(SyntheticConfig(**MULTI_PARTIAL), disk=disk)
    system = build_system(relation, fanout=5)
    partials = Counter(
        cell_id for (cell_id, _), _ in system.pcube.store.directory_entries()
    )
    assert min(partials.values()) >= 2
    return disk, system


def test_crash_between_two_partials_of_a_delete_is_replayed():
    # A rule that never fires counts the delete's signature-page
    # allocations on a crash-free run, whose answers are the reference.
    disk, system = make_multi_partial_system()
    counter = FaultRule(
        kind="crash", op="allocate", tag="pcube:sig", probability=0.0,
        count=None,
    )
    disk.plan = FaultPlan([counter])
    run_delete(system)
    crash_free = fingerprint(system)
    assert counter.seen >= 4  # two dirty cells, >= 2 partials each

    # The last allocation: the first cell has committed, the second one's
    # rewrite holds every new page but one.
    disk, system = make_multi_partial_system()
    disk.plan = FaultPlan(
        [
            FaultRule(
                kind="crash", op="allocate", tag="pcube:sig",
                after=counter.seen - 1, count=1,
            )
        ]
    )
    with pytest.raises(SimulatedCrash):
        run_delete(system)
    disk.plan = FaultPlan()
    assert system.pcube.store.orphan_pages()  # the torn generation

    assert system.recover() == "replayed"
    report = system.verify_consistency()
    assert report.ok, report.problems
    assert fingerprint(system) == crash_free


def test_crash_inside_repair_quarantined_leaves_no_orphan_page():
    disk, system = make_multi_partial_system()
    store = system.pcube.store
    (cell,) = BooleanPredicate({"A1": 0}).atomic_cells()
    store.quarantine(cell, "scrubber finding")
    before = fingerprint(system)
    disk.plan = FaultPlan(
        [
            FaultRule(
                kind="crash", op="allocate", tag="pcube:sig", after=1, count=1
            )
        ]
    )
    with pytest.raises(SimulatedCrash):
        system.repair_quarantined()
    disk.plan = FaultPlan()
    assert store.orphan_pages()  # the rebuild's first new page

    # A rebuild is not journalled, so the WAL is clean; the sweep runs anyway.
    assert system.recover() == "clean"
    assert store.orphan_pages() == []
    assert system.verify_consistency().problems == [
        f"cell {cell} is quarantined"
    ]
    assert fingerprint(system) == before
    assert system.repair_quarantined() == [cell]
    assert system.verify_consistency().ok
