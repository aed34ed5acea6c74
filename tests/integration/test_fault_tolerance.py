"""Acceptance: seeded fault schedules never change query answers.

The robustness contract (ISSUE: fault-injecting storage layer): under a
deterministic schedule mixing transient read faults with permanent page
corruption, top-k and skyline results are byte-identical to the fault-free
run, the degraded/retry counters are nonzero, and after rebuilding the
quarantined cells the per-query ``SSIG`` cost returns to the fault-free
baseline (within 5%).
"""

import pytest

from repro.data.synthetic import generate_relation
from repro.data.workload import sample_linear_function, sample_predicate
from repro.storage.counters import DBOOL
from repro.storage.disk import SimulatedDisk
from repro.storage.faults import FaultPlan, FaultRule, FaultyDisk
from repro.system import build_system

pytestmark = pytest.mark.faults


@pytest.fixture
def faulty_twin(small_config):
    """A second system, identical to ``small_system`` by construction, on a
    fault-injecting disk armed *after* the build."""
    disk = FaultyDisk(SimulatedDisk())
    system = build_system(generate_relation(small_config, disk=disk), fanout=8)
    return disk, system


def fault_schedule():
    return FaultPlan(
        [
            # Two consecutive transient faults on the first signature read:
            # absorbed by one load's retry budget (max_attempts=4).
            FaultRule(kind="transient", tag="pcube:sig", count=2),
            # An access that fires a rule is not offered to later rules, so
            # this sees only fault-free reads: its second one is corrupted.
            FaultRule(kind="corrupt", tag="pcube:sig", after=1, count=1),
        ],
        seed=7,
    )


def test_results_byte_identical_under_fault_schedule(
    small_system, faulty_twin, rng
):
    disk, faulty = faulty_twin
    predicate = sample_predicate(small_system.relation, 2, rng)
    fn = sample_linear_function(small_system.relation.schema.n_preference, rng)

    base_sky = small_system.engine.skyline(predicate)
    base_topk = small_system.engine.topk(fn, 10, predicate)

    disk.plan = fault_schedule()
    sky = faulty.engine.skyline(predicate)
    topk = faulty.engine.topk(fn, 10, predicate)

    # The contract: faults cost work, never answers.
    assert sky.tids == base_sky.tids
    assert topk.tids == base_topk.tids
    assert topk.scores == base_topk.scores

    # Both fault kinds actually landed and were observed.
    assert disk.fault_counts["transient"] == 2
    assert disk.fault_counts["corrupt"] == 1
    assert sky.stats.fault_retries + topk.stats.fault_retries == 2
    assert sky.stats.degraded or topk.stats.degraded
    assert sky.stats.degraded_checks + topk.stats.degraded_checks > 0
    assert faulty.pcube.store.fault_stats.degraded_loads >= 1

    # Recovery: rebuild every quarantined cell, then the degraded overhead
    # disappears and SSIG cost is back at the fault-free baseline.
    assert faulty.pcube.store.quarantined_cells()
    disk.plan = FaultPlan()
    rebuilt = faulty.repair_quarantined()
    assert rebuilt
    assert not faulty.pcube.store.quarantined_cells()

    healed_sky = faulty.engine.skyline(predicate)
    healed_topk = faulty.engine.topk(fn, 10, predicate)
    assert healed_sky.tids == base_sky.tids
    assert healed_topk.tids == base_topk.tids
    assert healed_topk.scores == base_topk.scores
    for healed, base in ((healed_sky, base_sky), (healed_topk, base_topk)):
        assert not healed.stats.degraded
        assert healed.stats.ssig <= base.stats.ssig * 1.05
        assert healed.stats.ssig >= base.stats.ssig * 0.95


def test_exhausted_retry_budget_degrades_but_stays_correct(
    small_system, faulty_twin, rng
):
    """A fault burst longer than the retry budget abandons the load — the
    reader degrades (conservative mode) instead of failing the query."""
    disk, faulty = faulty_twin
    predicate = sample_predicate(small_system.relation, 1, rng)
    baseline = small_system.engine.skyline(predicate)

    # Ten consecutive transient faults on signature reads: the first load's
    # four attempts all fail, marking its ref unreadable.
    disk.plan = FaultPlan(
        [FaultRule(kind="transient", tag="pcube:sig", count=10)]
    )
    result = faulty.engine.skyline(predicate)
    assert result.tids == baseline.tids
    assert result.stats.degraded
    assert result.stats.failed_loads >= 1
    assert result.stats.fault_retries >= 3
    assert faulty.pcube.store.fault_stats.transient_errors >= 1


def test_degraded_query_charges_fallback_to_dbool(
    small_system, faulty_twin, rng
):
    """Conservative mode pays for exactness with base-relation probes: the
    degraded run's DBOOL count grows, its boolean pruning shrinks."""
    disk, faulty = faulty_twin
    predicate = sample_predicate(small_system.relation, 1, rng)
    baseline = small_system.engine.skyline(predicate)

    disk.plan = FaultPlan([FaultRule(kind="corrupt", tag="pcube:sig", count=1)])
    degraded = faulty.engine.skyline(predicate)
    assert degraded.tids == baseline.tids
    assert degraded.stats.degraded
    assert degraded.stats.counters.get(DBOOL) >= baseline.stats.counters.get(DBOOL)
    assert degraded.stats.total_io() >= baseline.stats.total_io()
