"""Fault injection, checksums, retry/backoff: the storage fault model."""

import pytest

from repro.storage.counters import SSIG
from repro.storage.disk import PageFault, SimulatedDisk
from repro.storage.errors import (
    CorruptPageError,
    StorageFault,
    TornWriteError,
    TransientIOError,
)
from repro.storage.faults import (
    CorruptPayload,
    DeterministicClock,
    FaultPlan,
    FaultRule,
    FaultyDisk,
    RetryPolicy,
)

pytestmark = pytest.mark.faults


# ---------------------------------------------------------------------- #
# checksummed pages (detection)
# ---------------------------------------------------------------------- #


def test_read_verifies_checksum_and_detects_swapped_payload():
    disk = SimulatedDisk()
    page_id = disk.allocate("t", payload=b"good bytes")
    disk.peek(page_id).payload = b"evil bytes"  # corrupt behind the disk's back
    with pytest.raises(CorruptPageError) as excinfo:
        disk.read(page_id, SSIG)
    assert excinfo.value.page_id == page_id


def test_write_reseals_checksum():
    disk = SimulatedDisk()
    page_id = disk.allocate("t", payload=b"v1")
    disk.write(page_id, b"v2")
    assert disk.read(page_id, SSIG) == b"v2"  # no false positive


def test_corrupt_read_still_counts_the_transfer():
    disk = SimulatedDisk()
    page_id = disk.allocate("t", payload=b"x")
    disk.peek(page_id).payload = b"y"
    with pytest.raises(CorruptPageError):
        disk.read(page_id, SSIG)
    assert disk.counters.get(SSIG) == 1


# ---------------------------------------------------------------------- #
# deterministic clock + retry policy
# ---------------------------------------------------------------------- #


def test_retry_policy_recovers_after_transient_faults():
    attempts = []

    def flaky():
        attempts.append(1)
        if len(attempts) < 3:
            raise TransientIOError("not yet")
        return "ok"

    policy = RetryPolicy(max_attempts=4, base_delay=0.01, multiplier=2.0)
    assert policy.call(flaky) == "ok"
    assert len(attempts) == 3
    assert policy.retries == 2
    # Backoff is charged to the deterministic clock: 0.01 + 0.02.
    assert policy.clock.now == pytest.approx(0.03)


def test_retry_policy_gives_up_after_budget():
    policy = RetryPolicy(max_attempts=3)

    def always_fails():
        raise TransientIOError("still down")

    with pytest.raises(TransientIOError):
        policy.call(always_fails)
    assert policy.retries == 2  # the final failure is not a retry


def test_retry_policy_does_not_retry_permanent_faults():
    calls = []

    def corrupt():
        calls.append(1)
        raise CorruptPageError(7)

    with pytest.raises(CorruptPageError):
        RetryPolicy(max_attempts=5).call(corrupt)
    assert len(calls) == 1


def test_retry_policy_rejects_bad_config():
    with pytest.raises(ValueError):
        RetryPolicy(max_attempts=0)
    with pytest.raises(ValueError):
        RetryPolicy(multiplier=0.5)
    with pytest.raises(ValueError):
        DeterministicClock().sleep(-1)


# ---------------------------------------------------------------------- #
# fault plans
# ---------------------------------------------------------------------- #


def test_fault_rule_validation():
    with pytest.raises(ValueError):
        FaultRule(kind="meteor")
    with pytest.raises(ValueError):
        FaultRule(kind="transient", op="defragment")
    with pytest.raises(ValueError):
        FaultRule(kind="transient", probability=1.5)


def test_plan_matches_by_tag_prefix_after_and_count():
    plan = FaultPlan([FaultRule(kind="transient", tag="pcube:sig", after=1, count=2)])
    # First matching access is skipped (after=1), next two fire, then done.
    assert plan.next_fault("read", "pcube:sig", 1) is None
    assert plan.next_fault("read", "rtree", 2) is None  # tag mismatch
    assert plan.next_fault("read", "pcube:sig", 3) is not None
    assert plan.next_fault("read", "pcube:sig", 4) is not None
    assert plan.next_fault("read", "pcube:sig", 5) is None
    assert not plan.pending()


def test_plan_probability_is_seeded_and_deterministic():
    def firings(seed):
        plan = FaultPlan(
            [FaultRule(kind="transient", probability=0.5, count=None)], seed=seed
        )
        return [
            plan.next_fault("read", "t", i) is not None for i in range(50)
        ]

    assert firings(7) == firings(7)
    assert any(firings(7))
    assert not all(firings(7))


# ---------------------------------------------------------------------- #
# the fault-injecting disk
# ---------------------------------------------------------------------- #


def test_faulty_disk_delegates_transparently():
    disk = FaultyDisk(SimulatedDisk(page_size=128))
    page_id = disk.allocate("t", size=64, payload="data")
    assert disk.page_size == 128
    assert disk.read(page_id, SSIG) == "data"
    assert disk.counters.get(SSIG) == 1
    assert disk.size_bytes("t") == 64
    assert len(list(disk.pages("t"))) == 1
    assert disk.exists(page_id)
    disk.write(page_id, "data2")
    assert disk.peek(page_id).payload == "data2"
    disk.free(page_id)
    assert not disk.exists(page_id)
    with pytest.raises(PageFault):
        disk.read(page_id, SSIG)


def test_faulty_disk_injects_transient_then_recovers():
    disk = FaultyDisk(
        SimulatedDisk(),
        FaultPlan([FaultRule(kind="transient", count=2)]),
    )
    page_id = disk.allocate("t", payload="p")
    with pytest.raises(TransientIOError):
        disk.read(page_id, SSIG)
    with pytest.raises(TransientIOError):
        disk.read(page_id, SSIG)
    assert disk.read(page_id, SSIG) == "p"
    assert disk.fault_counts["transient"] == 2
    # Failed transfers are not counted as accesses.
    assert disk.counters.get(SSIG) == 1


def test_faulty_disk_corruption_is_permanent_and_detected():
    disk = FaultyDisk(
        SimulatedDisk(),
        FaultPlan([FaultRule(kind="corrupt", count=1)]),
    )
    page_id = disk.allocate("t", payload=b"payload")
    with pytest.raises(CorruptPageError):
        disk.read(page_id, SSIG)
    # The rule fired once, but the damage persists on every later read.
    with pytest.raises(CorruptPageError):
        disk.read(page_id, SSIG)
    assert isinstance(disk.peek(page_id).payload, CorruptPayload)
    assert disk.fault_counts["corrupt"] == 1


def test_faulty_disk_torn_write_and_allocate():
    disk = FaultyDisk(
        SimulatedDisk(),
        FaultPlan(
            [
                FaultRule(kind="torn", op="allocate", tag="sig", count=1),
                FaultRule(kind="torn", op="write", count=1),
            ]
        ),
    )
    ok = disk.allocate("other", payload=1)  # tag filter: not matched
    with pytest.raises(TornWriteError):
        disk.allocate("sig", payload=2)
    with pytest.raises(TornWriteError):
        disk.write(ok, 3)
    assert disk.peek(ok).payload == 1  # the torn write never landed
    assert disk.fault_counts["torn"] == 2


def test_storage_fault_family():
    assert issubclass(TransientIOError, StorageFault)
    assert issubclass(CorruptPageError, StorageFault)
    assert issubclass(TornWriteError, StorageFault)
    assert issubclass(StorageFault, IOError)


# ---------------------------------------------------------------------- #
# crash injection
# ---------------------------------------------------------------------- #


def test_crash_rule_fires_on_read_write_and_allocate():
    from repro.storage.faults import SimulatedCrash

    for op in ("read", "write", "allocate"):
        disk = FaultyDisk(
            SimulatedDisk(), FaultPlan([FaultRule(kind="crash", op=op)])
        )
        if op == "allocate":
            with pytest.raises(SimulatedCrash):
                disk.allocate("t", payload="p")
            continue
        page_id = disk.allocate("t", payload="p")
        with pytest.raises(SimulatedCrash):
            getattr(disk, op)(*((page_id, SSIG) if op == "read" else (page_id, "q")))


def test_crash_leaves_the_page_untouched():
    from repro.storage.faults import SimulatedCrash

    disk = FaultyDisk(SimulatedDisk())
    page_id = disk.allocate("t", payload="before")
    disk.plan = FaultPlan([FaultRule(kind="crash", op="write", count=1)])
    with pytest.raises(SimulatedCrash):
        disk.write(page_id, "after")
    assert disk.peek(page_id).payload == "before"


def test_crash_is_not_a_storage_fault():
    """Retry loops and degraded-read paths must never absorb a crash."""
    from repro.storage.faults import SimulatedCrash

    assert not issubclass(SimulatedCrash, StorageFault)
    assert issubclass(SimulatedCrash, RuntimeError)


def test_crash_is_not_retried():
    from repro.storage.faults import SimulatedCrash

    disk = FaultyDisk(
        SimulatedDisk(), FaultPlan([FaultRule(kind="crash", op="read")])
    )
    page_id = disk.inner.allocate("t", payload="p")
    policy = RetryPolicy(max_attempts=5)
    with pytest.raises(SimulatedCrash):
        policy.call(lambda: disk.read(page_id, SSIG))
    assert policy.retries == 0


def test_probability_zero_rule_counts_accesses_without_firing():
    """The crash-sweep enumeration trick: seen advances, nothing raises."""
    rule = FaultRule(kind="crash", op="read", tag="t", probability=0.0, count=None)
    disk = FaultyDisk(SimulatedDisk(), FaultPlan([rule]))
    page_id = disk.inner.allocate("t", payload="p")
    for _ in range(5):
        assert disk.read(page_id, SSIG) == "p"
    assert rule.seen == 5
    assert disk.fault_counts.get("crash", 0) == 0


def test_free_is_unfaultable():
    """WAL commit truncation relies on free never consulting the plan."""
    from repro.storage.faults import SimulatedCrash  # noqa: F401

    disk = FaultyDisk(SimulatedDisk())
    page_id = disk.allocate("t", payload="p")
    disk.plan = FaultPlan(
        [FaultRule(kind="crash", op=op) for op in ("read", "write", "allocate")]
    )
    disk.free(page_id)
    assert not disk.exists(page_id)
