"""Property tests for the deadline-budgeted retry policy (hypothesis).

Two serving-critical invariants, checked over the whole configuration
space rather than a few hand-picked examples:

* determinism — for a fixed seed, the jittered backoff schedule replays
  bit for bit (tests, benchmarks and the chaos harness depend on it);
* budget safety — with a ticket's wall-clock deadline, one call *never*
  charges the deterministic clock more than the time the ticket had left,
  however the attempts/backoff/jitter knobs are set (the serving guarantee
  :meth:`RetryPolicy.call` gives ``load_partial``).
"""

from __future__ import annotations

import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.storage.errors import TransientIOError
from repro.storage.faults import RetryPolicy

pytestmark = pytest.mark.faults

policies = st.fixed_dictionaries(
    {
        "max_attempts": st.integers(min_value=1, max_value=6),
        "base_delay": st.floats(
            min_value=0.0, max_value=0.25, allow_nan=False
        ),
        "multiplier": st.floats(
            min_value=1.0, max_value=4.0, allow_nan=False
        ),
        "jitter": st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
        "seed": st.integers(min_value=0, max_value=2**16),
    }
)


def _charged_schedule(policy: RetryPolicy, failures: int) -> list[float]:
    """Run one flaky call; return the clock instants of each retry."""
    attempts = [0]
    instants: list[float] = []

    def flaky():
        attempts[0] += 1
        if attempts[0] <= failures:
            raise TransientIOError("injected")
        return "ok"

    def record(attempt: int, exc: Exception) -> None:
        instants.append(policy.clock.now)

    try:
        policy.call(flaky, on_retry=record)
    except TransientIOError:
        pass
    instants.append(policy.clock.now)  # the total charged wait
    return instants


@settings(max_examples=80, deadline=None)
@given(config=policies, failures=st.integers(min_value=0, max_value=8))
def test_jittered_backoff_replays_bit_for_bit(config, failures):
    first = _charged_schedule(RetryPolicy(**config), failures)
    second = _charged_schedule(RetryPolicy(**config), failures)
    assert first == second
    # And the schedule is well-formed: charged instants never decrease.
    assert first == sorted(first)


@settings(max_examples=120, deadline=None)
@given(
    config=policies,
    remaining=st.floats(min_value=-0.1, max_value=0.2, allow_nan=False),
    already_charged=st.floats(min_value=0.0, max_value=3.0, allow_nan=False),
)
def test_budgeted_retries_never_charge_past_the_deadline(
    config, remaining, already_charged
):
    policy = RetryPolicy(**config)
    # The clock is the store's, shared by every earlier load: the budget
    # is what *this* call may add to it.
    policy.clock.sleep(already_charged)

    def always_fails():
        raise TransientIOError("still down")

    with pytest.raises(TransientIOError):
        policy.call(
            always_fails, deadline_at=time.perf_counter() + remaining
        )
    # The hard guarantee: however the knobs are set, backoff charged to
    # the clock fits inside the wall-clock time the ticket had left — and
    # a lapsed deadline leaves zero budget, never a negative one.
    assert policy.clock.now - already_charged <= max(remaining, 0.0)
    # Accounting is consistent: either the full attempt budget was spent,
    # or exactly one skipped-retry event ended the call early.
    if policy.exhausted_budgets:
        assert policy.exhausted_budgets == 1
        assert policy.retries <= config["max_attempts"] - 2
    else:
        assert policy.retries == config["max_attempts"] - 1


@settings(max_examples=60, deadline=None)
@given(config=policies)
def test_unbudgeted_call_spends_every_attempt(config):
    policy = RetryPolicy(**config)
    calls = [0]

    def always_fails():
        calls[0] += 1
        raise TransientIOError("still down")

    with pytest.raises(TransientIOError):
        policy.call(always_fails)
    assert calls[0] == config["max_attempts"]
    assert policy.exhausted_budgets == 0
