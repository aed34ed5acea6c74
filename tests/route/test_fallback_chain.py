"""``run_chain`` unit behaviour: ordering, deadline slices, restoration."""

from __future__ import annotations

import time

import pytest

from repro.data.synthetic import generate_relation
from repro.query.predicates import BooleanPredicate
from repro.query.session import QuerySession
from repro.route import (
    ENGINES,
    EngineContext,
    RouteRequest,
    StrategyTimeout,
    StrategyUnsupported,
    run_chain,
)
from repro.serve.executor import QueryCancelled
from repro.storage.errors import TransientIOError
from repro.system import build_system

pytestmark = pytest.mark.routing


@pytest.fixture
def harness(small_config):
    system = build_system(generate_relation(small_config), fanout=8)
    session = QuerySession.for_snapshot(system.pin_snapshot())
    request = RouteRequest(kind="skyline", predicate=BooleanPredicate())
    ctx = EngineContext(
        indexes=system.indexes, indexes_rows=system.indexes_rows
    )
    return session, request, ctx


def test_exhausted_chain_reraises_last_error(harness, monkeypatch):
    session, request, ctx = harness

    def boom(session, request, ctx):
        raise TransientIOError(1, "rtree")

    monkeypatch.setitem(ENGINES, "a", boom)
    monkeypatch.setitem(ENGINES, "b", boom)
    with pytest.raises(TransientIOError):
        run_chain(["a", "b"], session, request, ctx)


def test_failures_list_preserves_chain_order(harness, monkeypatch):
    session, request, ctx = harness

    def unsupported(session, request, ctx):
        raise StrategyUnsupported("a", "nope")

    def faulting(session, request, ctx):
        raise TransientIOError(2, "rtree")

    monkeypatch.setitem(ENGINES, "a", unsupported)
    monkeypatch.setitem(ENGINES, "b", faulting)
    result, failures = run_chain(["a", "b", "naive"], session, request, ctx)
    assert [name for name, _ in failures] == ["a", "b"]
    assert isinstance(failures[0][1], StrategyUnsupported)
    assert isinstance(failures[1][1], TransientIOError)
    assert result.stats.tier == "naive"
    assert result.stats.route is None  # stamping it is the router's job
    assert result.stats.fallbacks == 2


def test_cancellation_is_never_swallowed(harness):
    session, request, ctx = harness

    def cancel():
        raise QueryCancelled("caller gave up")

    session.ticker = cancel
    with pytest.raises(QueryCancelled):
        run_chain(["naive"], session, request, ctx)
    # The original ticker is restored even on the abort path.
    assert session.ticker is cancel


def test_ticker_restored_after_success(harness):
    session, request, ctx = harness
    ticks = []
    session.ticker = lambda: ticks.append(1)
    base = session.ticker
    result, failures = run_chain(["naive"], session, request, ctx)
    assert failures == []
    assert session.ticker is base
    assert ticks  # the engine really ran through the composed ticker


def test_slice_expiry_raises_strategy_timeout_and_chain_continues(
    harness, monkeypatch
):
    """With two engines and an overall budget, the first attempt's slice
    is ``remaining / 2``.  An attempt that ticks inside its slice is
    fine; once the slice lapses the *composed ticker* raises
    StrategyTimeout (not QueryTimeout), and the last engine still runs
    with the full remaining budget."""
    session, request, ctx = harness
    session.deadline_at = time.perf_counter() + 0.4  # slice ≈ 0.2s

    def slow(inner_session, request, ctx):
        inner_session.ticker()  # inside the slice: must not raise
        time.sleep(0.25)  # outrun the ~0.2s slice, not the 0.4s budget
        inner_session.ticker()  # now the composed ticker raises
        raise AssertionError("slice expiry did not fire")

    monkeypatch.setitem(ENGINES, "slow", slow)
    result, failures = run_chain(["slow", "naive"], session, request, ctx)
    assert [name for name, _ in failures] == ["slow"]
    assert isinstance(failures[0][1], StrategyTimeout)
    assert result.stats.tier == "naive"
    # The overall deadline was never consumed by the slice mechanism.
    assert session.deadline_at > time.perf_counter() - 0.4
