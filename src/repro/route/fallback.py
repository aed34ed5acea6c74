"""The one fallback chain: try engines in order until one answers.

No query *needs* a particular engine — every strategy in
:mod:`repro.route.engines` returns exact answers — so a strategy that
cannot serve a query (:class:`StrategyUnsupported`), faults on storage
(:class:`~repro.storage.errors.StorageFault`) or exceeds its slice of the
deadline (:class:`StrategyTimeout`) simply hands the query to the next
engine in the chain.  What cannot be retried is a lapsed *overall*
deadline or a cancellation: those abort the query.

Every served read runs through :func:`run_chain` with
:func:`~repro.route.engines.chain_for`'s chain:
:data:`~repro.route.engines.SERVING_CHAIN` for conjunctive skylines and
top-k, ``(signature,)`` for everything else.  Any other chain is handed in
directly (the routing sweep's pinned series, the engine tests).  This is
the only place a storage fault moves a query to another engine: the
session itself answers by signature or lets the fault propagate.  An
engine reads nothing but the session and the request, so the snapshot the
session is bound to is all the state a chain runs on.

Deadline slicing: a session with ``deadline_at`` set gives each attempt an
equal share of the *remaining* budget (``remaining / engines left``), so
one pathological engine cannot starve the rest of the chain.  The last
engine always gets everything that is left, and without a deadline the
session's ticker is handed through untouched.
"""

from __future__ import annotations

import time
from typing import Callable, Sequence

from repro.query.session import QueryResult, QuerySession
from repro.route.engines import ENGINES, RouteRequest, StrategyUnsupported
from repro.storage.errors import StorageFault


class StrategyTimeout(Exception):
    """One attempt exceeded its *slice* of the deadline budget.

    Internal to the fallback chain: raised by the per-attempt ticker while
    the overall deadline still has budget, so the chain moves on; a lapsed
    overall deadline raises the executor's ``QueryTimeout`` instead and is
    never swallowed here.
    """

    def __init__(self, strategy: str) -> None:
        super().__init__(f"{strategy}: attempt exceeded its deadline slice")
        self.strategy = strategy


def run_chain(
    chain: Sequence[str],
    session: QuerySession,
    request: RouteRequest,
) -> tuple[QueryResult, list[tuple[str, Exception]]]:
    """Run ``request`` down ``chain`` — names in
    :data:`~repro.route.engines.ENGINES` — until one engine answers.

    Returns ``(result, failed_attempts)``: ``failed_attempts`` lists
    ``(strategy, error)`` for every engine tried before the one that
    answered (``chain[len(failed_attempts)]``).  The result's
    ``stats.fallbacks`` counts them, its counters include what each failed
    signature attempt spent (the session hangs that attempt's stats on the
    error), and ``stats.degraded`` is set when any of them was a storage
    fault — the answer is exact, but it was not the healthy path that
    produced it.  Exhausting the chain re-raises the last
    error, chained ``from`` the first one so callers see what started the
    hand-over.
    """
    failures: list[tuple[str, Exception]] = []
    faulted = False
    base_ticker = session.ticker
    deadline_at = session.deadline_at
    try:
        for position, name in enumerate(chain):
            remaining_engines = len(chain) - position
            if deadline_at is not None:
                now = time.perf_counter()
                if now > deadline_at:
                    from repro.serve.executor import QueryTimeout

                    raise QueryTimeout(
                        f"{request.kind} query exceeded its deadline "
                        f"(after {len(failures)} fallback attempt(s))"
                    )
                if remaining_engines > 1:
                    session.ticker = _attempt_ticker(
                        name,
                        base_ticker,
                        now + (deadline_at - now) / remaining_engines,
                    )
                else:
                    session.ticker = base_ticker
            # Only these three hand the query on; anything else an engine
            # raises — the overall deadline, a cancellation — aborts it.
            try:
                result = ENGINES[name](session, request)
            except (StrategyUnsupported, StrategyTimeout) as exc:
                failures.append((name, exc))
            except StorageFault as exc:
                failures.append((name, exc))
                faulted = True
            else:
                for _, failure in failures:
                    spent = getattr(failure, "stats", None)
                    if spent is not None:
                        result.stats.absorb(spent)
                result.stats.fallbacks = len(failures)
                result.stats.degraded |= faulted
                return result, failures
    finally:
        session.ticker = base_ticker
    first, last = failures[0][1], failures[-1][1]
    if last is first:
        raise last
    raise last from first


def _attempt_ticker(
    strategy: str,
    base_ticker: Callable[[], None] | None,
    attempt_deadline: float,
) -> Callable[[], None]:
    """Compose the session ticker with this attempt's deadline slice.

    The base ticker runs first: it owns cancellation and the overall
    deadline, and those must win over a mere slice expiry.
    """

    def tick() -> None:
        if base_ticker is not None:
            base_ticker()
        if time.perf_counter() > attempt_deadline:
            raise StrategyTimeout(strategy)

    return tick
