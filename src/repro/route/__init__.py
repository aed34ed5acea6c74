"""Result cache, fallback chain and the five exact engines.

Every served skyline / top-k runs down one fixed chain
(:data:`SERVING_CHAIN`: signature, then the exact scans), handed to the
next engine by :func:`run_chain` when one cannot serve.
:class:`QueryRouter` puts an epoch-keyed :class:`ResultCache` of
canonicalised answers in front of that chain; the other engines stay as
pinned references (``RoutingPolicy.chain``).  See DESIGN.md §12.
"""

from repro.route.cache import APEX, CachedAnswer, ResultCache, result_key
from repro.route.engines import (
    BOOLEAN_FIRST,
    DOMINATION_FIRST,
    ENGINES,
    INDEX_MERGE,
    NAIVE,
    SERVING_CHAIN,
    SIGNATURE,
    STRATEGY_ORDER,
    EngineContext,
    RouteRequest,
    StrategyUnsupported,
    canonicalize,
    chain_for,
    supports,
)
from repro.route.fallback import StrategyTimeout, run_chain
from repro.route.router import QueryRouter, RoutingPolicy
from repro.route.stats import RouterStats

__all__ = [
    "APEX",
    "BOOLEAN_FIRST",
    "CachedAnswer",
    "DOMINATION_FIRST",
    "ENGINES",
    "EngineContext",
    "INDEX_MERGE",
    "NAIVE",
    "QueryRouter",
    "ResultCache",
    "RouteRequest",
    "RouterStats",
    "RoutingPolicy",
    "SERVING_CHAIN",
    "SIGNATURE",
    "STRATEGY_ORDER",
    "StrategyTimeout",
    "StrategyUnsupported",
    "canonicalize",
    "chain_for",
    "result_key",
    "run_chain",
    "supports",
]
