"""Result cache, fallback chain and the five exact engines.

Every served read runs down one chain (:func:`chain_for`:
:data:`SERVING_CHAIN` — signature, then the exact scans — for a
conjunctive skyline / top-k, ``(signature,)`` otherwise), handed to the
next engine by :func:`run_chain` when one cannot serve.  Every executor's
:class:`QueryRouter` runs that chain for skylines and top-k, with an
epoch-keyed :class:`ResultCache` of canonicalised answers in front of it
when the cache is on.  The other two engines are reached only by calling
:func:`run_chain` with a chain that names them.  See DESIGN.md §12.
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
    RouteRequest,
    StrategyUnsupported,
    canonicalize,
    chain_for,
)
from repro.route.fallback import StrategyTimeout, run_chain
from repro.route.router import QueryRouter
from repro.route.stats import RouterStats

__all__ = [
    "APEX",
    "BOOLEAN_FIRST",
    "CachedAnswer",
    "DOMINATION_FIRST",
    "ENGINES",
    "INDEX_MERGE",
    "NAIVE",
    "QueryRouter",
    "ResultCache",
    "RouteRequest",
    "RouterStats",
    "SERVING_CHAIN",
    "SIGNATURE",
    "StrategyTimeout",
    "StrategyUnsupported",
    "canonicalize",
    "chain_for",
    "result_key",
    "run_chain",
]
