"""Query processing over P-Cube (paper Section V).

:mod:`repro.query.algorithm1` implements the paper's Algorithm 1: a
best-first branch-and-bound over the R-tree whose ``prune`` procedure
combines *preference pruning* (skyline domination or top-k score bounds)
with *boolean pruning* (signature bit tests), keeping the ``result``,
``b_list`` and ``d_list`` needed for Lemma 2's incremental drill-down /
roll-up (:mod:`repro.query.session`) — the lists recorded as the search
goes and turned into entries by one rule when first read.
"""

from repro.query.predicates import BooleanPredicate
from repro.query.ranking import (
    LinearFunction,
    RankingFunction,
    WeightedSquaredDistance,
)
from repro.query.stats import QueryStats
from repro.query.session import QueryResult, QuerySession
from repro.query.sql import SQLSyntaxError, execute as execute_sql, parse_query

__all__ = [
    "BooleanPredicate",
    "LinearFunction",
    "QueryResult",
    "QuerySession",
    "QueryStats",
    "RankingFunction",
    "WeightedSquaredDistance",
    "SQLSyntaxError",
    "execute_sql",
    "parse_query",
]
