"""Query processing over P-Cube (paper Section V).

:mod:`repro.query.algorithm1` implements the paper's Algorithm 1: a
best-first branch-and-bound over the R-tree whose ``prune`` procedure
combines *preference pruning* (skyline domination or top-k score bounds)
with *boolean pruning* (signature bit tests), maintaining the ``result``,
``b_list`` and ``d_list`` needed for Lemma 2's incremental drill-down /
roll-up (:mod:`repro.query.session`).
"""

from repro.query.predicates import BooleanPredicate
from repro.query.ranking import (
    LinearFunction,
    MonotoneFunction,
    RankingFunction,
    SumFunction,
    WeightedSquaredDistance,
)
from repro.query.stats import QueryStats
from repro.query.session import QueryResult, QuerySession
from repro.query.sql import SQLSyntaxError, execute as execute_sql, parse_query

__all__ = [
    "BooleanPredicate",
    "LinearFunction",
    "MonotoneFunction",
    "QueryResult",
    "QuerySession",
    "QueryStats",
    "RankingFunction",
    "SumFunction",
    "WeightedSquaredDistance",
    "SQLSyntaxError",
    "execute_sql",
    "parse_query",
]
