"""P-Cube: answering preference queries in multi-dimensional space.

A complete reproduction of Xin & Han, ICDE 2008.  Quickstart::

    from repro import (
        BooleanPredicate, Relation, Schema, WeightedSquaredDistance,
        build_system,
    )

    schema = Schema(("type", "maker", "color"), ("price", "mileage"))
    relation = Relation(schema, bool_rows, pref_rows)
    system = build_system(relation)

    # Example 1: top-10 red sedans near price 15k / mileage 30k.
    result = system.engine.topk(
        WeightedSquaredDistance(target=(15_000, 30_000), weights=(1.0, 0.5)),
        k=10,
        predicate=BooleanPredicate({"type": "sedan", "color": "red"}),
    )

    # Example 2: skylines, then roll up on a boolean dimension.
    professional = system.engine.skyline(
        BooleanPredicate({"type": "professional", "brand": "canon"})
    )
    all_makers = system.engine.roll_up(professional, "brand")

See DESIGN.md for the system inventory and EXPERIMENTS.md for the
paper-vs-measured record of every figure.
"""

from repro.core.pcube import PCube
from repro.core.signature import Signature
from repro.cube.cuboid import Cell, Cuboid
from repro.cube.relation import Relation
from repro.cube.schema import Schema
from repro.query.session import QueryResult, QuerySession
from repro.query.predicates import BooleanPredicate
from repro.query.ranking import (
    LinearFunction,
    RankingFunction,
    SeparableFunction,
    WeightedSquaredDistance,
)
from repro.query.sql import execute as execute_sql
from repro.query.sql import parse_query
from repro.query.stats import QueryStats
from repro.rtree.rtree import RTree
from repro.system import BuildTimings, PCubeSystem, build_system

__version__ = "1.0.0"

__all__ = [
    "BooleanPredicate",
    "BuildTimings",
    "Cell",
    "Cuboid",
    "LinearFunction",
    "PCube",
    "PCubeSystem",
    "QueryResult",
    "QuerySession",
    "QueryStats",
    "RankingFunction",
    "Relation",
    "RTree",
    "Schema",
    "SeparableFunction",
    "Signature",
    "WeightedSquaredDistance",
    "build_system",
    "execute_sql",
    "parse_query",
]
