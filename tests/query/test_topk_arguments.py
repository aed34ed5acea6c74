"""A top-k or dynamic skyline is refused, not answered, when its arguments
cannot rank the relation: a non-finite parameter, a non-integer ``k``, or a
function that does not fit the preference dimensions.

A NaN or infinite score compares false with every bound, so no node is ever
pruned: such a query used to return every row of the relation.  A function
narrower than the tree ranked by a prefix of the dimensions; a wider one
failed inside a kernel.
"""

import math

import numpy as np
import pytest

from repro.data.synthetic import generate_relation
from repro.query.ranking import (
    LinearFunction,
    SeparableFunction,
    WeightedSquaredDistance,
)
from repro.query.sql import execute
from repro.serve.executor import QueryExecutor
from repro.storage.disk import SimulatedDisk
from repro.storage.faults import FaultPlan, FaultRule, FaultyDisk
from repro.system import build_system

MISFITS = {
    "wsd-narrow": (WeightedSquaredDistance((0.5,)), "target has 1 dims, tree has 2"),
    "linear-wide": (LinearFunction([1.0] * 5), "function has 5 weights, tree has 2"),
    "separable-past-the-end": (
        SeparableFunction([(5, "linear", 1.0, 0.0)]),
        "a term reads dimension 5, tree has 2",
    ),
}
misfits = pytest.mark.parametrize(
    "fn, message", MISFITS.values(), ids=MISFITS.keys()
)


def test_k_is_an_integer_of_any_type(small_system):
    fn = LinearFunction([1.0, 1.0])
    with pytest.raises(TypeError):
        small_system.engine.topk(fn, 2.5)
    assert small_system.engine.topk(fn, np.int64(3)).tids == (
        small_system.engine.topk(fn, 3).tids
    )


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_a_non_finite_query_point_is_refused(small_system, bad):
    with pytest.raises(ValueError, match="finite"):
        small_system.engine.dynamic_skyline((bad, 0.5))


def test_sql_refuses_an_infinite_coefficient(small_system):
    with pytest.raises(ValueError, match="finite"):
        execute(small_system.engine, "select top 3 from R order by 1e999 * N1")


@misfits
def test_a_function_that_does_not_fit_is_refused(small_system, fn, message):
    with pytest.raises(ValueError, match=message):
        small_system.engine.topk(fn, 3)


@misfits
def test_a_faulted_engine_does_not_swallow_the_refusal(small_config, fn, message):
    """The serving chain moves a query on only after a storage fault; a
    refused function is the caller's error on every engine."""
    disk = FaultyDisk(SimulatedDisk())
    system = build_system(generate_relation(small_config, disk=disk), fanout=8)
    disk.plan = FaultPlan([FaultRule(kind="corrupt", tag="rtree", count=1)])
    with QueryExecutor(system, threads=1) as executor:
        with pytest.raises(ValueError, match=message):
            executor.topk(fn, 3).result(60.0)
        with pytest.raises(TypeError):
            executor.topk(LinearFunction([1.0, 1.0]), 2.5).result(60.0)
