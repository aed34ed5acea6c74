"""The public API surface: everything advertised imports and is wired."""

import inspect

import repro
import repro.baselines
import repro.bitmap
import repro.btree
import repro.core
import repro.cube
import repro.data
import repro.query
import repro.rtree
import repro.storage


def test_top_level_all_resolves():
    for name in repro.__all__:
        assert hasattr(repro, name), name


def test_subpackage_all_resolves():
    for module in (
        repro.baselines,
        repro.bitmap,
        repro.btree,
        repro.core,
        repro.cube,
        repro.data,
        repro.query,
        repro.rtree,
        repro.storage,
    ):
        for name in module.__all__:
            assert hasattr(module, name), f"{module.__name__}.{name}"


def test_version():
    assert repro.__version__ == "1.0.0"


def test_public_callables_are_documented():
    """Every public class/function exported at top level has a docstring."""
    for name in repro.__all__:
        obj = getattr(repro, name)
        if inspect.isclass(obj) or inspect.isfunction(obj):
            assert obj.__doc__, f"{name} lacks a docstring"


def test_engine_methods_documented():
    from repro.query.session import QuerySession

    for name, member in inspect.getmembers(
        QuerySession, predicate=inspect.isfunction
    ):
        if name.startswith("_"):
            continue
        assert member.__doc__, f"QuerySession.{name} lacks a docstring"


def test_quickstart_snippet_runs():
    """The README quickstart, condensed."""
    from repro import (
        BooleanPredicate,
        Relation,
        Schema,
        WeightedSquaredDistance,
        build_system,
    )

    schema = Schema(("type", "color"), ("price", "mileage"))
    bool_rows = [("sedan", "red"), ("suv", "red"), ("sedan", "blue")] * 20
    pref_rows = [(15_000 + i * 120.0, 30_000 - i * 91.0) for i in range(60)]
    relation = Relation(schema, bool_rows, pref_rows)
    system = build_system(relation, fanout=8)
    result = system.engine.topk(
        WeightedSquaredDistance(target=(15_000, 30_000), weights=(1.0, 0.5)),
        k=5,
        predicate=BooleanPredicate({"type": "sedan", "color": "red"}),
    )
    assert len(result.tids) == 5
    assert all(
        relation.bool_row(t) == ("sedan", "red") for t in result.tids
    )
