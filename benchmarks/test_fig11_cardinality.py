"""Figure 11: skyline time vs boolean cardinality C ∈ {10, 100, 1000}.

Paper observation: "Boolean performs better when C increases and the
performance of Domination deteriorates" (higher C = more selective
predicates: cheap for subset retrieval, hostile to lazy verification).
Signature stays robust and best throughout.
"""

import random

import pytest

from benchmarks.conftest import (
    N_QUERIES,
    SECONDS_PER_IO,
    SWEEP_FANOUT,
    fmt_seconds,
    print_table,
    sweep_config,
)
from benchmarks.sweeps.scenarios import skyline_methods
from repro.data.synthetic import generate_relation
from repro.data.workload import sample_predicate
from repro.system import build_system

CARDINALITIES = (10, 100, 1000)
T = 20_000


@pytest.fixture(scope="module")
def cardinality_sweep():
    rng = random.Random(11)
    results = {}
    for cardinality in CARDINALITIES:
        relation = generate_relation(
            sweep_config(T, cardinality=cardinality, seed=cardinality)
        )
        system = build_system(relation, fanout=SWEEP_FANOUT)
        modeled = {"Signature": 0.0, "Boolean": 0.0, "Domination": 0.0}
        for _ in range(N_QUERIES):
            predicate = sample_predicate(relation, 1, rng)
            for key, stats in skyline_methods(system, predicate).items():
                modeled[key] += stats.modeled_seconds(SECONDS_PER_IO)
        results[cardinality] = {
            key: value / N_QUERIES for key, value in modeled.items()
        }
    return results


def test_fig11_boolean_cardinality(cardinality_sweep):
    rows = [
        [
            cardinality,
            fmt_seconds(avg["Boolean"]),
            fmt_seconds(avg["Domination"]),
            fmt_seconds(avg["Signature"]),
        ]
        for cardinality, avg in (
            (c, cardinality_sweep[c]) for c in CARDINALITIES
        )
    ]
    print_table(
        f"Figure 11: skyline time vs boolean cardinality (T={T:,}, "
        "modeled at 5 ms/page)",
        ["C", "Boolean", "Domination", "Signature"],
        rows,
    )
    # Boolean improves with C; Domination deteriorates with C.
    assert (
        cardinality_sweep[1000]["Boolean"]
        < cardinality_sweep[10]["Boolean"]
    )
    assert (
        cardinality_sweep[1000]["Domination"]
        > cardinality_sweep[10]["Domination"]
    )
    # Signature is consistently the best of the three.
    for cardinality in CARDINALITIES:
        avg = cardinality_sweep[cardinality]
        assert avg["Signature"] <= avg["Boolean"]
        assert avg["Signature"] <= avg["Domination"]
