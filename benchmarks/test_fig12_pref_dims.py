"""Figure 12: skyline time vs number of preference dimensions Dp ∈ {2,3,4}.

Paper observation: "It becomes more challenging to compute the skyline
results when the number of dimension goes high, and the computation time
for Domination increases.  On the other hand, the preference selectivity
has limited effect on Boolean. ... Signature performs fairly robustly and
is consistently the best."
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

PREF_DIMS = (2, 3, 4)
T = 20_000


@pytest.fixture(scope="module")
def dims_sweep():
    rng = random.Random(12)
    results = {}
    for n_preference in PREF_DIMS:
        relation = generate_relation(
            sweep_config(T, n_preference=n_preference, seed=n_preference)
        )
        system = build_system(relation, fanout=SWEEP_FANOUT)
        modeled = {"Signature": 0.0, "Boolean": 0.0, "Domination": 0.0}
        for _ in range(N_QUERIES):
            predicate = sample_predicate(relation, 1, rng)
            for key, stats in skyline_methods(system, predicate).items():
                modeled[key] += stats.modeled_seconds(SECONDS_PER_IO)
        results[n_preference] = {
            key: value / N_QUERIES for key, value in modeled.items()
        }
    return results


def test_fig12_preference_dimensions(dims_sweep):
    rows = [
        [
            n_preference,
            fmt_seconds(avg["Boolean"]),
            fmt_seconds(avg["Domination"]),
            fmt_seconds(avg["Signature"]),
        ]
        for n_preference, avg in ((d, dims_sweep[d]) for d in PREF_DIMS)
    ]
    print_table(
        f"Figure 12: skyline time vs Dp (T={T:,}, modeled at 5 ms/page)",
        ["Dp", "Boolean", "Domination", "Signature"],
        rows,
    )
    # Domination degrades as dimensionality rises.
    assert dims_sweep[4]["Domination"] > dims_sweep[2]["Domination"]
    # Signature is consistently the best of the three.
    for n_preference in PREF_DIMS:
        avg = dims_sweep[n_preference]
        assert avg["Signature"] <= avg["Boolean"]
        assert avg["Signature"] <= avg["Domination"]
