"""Ablation: lossy Bloom-filter signatures (paper Section VII).

The lossy variant trades storage for extra (conservative) block reads.
This bench measures both sides at several target false-positive rates.
"""

import random

import pytest

from benchmarks.conftest import SWEEP_SIZES, print_table
from repro.core.bloom_sig import BloomConjunction, BloomSignature
from repro.core.partial import decompose
from repro.data.workload import sample_predicate
from repro.query.algorithm1 import SkylineStrategy, run_algorithm1
from repro.query.stats import QueryStats

FP_RATES = (0.001, 0.01, 0.1)
N_QUERIES = 5


@pytest.fixture(scope="module")
def bloom_comparison(bench_context):
    system = bench_context.system(SWEEP_SIZES[0])
    relation = system.relation
    rtree = system.engine.rtree
    rng = random.Random(18)
    queries = [sample_predicate(relation, 1, rng) for _ in range(N_QUERIES)]

    exact_bytes = 0
    exact_expanded = 0
    for predicate in queries:
        (cell,) = predicate.atomic_cells()
        signature = system.pcube.signature_of(cell)
        exact_bytes += sum(
            p.size_bytes
            for p in decompose(signature, system.disk.page_size)
        )
        stats = QueryStats()
        from repro.core.readers import SignatureAdapter

        run_algorithm1(
            rtree,
            SkylineStrategy(rtree.dims),
            stats,
            reader=SignatureAdapter(signature),
        )
        exact_expanded += stats.nodes_expanded

    per_rate = {}
    for fp_rate in FP_RATES:
        total_bytes = 0
        total_expanded = 0
        for predicate in queries:
            (cell,) = predicate.atomic_cells()
            signature = system.pcube.signature_of(cell)
            bloom = BloomSignature.from_signature(signature, fp_rate=fp_rate)
            total_bytes += bloom.size_bytes()
            stats = QueryStats()
            state = run_algorithm1(
                rtree,
                SkylineStrategy(rtree.dims),
                stats,
                reader=BloomConjunction([bloom]),
                verifier=lambda tid, p=predicate: p.matches(relation, tid),
            )
            total_expanded += stats.nodes_expanded
            del state
        per_rate[fp_rate] = (total_bytes, total_expanded)
    return exact_bytes, exact_expanded, per_rate


def test_ablation_bloom_signatures(bloom_comparison):
    exact_bytes, exact_expanded, per_rate = bloom_comparison
    rows = [["exact", f"{exact_bytes / 1024:.1f}KB", exact_expanded, "-"]]
    for fp_rate in FP_RATES:
        total_bytes, total_expanded = per_rate[fp_rate]
        rows.append(
            [
                f"bloom@{fp_rate}",
                f"{total_bytes / 1024:.1f}KB",
                total_expanded,
                f"+{total_expanded - exact_expanded}",
            ]
        )
        # Conservative: never fewer expansions than the exact signature.
        assert total_expanded >= exact_expanded
    print_table(
        f"Ablation: Bloom vs exact signatures ({N_QUERIES} skyline queries)",
        ["variant", "signature bytes", "nodes expanded", "extra blocks"],
        rows,
    )
    # The loosest filter must be substantially smaller than the exact form.
    loose_bytes, _ = per_rate[max(FP_RATES)]
    assert loose_bytes < exact_bytes
    # Tighter filters expand fewer (or equal) extra nodes than looser ones.
    assert per_rate[min(FP_RATES)][1] <= per_rate[max(FP_RATES)][1]
