"""Figure 14: skyline time vs number of boolean predicates (real data).

Paper observation (on Forest CoverType): "Signature and Boolean are not
sensitive to boolean predicates, and the former performs consistently
better.  Domination requests more boolean verification, and thus the
execution time grows significantly."
"""

import random

import pytest

from benchmarks.conftest import (
    SECONDS_PER_IO,
    covertype_predicates,
    fmt_seconds,
    print_table,
)
from benchmarks.sweeps.scenarios import skyline_methods
from repro.baselines.boolean_first import build_boolean_indexes


@pytest.fixture(scope="module")
def predicate_sweep(covertype_system):
    rng = random.Random(14)
    indexes = build_boolean_indexes(covertype_system.relation)
    results = []
    for predicate in covertype_predicates(covertype_system, rng):
        stats = skyline_methods(covertype_system, indexes, predicate)
        results.append(
            (
                len(predicate),
                stats["Signature"],
                stats["Boolean"],
                stats["Domination"],
            )
        )
    return results


def test_fig14_boolean_predicates(predicate_sweep):
    rows = []
    for n_preds, sig_stats, bool_stats, dom_stats in predicate_sweep:
        rows.append(
            [
                n_preds,
                fmt_seconds(dom_stats.modeled_seconds(SECONDS_PER_IO)),
                fmt_seconds(bool_stats.modeled_seconds(SECONDS_PER_IO)),
                fmt_seconds(sig_stats.modeled_seconds(SECONDS_PER_IO)),
                dom_stats.total_io(),
                bool_stats.total_io(),
                sig_stats.total_io(),
            ]
        )
        # Signature wins on I/O (and modeled time) at every depth.
        assert sig_stats.total_io() <= bool_stats.total_io()
        assert sig_stats.total_io() <= dom_stats.total_io()
    print_table(
        "Figure 14: skyline time vs #boolean predicates "
        "(CoverType twin, modeled at 5 ms/page)",
        ["#preds", "Dom", "Bool", "Sig", "Dom I/O", "Bool I/O", "Sig I/O"],
        rows,
    )
    # Domination deteriorates with predicate count; Signature is
    # flat-to-falling like the paper's curve: each further predicate shrinks
    # the exact intersection, so the query never gets dearer.
    dom_io = [row[4] for row in rows]
    sig_io = [row[6] for row in rows]
    assert max(dom_io) > 5 * dom_io[0] or dom_io[0] > 1000
    assert sig_io == sorted(sig_io, reverse=True)
