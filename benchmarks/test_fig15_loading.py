"""Figure 15: signature loading time vs query processing time.

Paper observation: "The time used for loading signatures increases slightly
with k [predicates].  However, even when there are 4 boolean predicates,
the signature loading time is still far less than the query processing time
(i.e., less than 10%) ... materialising atomic cuboids only may be good
enough in real applications."

Measured here: the paper's share holds at one predicate (the point closest
to paper scale).  Beyond it the exact intersection leaves 3–7 blocks to
read — fewer pages than the partials its look-ahead loads — so loading is
the *majority* of a multi-predicate query on this 40k-row twin, while the
query as a whole is cheaper than the one-predicate one (EXPERIMENTS.md,
Figure 15).  Asserted: what is true at every predicate count — a query
loads part of its cells' signatures, never all of them.
"""

import pytest

from benchmarks.conftest import (
    SECONDS_PER_IO,
    covertype_predicates,
    fmt_seconds,
    print_table,
)
from repro.query.skyline import skyline_signature


@pytest.fixture(scope="module")
def loading_sweep(covertype_system):
    import random

    system = covertype_system
    rng = random.Random(15)
    chain = covertype_predicates(system, rng)
    results = []
    for predicate in chain:
        _, stats, _ = skyline_signature(
            system.relation, system.rtree, system.pcube, predicate
        )
        load_modeled = stats.sig_load_seconds + SECONDS_PER_IO * stats.ssig
        total_modeled = stats.modeled_seconds(SECONDS_PER_IO)
        stored = sum(
            system.pcube.store.n_partials(cell)
            for cell in predicate.atomic_cells()
        )
        results.append(
            (len(predicate), stats, load_modeled, total_modeled, stored)
        )
    return results


def test_fig15_signature_loading(loading_sweep):
    rows = []
    for n_preds, stats, load_modeled, total_modeled, stored in loading_sweep:
        share = load_modeled / total_modeled
        rows.append(
            [
                n_preds,
                fmt_seconds(load_modeled),
                fmt_seconds(total_modeled),
                f"{share * 100:.1f}%",
                stats.ssig,
                stored,
                stats.sblock,
            ]
        )
        # Partial loading: never every partial of the cells assembled.
        assert stats.ssig < stored
    print_table(
        "Figure 15: signature loading vs total query time "
        "(CoverType twin, modeled at 5 ms/page; paper: load < 10%)",
        ["#preds", "load", "total", "share", "SSig", "of stored", "SBlock"],
        rows,
    )
    # The paper's share, where the query is closest to paper scale ...
    one = loading_sweep[0]
    assert one[2] < 0.1 * one[3]
    # ... and no multi-predicate query, loading included, costs more than
    # the one-predicate query it refines.
    assert all(total <= one[3] for _, _, _, total, _ in loading_sweep)
    # Loading grows with the number of one-dimensional signatures, since
    # only atomic cuboids are materialised.
    assert rows[-1][4] >= rows[0][4]
