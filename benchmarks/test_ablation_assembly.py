"""Ablation: the on-demand recursive intersection vs its two neighbours.

Paper Fig. 3 assembles a multi-predicate signature with a *recursive*
intersection.  The serving reader (:class:`~repro.core.store.AssembledReader`)
evaluates it on demand over the stored partials; this bench sets it, on
multi-predicate CoverType queries, against

* the **oracle** — :func:`~repro.core.ops.intersect_all` over the members'
  full signatures, materialised up front (every partial of every cell
  loaded: the most a query could pay in ``SSig``, the fewest blocks it can
  read); and
* the **plain AND** — the members' bits and-ed node by node with no look
  below, built here (no query runs it): internal-node false positives cost
  a block read per level down to the leaves.

Asserted per query: the on-demand reader reads exactly the oracle's blocks,
loads no more partials than the oracle, and its blocks plus partial loads
stay under the plain AND's.
"""

import random

import pytest

from benchmarks.conftest import covertype_predicates, print_table
from repro.core.ops import intersect_all
from repro.core.pcube import SignatureAdapter
from repro.core.store import MemberReaders
from repro.query.algorithm1 import SkylineStrategy, run_algorithm1
from repro.query.stats import QueryStats
from repro.storage.buffer import BufferPool


class PlainAnd(MemberReaders):
    """The members' bits, and-ed: member *k* sees only what passed the
    members before it; nothing is looked up below the node asked about."""

    def check_entry(self, parent_path, position):
        return all(r.check_entry(parent_path, position) for r in self.readers)

    def check_block(self, parent_path, wanted):
        for reader in self.readers:
            if not wanted:
                break
            wanted = reader.check_block(parent_path, wanted)
            if wanted is None:
                return None
        return wanted

    def check_path(self, path):
        return all(reader.check_path(path) for reader in self.readers)


def _skyline_with(system, make_reader):
    stats = QueryStats()
    pool = BufferPool(system.rtree.disk, capacity=4096)
    reader = make_reader(pool, stats.counters)
    state = run_algorithm1(
        system.rtree,
        SkylineStrategy(system.rtree.dims),
        stats,
        reader=reader,
        pool=pool,
    )
    return [entry.tid for entry in state.results], stats


@pytest.fixture(scope="module")
def assembly_comparison(covertype_system):
    system = covertype_system
    store = system.pcube.store
    rng = random.Random(17)
    rows = []
    for trial in range(4):
        chain = covertype_predicates(system, rng)
        for predicate in chain[1:]:
            cells = predicate.atomic_cells()
            result = system.engine.skyline(predicate)
            tids, on_demand = result.tids, result.stats
            oracle_tids, oracle = _skyline_with(
                system,
                lambda pool, counters: SignatureAdapter(
                    intersect_all(
                        [
                            store.load_full_signature(cell, pool, counters)
                            for cell in cells
                        ]
                    )
                ),
            )
            plain_tids, plain = _skyline_with(
                system,
                lambda pool, counters: PlainAnd(
                    [store.reader(cell, pool, counters) for cell in cells]
                ),
            )
            assert tids == oracle_tids == plain_tids
            rows.append((len(predicate), on_demand, oracle, plain))
    return rows


def test_ablation_on_demand_vs_oracle_vs_plain_and(assembly_comparison):
    table = []
    for n_preds, on_demand, oracle, plain in assembly_comparison:
        table.append(
            [
                n_preds,
                plain.sblock,
                oracle.sblock,
                on_demand.sblock,
                plain.ssig,
                oracle.ssig,
                on_demand.ssig,
            ]
        )
        # Exactly the recursive intersection's pruning ...
        assert on_demand.sblock == oracle.sblock <= plain.sblock
        # ... without loading the members' full signatures ...
        assert on_demand.ssig <= oracle.ssig
        # ... and the partials the look-ahead loads are paid for in blocks.
        assert on_demand.sblock + on_demand.ssig <= plain.sblock + plain.ssig
    print_table(
        "Ablation: plain AND vs intersect_all oracle vs on-demand "
        "intersection (CoverType twin skylines)",
        [
            "#preds",
            "AND SBlock",
            "oracle SBlock",
            "on-demand SBlock",
            "AND SSig",
            "oracle SSig",
            "on-demand SSig",
        ],
        table,
    )
