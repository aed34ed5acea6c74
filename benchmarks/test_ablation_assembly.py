"""Ablation: the on-demand recursive intersection vs its two neighbours.

Paper Fig. 3 assembles a multi-predicate signature with a *recursive*
intersection.  The serving reader (:class:`~repro.core.readers.AssembledReader`)
evaluates it on demand over the stored partials; this bench sets it, on
multi-predicate CoverType queries, against

* the **oracle** — :func:`~repro.core.ops.intersect_all` over the members'
  full signatures, materialised up front (every partial of every cell
  loaded: the most a query could pay in ``SSig``, the fewest blocks it can
  read); and
* the **plain AND** — the members' bits and-ed node by node with no look
  below, the same reader told that every level is the leaf level
  (``AssembledReader(members, 0)``; no query runs it): internal-node false
  positives cost a block read per level down to the leaves.

Asserted per query: the on-demand reader reads exactly the oracle's blocks,
loads no more partials than the oracle, and its blocks plus partial loads
stay under the plain AND's.

A second series measures the union of Fig. 3b: a disjunction of two or
three CoverType conjunctions, served by ``system.engine.skyline([d1, d2,
...])`` (:class:`~repro.core.readers.AnyOfReader` over one on-demand
intersection per disjunct), against the oracle
:func:`~repro.core.ops.union_all` of the disjuncts' ``intersect_all``
signatures.  Asserted per query: the same answers and the same blocks; the
partial loads are printed.
"""

import random

import pytest

from benchmarks.conftest import covertype_predicates, print_table
from repro.core.ops import intersect_all, union_all
from repro.core.readers import AssembledReader, SignatureAdapter
from repro.query.algorithm1 import SkylineStrategy, run_algorithm1
from repro.query.stats import QueryStats
from repro.storage.buffer import BufferPool


def _full_intersection(store, predicate, pool, stats):
    return intersect_all(
        [
            store.load_full_signature(cell, pool, stats)
            for cell in predicate.atomic_cells()
        ]
    )


def _skyline_with(system, make_reader):
    stats = QueryStats()
    pool = BufferPool(system.rtree.disk, capacity=4096)
    reader = make_reader(pool, stats)
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
                lambda pool, stats: SignatureAdapter(
                    _full_intersection(store, predicate, pool, stats)
                ),
            )
            plain_tids, plain = _skyline_with(
                system,
                lambda pool, stats: AssembledReader(
                    [store.reader(cell, pool, stats) for cell in cells], 0
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


@pytest.fixture(scope="module")
def union_comparison(covertype_system):
    system = covertype_system
    store = system.pcube.store
    rng = random.Random(29)
    rows = []
    for trial in range(6):
        disjuncts = []
        for _ in range(2 + trial % 2):
            chain = covertype_predicates(system, rng)
            disjuncts.append(chain[rng.randrange(1, len(chain))])
        result = system.engine.skyline(disjuncts)
        oracle_tids, oracle = _skyline_with(
            system,
            lambda pool, stats: SignatureAdapter(
                union_all(
                    [
                        _full_intersection(store, disjunct, pool, stats)
                        for disjunct in disjuncts
                    ]
                )
            ),
        )
        assert result.tids == oracle_tids
        rows.append((disjuncts, len(result.tids), result.stats, oracle))
    return rows


def test_ablation_dnf_union_vs_oracle(union_comparison):
    table = []
    for disjuncts, n_results, served, oracle in union_comparison:
        table.append(
            [
                " OR ".join(str(len(disjunct)) for disjunct in disjuncts),
                n_results,
                oracle.sblock,
                served.sblock,
                oracle.ssig,
                served.ssig,
            ]
        )
        # The union on demand prunes exactly as the materialised union.
        assert served.sblock == oracle.sblock
    print_table(
        "Ablation: DNF skylines, union_all oracle vs AnyOfReader on demand "
        "(CoverType twin)",
        [
            "conjuncts per disjunct",
            "results",
            "oracle SBlock",
            "served SBlock",
            "oracle SSig",
            "served SSig",
        ],
        table,
    )
