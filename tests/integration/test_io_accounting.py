"""End-to-end I/O properties: the claims behind Figures 6, 9, 15 and 16,
plus the Lemma 1 optimality statement, checked mechanically."""

import pytest

from repro.baselines.domination_first import domination_first_skyline
from repro.data.workload import sample_predicate
from repro.query.algorithm1 import SkylineStrategy, run_algorithm1
from repro.query.stats import QueryStats
from repro.storage.buffer import BufferPool
from repro.storage.counters import SBLOCK

from tests.reference import subtree_tids


class RecordingPool(BufferPool):
    """A buffer pool that remembers which pages it served."""

    def __init__(self, disk):
        super().__init__(disk, capacity=4096)
        self.pages: list[int] = []

    def get(self, page_id, category, counters=None):
        self.pages.append(page_id)
        return super().get(page_id, category, counters)


def test_lemma1_expanded_blocks_contain_qualifying_data(small_system, rng):
    """Lemma 1's substance: with exact boolean answers from signatures,
    every R-tree block the search expands holds at least one tuple that
    satisfies the predicate (no wasted block reads on boolean grounds)."""
    relation = small_system.relation
    for _ in range(5):
        predicate = sample_predicate(relation, 2, rng)
        pool = RecordingPool(small_system.rtree.disk)
        reader = small_system.engine.pcube.reader_for_cells(
            predicate.atomic_cells(), pool
        )
        stats = QueryStats()
        run_algorithm1(
            small_system.engine.rtree,
            SkylineStrategy(small_system.rtree.dims),
            stats,
            reader=reader,
            pool=pool,
            block_category=SBLOCK,
        )
        nodes_by_page = {
            node.page_id: node for node in small_system.rtree.nodes()
        }
        for page_id in pool.pages:
            node = nodes_by_page.get(page_id)
            if node is None:
                continue  # a signature or index page
            assert any(
                predicate.matches(relation, tid)
                for tid in subtree_tids(node)
            ), "expanded a block with no qualifying tuple"


def test_signature_blocks_subset_of_domination_blocks(small_system, rng):
    """The signature method reads a subset of the blocks Domination reads:
    both prune by dominance, Signature additionally prunes by booleans."""
    relation = small_system.relation
    for _ in range(5):
        predicate = sample_predicate(relation, 1, rng)

        sig_pool = RecordingPool(small_system.rtree.disk)
        reader = small_system.engine.pcube.reader_for_cells(
            predicate.atomic_cells(), sig_pool
        )
        run_algorithm1(
            small_system.engine.rtree,
            SkylineStrategy(2),
            QueryStats(),
            reader=reader,
            pool=sig_pool,
        )
        dom_pool = RecordingPool(small_system.rtree.disk)
        domination_first_skyline(
            small_system.engine.relation,
            small_system.engine.rtree,
            predicate,
            pool=dom_pool,
        )
        node_pages = {n.page_id for n in small_system.rtree.nodes()}
        sig_blocks = set(sig_pool.pages) & node_pages
        dom_blocks = set(dom_pool.pages) & node_pages
        assert sig_blocks <= dom_blocks


def test_ssig_far_below_sblock(small_system, rng):
    """Fig. 9 claim (1): signature loading is a small fraction of the
    signature method's block reads — one partial encodes many nodes."""
    total_ssig = total_sblock = 0
    for _ in range(8):
        predicate = sample_predicate(small_system.relation, 1, rng)
        stats = small_system.engine.skyline(predicate).stats
        total_ssig += stats.ssig
        total_sblock += stats.sblock
    assert total_ssig < total_sblock


def test_pcube_smaller_than_rtree_and_btrees():
    """Fig. 6 shape at paper-like parameters (page-derived fanout, C=100):
    the signature materialisation is smaller than both the R-tree it
    summarises and the baselines' per-dimension B+-trees."""
    from repro.baselines.boolean_first import build_boolean_indexes
    from repro.data.synthetic import SyntheticConfig, generate_relation
    from repro.system import build_system

    relation = generate_relation(
        SyntheticConfig(n_tuples=8000, cardinality=100, seed=33)
    )
    system = build_system(relation)
    build_boolean_indexes(relation)
    assert system.pcube_size_mb() < system.rtree_size_mb()
    assert system.pcube_size_mb() < system.disk.size_mb("btree")


def test_signature_loading_time_is_minor(small_system, rng):
    """Fig. 15 shape: loading time stays a small fraction of query time."""
    predicate = sample_predicate(small_system.relation, 3, rng)
    result = small_system.engine.skyline(predicate)
    assert result.stats.sig_load_seconds <= result.stats.elapsed_seconds


def test_drill_down_reads_fewer_blocks_than_fresh(small_system, rng):
    """Fig. 16 shape, as an invariant rather than a timing."""
    for _ in range(5):
        predicate = sample_predicate(small_system.relation, 2, rng)
        dims = predicate.dims()
        conjuncts = predicate.conjuncts
        base = small_system.engine.skyline(
            predicate.roll_up(dims[1])
        )
        drilled = small_system.engine.drill_down(
            base, dims[1], conjuncts[dims[1]]
        )
        fresh = small_system.engine.skyline(predicate)
        assert set(drilled.tids) == set(fresh.tids)
        assert drilled.stats.sblock <= fresh.stats.sblock


def test_empty_predicate_reads_no_signatures(small_system):
    result = small_system.engine.skyline()
    assert result.stats.ssig == 0


def test_every_method_reports_elapsed_time(small_system, rng):
    predicate = sample_predicate(small_system.relation, 1, rng)
    result = small_system.engine.skyline(predicate)
    assert result.stats.elapsed_seconds > 0.0
    assert result.stats.results == len(result.tids)
