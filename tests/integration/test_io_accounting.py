"""End-to-end I/O properties: the claims behind Figures 6, 9, 15 and 16,
plus the Lemma 1 optimality statement, checked mechanically."""

import pytest

from repro.baselines.domination_first import domination_first_skyline
from repro.data.fixtures import small_config
from repro.data.synthetic import generate_relation
from repro.data.workload import sample_predicate
from repro.query.algorithm1 import SkylineStrategy, run_algorithm1
from repro.query.ranking import LinearFunction
from repro.query.stats import QueryStats
from repro.storage.buffer import BufferPool
from repro.storage.counters import SBLOCK
from repro.storage.disk import SimulatedDisk
from repro.system import build_system

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


@pytest.fixture(scope="module")
def paged_system():
    """The small relation on 128-byte pages: every cell's signature spans
    several partials, so a resumed query's bit tests can load."""
    relation = generate_relation(small_config(), disk=SimulatedDisk(page_size=128))
    return build_system(relation, fanout=8)


@pytest.mark.parametrize("kind", ["skyline", "topk"])
@pytest.mark.parametrize("paged", [False, True], ids=["4k", "128b"])
def test_drill_down_reads_fewer_blocks_than_fresh(
    small_system, paged_system, rng, paged, kind
):
    """Fig. 16 shape (Lemma 2), as an invariant rather than a timing: a
    drill-down and a roll-up answer what the fresh query answers and read
    no more pages, signature and R-tree together — also where each cell
    has several partials and the carried entries' bit tests may load —
    and count every entry they prune."""
    system = paged_system if paged else small_system
    fn = LinearFunction([0.7, 0.4])

    def answer(result):
        if kind == "skyline":
            return sorted(result.tids)
        return [round(score, 9) for score in result.scores]

    def run(predicate):
        if kind == "skyline":
            return system.engine.skyline(predicate)
        return system.engine.topk(fn, 8, predicate)

    for _ in range(5):
        predicate = sample_predicate(system.relation, 2, rng)
        dim = predicate.dims()[1]
        if paged:
            assert all(
                system.pcube.store.n_partials(cell) >= 2
                for cell in predicate.atomic_cells()
            )
        weaker = predicate.roll_up(dim)
        coarse, fine = run(weaker), run(predicate)
        resumed = [
            (system.engine.drill_down(coarse, dim, predicate.conjuncts[dim]), fine),
            (system.engine.roll_up(fine, dim), coarse),
        ]
        for follow_up, fresh in resumed:
            assert answer(follow_up) == answer(fresh)
            assert follow_up.stats.sblock <= fresh.stats.sblock
            assert follow_up.stats.total_io() <= fresh.stats.total_io()
        # Every entry a resumed query adds to a list is counted under that
        # list's arm, the roll-up's entries the old results settle too.
        (drilled, _), (rolled, _) = resumed
        assert len(drilled.state.d_list) == drilled.stats.dominance_pruned
        assert (
            len(drilled.state.b_list) - len(coarse.state.b_list)
            == drilled.stats.boolean_pruned
        )
        assert len(rolled.state.b_list) == rolled.stats.boolean_pruned
        assert (
            len(rolled.state.d_list) - len(fine.state.d_list)
            == rolled.stats.dominance_pruned
        )


def test_empty_predicate_reads_no_signatures(small_system):
    result = small_system.engine.skyline()
    assert result.stats.ssig == 0


def test_every_method_reports_elapsed_time(small_system, rng):
    predicate = sample_predicate(small_system.relation, 1, rng)
    result = small_system.engine.skyline(predicate)
    assert result.stats.elapsed_seconds > 0.0
    assert result.stats.results == len(result.tids)
