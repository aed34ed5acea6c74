"""Tier-1 count of what a maintenance write does on the quick ``mixed_rw``
stream, so the mechanism behind ``core.put_signature_ms_per_write`` and
``rtree.update_ms_per_write`` is checked on any host, not only timed: a
cell rewrite that fits one page makes no subtree walk, and ChooseLeaf
builds no rectangle.  Read-only use of ``benchmarks/e2e``.
"""

from __future__ import annotations

from benchmarks.e2e import harness
from benchmarks.e2e.workloads import QUICK, WORKLOADS, generate_ops
from repro.core import partial as partial_module
from repro.core import store as store_module
from repro.rtree.geometry import Rect
from repro.rtree.rtree import RTree


def test_quick_mixed_rw_writes_walk_no_subtree_and_build_no_rect(monkeypatch):
    spec = WORKLOADS["mixed_rw"]
    bench = harness.set_up(spec, QUICK, 7)
    walks: list[int] = []
    one_page_walks: list[int] = []
    choosing: list[bool] = []
    chosen: list[int] = []
    rects: list[Rect] = []
    real_walk = partial_module.bisect_left
    real_pack = store_module.pack
    real_choose = RTree._choose_node
    real_init = Rect.__init__
    real_trusted = Rect.trusted

    def walk(order, low):
        walks.append(low)
        return real_walk(order, low)

    def pack(compressed, page_size, fanout):
        before = len(walks)
        partials = real_pack(compressed, page_size, fanout)
        if len(partials) == 1:
            one_page_walks.append(len(walks) - before)
        return partials

    def choose(tree, mbr, target_level):
        assert tree.root.level > target_level  # a descent to make
        chosen.append(target_level)
        choosing.append(True)
        try:
            return real_choose(tree, mbr, target_level)
        finally:
            choosing.pop()

    def init(rect, lows, highs):
        if choosing:
            rects.append(rect)
        real_init(rect, lows, highs)

    def trusted(cls, lows, highs):
        rect = real_trusted(lows, highs)
        if choosing:
            rects.append(rect)
        return rect

    monkeypatch.setattr(partial_module, "bisect_left", walk)
    monkeypatch.setattr(store_module, "pack", pack)
    monkeypatch.setattr(RTree, "_choose_node", choose)
    monkeypatch.setattr(Rect, "__init__", init)
    monkeypatch.setattr(Rect, "trusted", classmethod(trusted))
    try:
        relation = bench.system.relation
        n_ops = spec.n_ops(1.0, QUICK)
        ops = generate_ops(spec, relation, harness.CARDINALITY, 7, n_ops)
        n_rows = len(relation)
        result = harness.run_pass(bench, ops, harness.check_stride_for(len(ops)))
        assert result.failed == 0 and not result.problems
        assert len(relation) > n_rows  # the stream inserted rows
    finally:
        bench.close()
    assert one_page_walks and set(one_page_walks) == {0}
    assert chosen and rects == []
