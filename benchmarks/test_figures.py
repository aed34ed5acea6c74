"""Figures 5, 6, 8, 9, 10 and 13: the paper's "who wins" claims, asserted on
the output of the scenarios ``python -m benchmarks.sweeps`` writes and gates.

Every scenario runs once, at full size (seed 7, ``SWEEP_SIZES``,
``N_QUERIES``, the shared ``bench_context``), and prints as the runner
prints it, with a ``t@5ms`` column: wall time plus 5 ms per counted page
access, the I/O-bound execution time of the paper's 2008 disk.  Each test
quotes the paper's observation it checks.
"""

from typing import Any, Callable

import pytest

from benchmarks.sweeps.report import modeled_seconds, render_report
from benchmarks.sweeps.scenarios import SCENARIOS
from repro.storage.counters import DBLOCK, DBOOL, SBLOCK, SSIG


@pytest.fixture(scope="module")
def figures(bench_context):
    report = {
        "figures": {
            name: scenario(bench_context)
            for name, scenario in SCENARIOS.items()
        }
    }
    print("\n" + render_report(report))
    return report["figures"]


def column(
    figures, figure: str, value: Callable[[dict], Any]
) -> dict[str, list]:
    """``value`` of every point of one figure: series → one entry per x."""
    return {
        name: [value(point) for point in body["points"]]
        for name, body in figures[figure]["series"].items()
    }


def test_fig05_pcube_builds_faster_than_the_rtree(figures):
    """Paper: "the computation of P-Cube is 7-8 times faster than that of
    R-tree, and is comparable to that of B+-tree."  The R-tree is built by
    repeated insertion, as a dynamic R-tree is.  The B+-tree half is
    reported, not asserted: a pure-Python in-memory B+-tree insert pays
    none of the page I/O that made the paper's B+-tree build as expensive
    as signature generation."""
    wall = column(figures, "fig05", lambda point: point["wall_ms"])
    for rtree, pcube in zip(wall["R-tree"], wall["P-Cube"]):
        assert pcube < rtree / 2


def test_fig06_pcube_is_the_smallest_materialisation(figures):
    """Paper: "P-Cube is 2 times less than B+-trees and 8 times less
    than R-tree."
    """
    size = column(figures, "fig06", lambda point: point["size_mb"])
    for pcube, btree, rtree in zip(
        size["P-Cube"], size["B-tree"], size["R-tree"]
    ):
        assert pcube < btree
        assert pcube < rtree


def test_fig08_signature_skyline_is_fastest_under_the_disk_model(figures):
    """Paper: "the signature-based query processing is at least one
    order of magnitude faster ... Signature combines both pruning
    opportunities."
    """
    t5 = column(figures, "fig08", modeled_seconds)
    for sig, boolean, dom in zip(
        t5["Signature"], t5["Boolean"], t5["Domination"]
    ):
        assert sig < boolean
        assert sig < dom


def test_fig09_signature_loads_little_and_reads_fewer_blocks(figures):
    """Paper: "the cost of loading signature is far smaller (≤ 1%) than
    that of retrieving R-tree blocks, and ... our method prunes more than
    1/3 R-tree blocks comparing with Domination and avoids even more
    random tuple accesses."
    """
    io = column(figures, "fig09", lambda point: point["io"])
    for sig, dom in zip(io["Signature"], io["Domination"]):
        ssig, sblock = sig.get(SSIG, 0), sig.get(SBLOCK, 0)
        dblock, dbool = dom.get(DBLOCK, 0), dom.get(DBOOL, 0)
        assert ssig < sblock
        assert sblock <= dblock
        assert dbool > 0
        assert sblock + ssig < dblock + dbool


def test_fig10_signature_keeps_the_smallest_heap(figures):
    """Paper: "with Signature, the number of entries kept in memory is an
    order of magnitude less than that of Domination and Boolean."
    """
    heap = column(figures, "fig10", lambda point: point["heap_peak"])
    for sig, boolean, dom in zip(
        heap["Signature"], heap["Boolean"], heap["Domination"]
    ):
        assert sig < dom
        assert sig < boolean


def test_fig13_signature_topk_wins_at_every_k(figures):
    """Paper: "Boolean is not sensitive to the value of k; Ranking
    performs better when k is small.  Signature runs order of magnitudes
    faster, and it also outperforms Index Merge."
    """
    t5 = column(figures, "fig13", modeled_seconds)  # k = 10, 20, 50, 100
    for i, sig in enumerate(t5["Signature"]):
        for method in ("Boolean", "Ranking", "IndexMerge"):
            assert sig <= t5[method][i]
    assert t5["Ranking"][-1] > t5["Ranking"][0]
    assert t5["Boolean"][-1] < t5["Boolean"][0] * 1.5  # flat within noise
