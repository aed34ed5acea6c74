"""Ablation: per-node bitmap codecs (paper Section IV-B.1, reason (2)).

The paper compresses each signature node individually so that "one may
achieve better compression ratio by adaptively choosing different
compression scheme[s]".  This bench measures each codec — and the adaptive
choice — over the real node population of a built P-Cube.
"""

import pytest

from benchmarks.conftest import SWEEP_SIZES, print_table
from repro.bitmap.compression import CODECS, compress
from repro.cube.cuboid import Cell


@pytest.fixture(scope="module")
def node_population(bench_context):
    """Every node of every cell signature at the smallest size, as
    ``(nbits, mask)``."""
    system = bench_context.system(SWEEP_SIZES[0])
    nodes = []
    for cell_id in system.pcube.store.cells():
        dim, value = cell_id.split("=")
        cell = Cell((dim,), (int(value),))
        signature = system.pcube.signature_of(cell)
        nodes.extend((signature.fanout, mask) for mask in signature.masks().values())
    return nodes


def test_ablation_codec_sizes(node_population):
    raw_bytes = sum((nbits + 7) // 8 for nbits, _ in node_population)
    rows = []
    sizes = {}
    for codec in sorted(CODECS) + ["adaptive"]:
        total = sum(len(compress(*node, codec)) for node in node_population)
        sizes[codec] = total
        rows.append(
            [
                codec,
                f"{total / 1024:.1f}KB",
                f"{raw_bytes / total:.2f}x",
            ]
        )
    print_table(
        f"Ablation: codec size over {len(node_population):,} signature "
        f"nodes (packed bits: {raw_bytes / 1024:.1f}KB)",
        ["codec", "compressed", "vs packed"],
        rows,
    )
    # The adaptive choice is at least as small as every fixed codec and
    # strictly better than the worst one.
    assert sizes["adaptive"] == min(sizes.values())
    assert sizes["adaptive"] < max(
        sizes[codec] for codec in CODECS
    )
