"""R-tree over the preference dimensions — the partition template of P-Cube.

The paper partitions data once over the preference dimensions using an
R-tree [15] (any hierarchical partition works; the signature only needs
*paths*).  This package provides:

* :mod:`repro.rtree.geometry` — rectangles and point dominance;
* :mod:`repro.rtree.node` — nodes with **stable 1-based slots** (deletions
  leave free slots, insertions reuse the first free slot, exactly as the
  paper's maintenance section assumes), so tuple *paths* only change on node
  splits / re-insertions;
* :mod:`repro.rtree.rtree` — Guttman insertion with the quadratic split,
  deletion with tree condensation (which re-inserts orphaned entries), and
  precise *path-change tracking* feeding incremental signature
  maintenance;
* :mod:`repro.rtree.bulk` — Sort-Tile-Recursive bulk loading for fast
  construction at benchmark scale.
"""

from repro.rtree.geometry import Rect
from repro.rtree.node import Entry, RTreeNode
from repro.rtree.rtree import PathChange, RTree, fanout_for_page
from repro.rtree.bulk import bulk_load

__all__ = [
    "Entry",
    "PathChange",
    "RTree",
    "Rect",
    "RTreeNode",
    "bulk_load",
    "fanout_for_page",
]
