"""Tuple-oriented signature generation (paper Section IV-B.1, Fig. 2b).

To compute all signatures of a cuboid, tuples are grouped by the cuboid's
dimensions; each group (cell) carries the R-tree paths of its tuples, and
the cell signature is built by *recursive sorting*: sort the group by the
first path component, set the distinct components in the root bit array,
then recurse into each sub-list sharing the same component.

This module is the *oracle*, not the production path: nothing under
``src/`` imports it.  The build counts paths instead
(:meth:`repro.core.pcube.PCube.build`), and
``tests/core/test_generation.py::test_build_matches_the_oracle`` holds every
stored cell — bits, pages and counts — against the recursive sort.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from repro.bitmap.bitarray import BitArray
from repro.core.signature import Signature
from repro.core.sid import child_sid


def signature_by_recursive_sort(
    paths: Iterable[Sequence[int]], fanout: int
) -> Signature:
    """Build one cell's signature exactly as the paper describes.

    (1) sort the tuples by ``p0``; (2) set each distinct ``p0`` in the root
    bit array; (3) recurse on each sub-list sharing ``p0``, now keyed by
    ``p1``; and so on until the paths are exhausted.
    """
    signature = Signature(fanout)
    materialised = [tuple(path) for path in paths]

    def recurse(sub_list: list[tuple[int, ...]], depth: int, sid: int) -> None:
        sub_list = [p for p in sub_list if len(p) > depth]
        if not sub_list:
            return
        sub_list.sort(key=lambda p: p[depth])
        bits = BitArray(fanout)
        start = 0
        while start < len(sub_list):
            component = sub_list[start][depth]
            if not 1 <= component <= fanout:
                raise ValueError(
                    f"path component {component} outside [1, {fanout}]"
                )
            bits.set(component - 1)
            end = start
            while end < len(sub_list) and sub_list[end][depth] == component:
                end += 1
            recurse(
                sub_list[start:end],
                depth + 1,
                child_sid(sid, component, fanout),
            )
            start = end
        existing = signature.node(sid)
        signature.set_node(sid, bits if existing is None else existing | bits)

    recurse(materialised, 0, 0)
    return signature
