"""Reference code only the tests use: oracles and the paper example.

No product module, benchmark or example calls these functions; the tests
hold the product against them.  ``tests/kernels/reference.py`` is the
scalar oracle of the batch kernels.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import Iterable, Iterator, Sequence

from repro.baselines.skyline_algs import Points, sfs_skyline
from repro.bitmap.bitarray import mask_positions
from repro.bitmap.compression import CODECS, CodecError
from repro.core.partial import (
    _NODE_OVERHEAD_BYTES as NODE_OVERHEAD_BYTES,
    _PART_HEADER_BYTES as PART_HEADER_BYTES,
    PartialSignature,
)
from repro.core.pcube import PCube, PCubeView
from repro.core.sid import child_sid, sid_of_path
from repro.core.signature import Signature
from repro.cube.cuboid import Cell, Cuboid
from repro.cube.relation import Relation
from repro.kernels.dominate import DominationBuffer
from repro.query.hull import _EPSILON as HULL_EPSILON
from repro.query.predicates import BooleanPredicate
from repro.rtree.frozen import freeze
from repro.rtree.geometry import Rect, dominates
from repro.rtree.node import leaf_paths
from repro.rtree.rtree import RTree


# --------------------------------------------------------------------------- #
# skylines: block-nested-loops and divide-and-conquer (Borzsonyi et al.)
# --------------------------------------------------------------------------- #


def bnl_skyline(points: Points, window: int = 1024) -> list[int]:
    """Block-nested-loops skyline with a bounded comparison window.

    The original algorithm's timestamp rule, made explicit: a window member
    is final after a pass only if it entered the window *before* the first
    tuple overflowed — otherwise some overflow tuple was never compared
    against it, and the member must go around again with the overflow.
    """
    remaining = list(points)
    skyline: list[tuple[int, tuple[float, ...]]] = []
    while remaining:
        # (tid, point, entered_at_input_index)
        window_items: list[tuple[int, tuple[float, ...], int]] = []
        overflow: list[tuple[int, tuple[float, ...]]] = []
        first_overflow_at: int | None = None
        for position, (tid, point) in enumerate(remaining):
            dominated = False
            survivors: list[tuple[int, tuple[float, ...], int]] = []
            for w_tid, w_point, w_at in window_items:
                if dominates(w_point, point):
                    dominated = True
                    break
                if not dominates(point, w_point):
                    survivors.append((w_tid, w_point, w_at))
            if dominated:
                continue
            window_items = survivors
            if len(window_items) < window:
                window_items.append((tid, point, position))
            else:
                if first_overflow_at is None:
                    first_overflow_at = position
                overflow.append((tid, point))
        cutoff = first_overflow_at if first_overflow_at is not None else len(
            remaining
        )
        deferred: list[tuple[int, tuple[float, ...]]] = []
        for tid, point, entered_at in window_items:
            if entered_at < cutoff:
                skyline.append((tid, point))
            else:
                deferred.append((tid, point))
        remaining = deferred + overflow
    return [tid for tid, _ in skyline]


def dnc_skyline(points: Points, threshold: int = 64) -> list[int]:
    """Divide-and-conquer skyline: split on a median, merge by filtering."""
    if not points:
        return []
    tids = set(_dnc([(tid, tuple(p)) for tid, p in points], 0, threshold))
    return [tid for tid, _ in points if tid in tids]


def _dnc(points: Points, depth: int, threshold: int) -> list[int]:
    if len(points) <= threshold:
        return sfs_skyline(points)
    dims = len(points[0][1])
    dim = depth % dims
    ordered = sorted(points, key=lambda item: item[1][dim])
    mid = len(ordered) // 2
    left, right = ordered[:mid], ordered[mid:]
    left_sky = set(_dnc(left, depth + 1, threshold))
    right_sky = set(_dnc(right, depth + 1, threshold))
    left_points = {tid: point for tid, point in left if tid in left_sky}
    right_points = {tid: point for tid, point in right if tid in right_sky}
    # Cross-filter both halves.  The classic merge only filters the right
    # half, which is sound for a strict value split; a median split can put
    # equal split-dimension values on both sides, where a right point may
    # dominate a left one, so the symmetric check is required for
    # exactness.  (Transitivity makes filtering against the half-skylines,
    # rather than the full halves, sufficient.)
    left_buffer = DominationBuffer(dims, points=list(left_points.values()))
    right_buffer = DominationBuffer(dims, points=list(right_points.values()))
    left_dominated = right_buffer.dominates_block(
        list(left_points.values())
    )
    right_dominated = left_buffer.dominates_block(
        list(right_points.values())
    )
    survivors = [
        tid
        for tid, dominated in zip(left_points, left_dominated)
        if not dominated
    ]
    survivors.extend(
        tid
        for tid, dominated in zip(right_points, right_dominated)
        if not dominated
    )
    return survivors


# --------------------------------------------------------------------------- #
# hull, DNF and signature oracles
# --------------------------------------------------------------------------- #


def cube_view(pcube: PCube) -> PCubeView:
    """The query surface of a stand-alone cube — one built without a
    system, so no epoch manager publishes it — at its current state."""
    store = pcube.store
    return pcube.view(
        pcube.relation.view(0),
        freeze(pcube.rtree),
        store.view(store.directory_snapshot()),
    )


def path_of_sid(sid: int, fanout: int) -> tuple[int, ...]:
    """Invert :func:`sid_of_path`.

    Raises:
        ValueError: if ``sid`` is not the image of any valid path.
    """
    if sid < 0:
        raise ValueError("SIDs are non-negative")
    base = fanout + 1
    components: list[int] = []
    while sid:
        digit = sid % base
        if digit == 0:
            raise ValueError(f"{sid} is not a valid SID for fanout {fanout}")
        components.append(digit)
        sid //= base
    components.reverse()
    return tuple(components)


def ancestor_sids(path: Sequence[int], fanout: int) -> list[int]:
    """SIDs of every prefix of ``path``: root first, the node itself last
    (the path form of :func:`repro.core.partial.retrieval_refs`)."""
    base = fanout + 1
    sids = [0]
    sid = 0
    for component in path:
        if not 1 <= component <= fanout:
            raise ValueError(
                f"path component {component} outside [1, {fanout}]"
            )
        sid = sid * base + component
        sids.append(sid)
    return sids


def naive_lower_hull(
    points: Sequence[tuple[int, Sequence[float]]]
) -> list[int]:
    """Ground-truth 2-D lower-left hull.

    Andrew's monotone chain restricted to the chain from the minimal-x
    point to the minimal-y point, with collinear points dropped and ties
    broken exactly like the search (smaller y at equal x, smaller x at
    equal y).
    """
    if not points:
        return []
    best_by_coord: dict[tuple[float, float], int] = {}
    for tid, point in sorted(points, key=lambda item: item[0]):
        best_by_coord.setdefault((point[0], point[1]), tid)
    coords = sorted(best_by_coord)
    # Walk the lower hull left to right.
    chain: list[tuple[float, float]] = []
    for point in coords:
        while len(chain) >= 2:
            (ox, oy), (px, py) = chain[-2], chain[-1]
            cross = (px - ox) * (point[1] - oy) - (py - oy) * (point[0] - ox)
            # Tolerant collinearity test, mirroring the search's epsilon:
            # float residues on exactly collinear inputs must still pop.
            if cross <= HULL_EPSILON:
                chain.pop()
            else:
                break
        chain.append(point)
    # Restrict to the decreasing-y prefix (the lower-LEFT chain: once y
    # starts rising we are past the minimal-y corner).
    min_y = min(y for _, y in coords)
    result: list[tuple[float, float]] = []
    for point in chain:
        result.append(point)
        if point[1] == min_y:
            break
    return [best_by_coord[point] for point in result]


def matches_dnf(
    relation: Relation,
    disjuncts: Sequence[BooleanPredicate],
    tid: int,
) -> bool:
    """Ground-truth DNF evaluation (any disjunct matches)."""
    return any(disjunct.matches(relation, tid) for disjunct in disjuncts)


def signature_by_recursive_sort(
    paths: Iterable[Sequence[int]], fanout: int
) -> Signature:
    """Tuple-oriented signature generation (paper Section IV-B.1, Fig. 2b).

    (1) sort the tuples by ``p0``; (2) set each distinct ``p0`` in the root
    bit array; (3) recurse on each sub-list sharing ``p0``, now keyed by
    ``p1``; and so on until the paths are exhausted.  The build counts
    paths instead (:meth:`repro.core.pcube.PCube.build`), and
    ``tests/core/test_generation.py::test_build_matches_the_oracle`` holds
    every stored cell — bits, pages and counts — against this sort.
    """
    signature = Signature(fanout)
    materialised = [tuple(path) for path in paths]

    def recurse(sub_list: list[tuple[int, ...]], depth: int, sid: int) -> None:
        sub_list = [p for p in sub_list if len(p) > depth]
        if not sub_list:
            return
        sub_list.sort(key=lambda p: p[depth])
        bits = 0
        start = 0
        while start < len(sub_list):
            component = sub_list[start][depth]
            if not 1 <= component <= fanout:
                raise ValueError(
                    f"path component {component} outside [1, {fanout}]"
                )
            bits |= 1 << component - 1
            end = start
            while end < len(sub_list) and sub_list[end][depth] == component:
                end += 1
            recurse(
                sub_list[start:end],
                depth + 1,
                child_sid(sid, component, fanout),
            )
            start = end
        signature.set_node(sid, signature.node(sid) | bits)

    recurse(materialised, 0, 0)
    return signature


def tuple_paths(signature: Signature) -> Iterator[tuple[int, ...]]:
    """The maximal paths a signature encodes: for one generated from data,
    exactly the paths of the cell's tuples."""

    def walk(prefix: tuple[int, ...], sid: int) -> Iterator[tuple[int, ...]]:
        bits = signature.node(sid)
        if not bits:
            if prefix:
                yield prefix
            return
        for position in mask_positions(bits):
            component = position + 1
            yield from walk(
                prefix + (component,),
                child_sid(sid, component, signature.fanout),
            )

    return walk((), 0)


def contains_subtree(signature: Signature, path: Sequence[int]) -> bool:
    """Whether the cell has any data under the node at ``path`` (the empty
    path asks whether the cell is non-empty)."""
    if not path:
        return bool(signature)
    return check_bit(signature, sid_of_path(path[:-1], signature.fanout), path[-1])


def check_bit(signature: Signature, parent_sid: int, position: int) -> bool:
    """Whether child ``position`` (1-based) of node ``parent_sid`` holds data."""
    return bool(signature.node(parent_sid) >> position - 1 & 1)


def set_bit_count(signature: Signature) -> int:
    """Total set bits across all nodes (a size diagnostic)."""
    return sum(
        signature.node(sid).bit_count() for sid in signature.masks()
    )


# --------------------------------------------------------------------------- #
# R-tree range search: a second traversal that trusts every node's MBR
# --------------------------------------------------------------------------- #


def _boxes_meet(a: Rect, b: Rect) -> bool:
    """Whether two closed boxes share a point (touching counts)."""
    return all(
        a_lo <= b_hi and b_lo <= a_hi
        for a_lo, a_hi, b_lo, b_hi in zip(a.lows, a.highs, b.lows, b.highs)
    )


def subtree_tids(node) -> list[int]:
    """All tuple ids stored under ``node`` (inclusive)."""
    return [
        tid
        for leaf, _ in leaf_paths(node)
        for tid in leaf.tids[leaf.live_slots()].tolist()
    ]


def range_search(tree: RTree, rect: Rect) -> list[int]:
    """Tids of the points inside ``rect`` (boundary included), found by
    descending only into entries whose MBR meets ``rect`` — so a parent MBR
    that fails to cover a child's points loses answers."""
    found: list[int] = []
    stack = [tree.root]
    while stack:
        node = stack.pop()
        for _, entry in node.live_entries():
            if not _boxes_meet(rect, entry.mbr):
                continue
            if node.is_leaf:
                found.append(entry.tid)
            else:
                stack.append(entry.child)
    return found


def generate_cuboid_signatures(
    relation: Relation,
    cuboid: Cuboid,
    paths: dict[int, tuple[int, ...]],
    fanout: int,
) -> dict[Cell, Signature]:
    """All cell signatures of one cuboid, tuple-oriented.

    Args:
        relation: The base table.
        cuboid: The group-by to materialise.
        paths: tid → current R-tree path (from :meth:`RTree.all_paths`).
        fanout: R-tree node capacity ``M``.
    """
    groups = cuboid.group(relation)
    return {
        cell: signature_by_recursive_sort(
            (paths[tid] for tid in tids), fanout
        )
        for cell, tids in groups.items()
    }


def reassemble(
    partials: Sequence[PartialSignature], fanout: int
) -> Signature:
    """Rebuild the full signature from all of its partials."""
    signature = Signature(fanout)
    for partial in partials:
        for sid, bits in partial.decode(fanout).items():
            signature.set_node(sid, bits)
    return signature


def codec_name(blob: bytes) -> str:
    """Which codec produced this blob: its header's top two bits."""
    names = {codec_id: name for name, (codec_id, _, _) in CODECS.items()}
    if not blob:
        raise CodecError("not a compressed bitmap blob")
    return names[blob[0] >> 6]


# --------------------------------------------------------------------------- #
# the packer as first written: a seed walks every node of its subtree
# --------------------------------------------------------------------------- #


def _subtree_sids(order: Sequence[int], seed: int, fanout: int) -> Iterator[int]:
    """Breadth-first SIDs of the subtree at ``seed`` among the ascending
    SIDs ``order``: one contiguous slice per depth."""
    base = fanout + 1
    low = high = seed
    while low <= order[-1]:
        yield from order[bisect_left(order, low) : bisect_right(order, high)]
        low, high = low * base + 1, high * base + fanout


def pack_by_walk(
    compressed: dict[int, bytes], page_size: int, fanout: int
) -> list[PartialSignature]:
    """``core.partial.pack``'s oracle: every seed in SID order walks its
    whole subtree node by node, skipping the coded ones, and packs until a
    node does not fit the page."""
    order = sorted(compressed)
    coded: set[int] = set()
    partials: list[PartialSignature] = []
    for seed in order:
        blobs: dict[int, bytes] = {}
        size = PART_HEADER_BYTES
        for sid in _subtree_sids(order, seed, fanout):
            if sid in coded:
                continue
            cost = NODE_OVERHEAD_BYTES + len(compressed[sid])
            if blobs and size + cost > page_size:
                break
            blobs[sid] = compressed[sid]
            coded.add(sid)
            size += cost
        if blobs:
            partials.append(
                PartialSignature(ref_sid=seed, blobs=blobs, size_bytes=size)
            )
    return partials
