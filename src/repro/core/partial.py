"""Compression and decomposition into page-sized partial signatures.

Paper Section IV-B.1 ("Compressing and Decomposing Signature"):

* each node's bit array is compressed *individually* (adaptive codec), then
  the compressed nodes are assembled into binary strings;
* the signature tree is decomposed breadth-first: starting at the root,
  nodes are accumulated until the page budget ``P`` is reached — that's the
  first partial signature, referenced by the root's SID; the traversal then
  restarts from the root's first child (skipping already-coded nodes), then
  the following children, then the third level, and so on;
* every partial signature corresponds to a subtree and is referenced by the
  SID of that subtree's root.

The packer needs no tree for that.  SIDs are numerals with digits ``1..M``
in base ``B = M + 1`` (:mod:`repro.core.sid`), so a deeper node has a larger
SID and siblings order by position: breadth-first order *is* ascending SID
order.  The descendants of a seed one level further down are exactly the
SIDs in ``[low * B + 1, high * B + M]`` (``low = high = seed`` to start) —
one contiguous range of the sorted SIDs per depth, found by bisection.

Retrieval (Section IV-B.2): to find the partial that encodes a requested
node ``n``, walk the ancestors of ``n`` from the first level downward and
load the partial referenced by the first ancestor whose partial is not yet
resident; by construction some ancestor (possibly ``n`` itself) references a
partial containing ``n``.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from itertools import chain
from typing import Iterable, Iterator, Mapping, Sequence

from repro.bitmap.bitarray import BitArray
from repro.bitmap.compression import compress, decompress
from repro.core.signature import Signature, move_paths, path_sids

#: Fixed overhead per partial signature (cell reference, root SID, count).
_PART_HEADER_BYTES = 16
#: Per-node overhead inside a partial.  The on-page layout needs no
#: explicit SIDs: nodes are concatenated in BFS order from the partial's
#: reference, and each node's bit array tells the decoder which children
#: follow — the signature tree is self-describing.  One byte covers the
#: per-node continuation marker; the in-memory ``blobs`` dict is just the
#: decoded form.
_NODE_OVERHEAD_BYTES = 1


@dataclass
class PartialSignature:
    """A page-sized fragment of one cell's signature.

    Attributes:
        ref_sid: SID of the subtree root this partial was packed from (the
            retrieval key, together with the cell id).
        blobs: node SID → compressed bit array.
        size_bytes: Logical on-disk size.
    """

    ref_sid: int
    blobs: dict[int, bytes]
    size_bytes: int = field(default=0)

    def __post_init__(self) -> None:
        if self.size_bytes == 0:
            self.size_bytes = _PART_HEADER_BYTES + sum(
                _NODE_OVERHEAD_BYTES + len(blob) for blob in self.blobs.values()
            )

    def decode(self) -> dict[int, BitArray]:
        """Decompress every node in this partial."""
        return {sid: decompress(blob) for sid, blob in self.blobs.items()}

    def checksum_bytes(self) -> bytes:
        """Content fingerprint for page checksums (storage integrity).

        Covers the reference SID, the logical size, every node SID and
        every compressed node blob (in SID order), so any bit of damage to a
        stored partial is detectable.
        """
        sids = sorted(self.blobs)
        head = f"partial\x1f{self.ref_sid}\x1f{self.size_bytes}\x1f{sids}"
        return b"\x1f".join([head.encode(), *map(self.blobs.__getitem__, sids)])

    def __contains__(self, sid: int) -> bool:
        return sid in self.blobs


def compress_nodes(
    signature: Signature, sids: Iterable[int], codec: str = "adaptive"
) -> dict[int, bytes]:
    """The compressed bit array of every represented node among ``sids``."""
    blobs: dict[int, bytes] = {}
    for sid in sids:
        bits = signature.node(sid)
        if bits is not None:
            blobs[sid] = compress(bits, codec)
    return blobs


def edit_blobs(
    blobs: dict[int, bytes],
    removed: Sequence[Sequence[int]],
    added: Sequence[Sequence[int]],
    fanout: int,
    codec: str = "adaptive",
) -> None:
    """Maintenance's edit of one cell's compressed nodes, in place: decode
    the nodes on the ``removed`` and ``added`` tuple paths,
    :func:`~repro.core.signature.move_paths` them, and compress only those
    again — a node whose array emptied leaves."""
    sids = {sid for path in chain(removed, added) for sid in path_sids(path, fanout)}
    masks = {sid: decompress(blobs[sid]).mask if sid in blobs else 0 for sid in sids}
    move_paths(masks, removed, added, fanout)
    for sid, mask in masks.items():
        if mask:
            blobs[sid] = compress(BitArray.trusted(fanout, mask), codec)
        else:
            blobs.pop(sid, None)


def _subtree_sids(order: Sequence[int], seed: int, fanout: int) -> Iterator[int]:
    """Breadth-first SIDs of the subtree at ``seed`` among the ascending
    SIDs ``order``: one contiguous slice per depth."""
    base = fanout + 1
    low = high = seed
    while low <= order[-1]:
        yield from order[bisect_left(order, low) : bisect_right(order, high)]
        low, high = low * base + 1, high * base + fanout


def decompose(
    signature: Signature, page_size: int, codec: str = "adaptive"
) -> list[PartialSignature]:
    """Split a signature into page-sized partials (the paper's algorithm):
    compress every node, then :func:`pack` the blobs."""
    blobs = compress_nodes(signature, signature.node_sids(), codec)
    return pack(blobs, page_size, signature.fanout)


def pack(
    compressed: Mapping[int, bytes], page_size: int, fanout: int
) -> list[PartialSignature]:
    """Pack one cell's compressed nodes (SID -> blob) into partials.

    Returns partials in creation order; the first is always referenced by
    the root SID 0 (the one loaded unconditionally at query start).  The
    build and the maintenance rewrite both end here, so a cell's pages
    depend only on its blobs, never on how they were come by.  A cell
    whose blobs fit one page is that page in one pass, with no walk per
    seed or per node.
    """
    if not compressed:
        return [PartialSignature(ref_sid=0, blobs={})]
    order = sorted(compressed)
    total = (
        _PART_HEADER_BYTES
        + _NODE_OVERHEAD_BYTES * len(order)
        + sum(map(len, compressed.values()))
    )
    if total <= page_size and order[0] == 0:
        # The root's subtree is every node and the page holds them all: the
        # walk below would make exactly this one partial, in SID order.
        return [
            PartialSignature(
                ref_sid=0,
                blobs={sid: compressed[sid] for sid in order},
                size_bytes=total,
            )
        ]
    coded: set[int] = set()
    partials: list[PartialSignature] = []

    def pack_from(seed: int) -> None:
        blobs: dict[int, bytes] = {}
        size = _PART_HEADER_BYTES
        for sid in _subtree_sids(order, seed, fanout):
            if sid in coded:
                continue
            cost = _NODE_OVERHEAD_BYTES + len(compressed[sid])
            if blobs and size + cost > page_size:
                break
            blobs[sid] = compressed[sid]
            coded.add(sid)
            size += cost
        if blobs:
            partials.append(PartialSignature(ref_sid=seed, blobs=blobs, size_bytes=size))

    # Seeds in breadth-first order over the whole tree guarantee that every
    # node ends up in a partial referenced by one of its ancestors (or by
    # itself, in the degenerate case): when the seed reaches the node
    # itself, the first step packs it unconditionally.
    for seed in order:
        pack_from(seed)
        if len(coded) == len(compressed):
            # Every node is in a partial; a later seed could only re-walk
            # its fully coded subtree and pack nothing.
            break
    return partials


def retrieval_refs(sid: int, fanout: int) -> list[int]:
    """The candidate partial references for the node ``sid``.

    Root first, then each deeper ancestor, then the node itself — the order
    in which the paper probes for the partial encoding a requested node.
    An ancestor's SID is the node's with its low base-``M + 1`` digits
    dropped.
    """
    refs = [sid]
    while sid:
        sid //= fanout + 1
        refs.append(sid)
    refs.reverse()
    return refs
