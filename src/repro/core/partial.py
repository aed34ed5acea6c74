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

A partial is an immutable value, and its page checksum is one CRC over a
binary framing of its content (:func:`fingerprint`), computed once per
object: the seal, the read-back of the next rewrite and every pool miss
reuse it.  A change to a cell is a new partial on a new page, never an edit.
The build hands the packer blobs compressed once per distinct node value
(:func:`compress_values`); maintenance edits the blobs of the nodes on the
moved paths (:func:`edit_blobs`).
"""

from __future__ import annotations

import struct
import zlib
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate, chain, repeat
from operator import add
from types import MappingProxyType
from typing import Mapping, Sequence

from repro.bitmap.compression import compress, decompress
from repro.core.signature import Signature, move_paths, path_sids

#: Fixed overhead per partial signature (cell reference, root SID, count).
_PART_HEADER_BYTES = 16
#: Per-node overhead inside a partial.  The on-page layout needs no
#: explicit SIDs: nodes are concatenated in BFS order from the partial's
#: reference, and each node's bit array tells the decoder which children
#: follow — the signature tree is self-describing.  One byte covers the
#: per-node continuation marker; the in-memory ``blobs`` mapping is just
#: the decoded form.
_NODE_OVERHEAD_BYTES = 1


@dataclass(frozen=True)
class PartialSignature:
    """A page-sized fragment of one cell's signature — an immutable value.

    Attributes:
        ref_sid: SID of the subtree root this partial was packed from (the
            retrieval key, together with the cell id).
        blobs: node SID → compressed bit array, in SID order; a read-only
            view of a plain dict, so an edit in place raises (a change is a
            new partial) and the dict — ints and bytes only — is one the
            garbage collector does not track.  Merge it into another dict
            through ``blobs.copy()``: the dict's own copy, in C (an
            ``update`` from the view itself goes key by key).
        size_bytes: Logical on-disk size.
    """

    ref_sid: int
    blobs: Mapping[int, bytes]
    size_bytes: int = 0

    def __post_init__(self) -> None:
        sids = list(self.blobs)
        if sids == sorted(sids):
            blobs = dict(self.blobs)
        else:
            blobs = dict(sorted(self.blobs.items()))
        object.__setattr__(self, "blobs", MappingProxyType(blobs))
        if self.size_bytes == 0:
            object.__setattr__(
                self,
                "size_bytes",
                _PART_HEADER_BYTES
                + _NODE_OVERHEAD_BYTES * len(blobs)
                + sum(map(len, blobs.values())),
            )

    def decode(self, fanout: int) -> dict[int, int]:
        """Decompress every node in this partial (SID -> mask of width
        ``fanout``).  No product path calls it (``load_full_signature``
        decodes each blob into the signature it builds); the frozen e2e
        recorder names it."""
        return {sid: decompress(fanout, blob) for sid, blob in self.blobs.items()}

    @cached_property
    def page_checksum(self) -> int:
        """The checksum its page is sealed and verified with:
        :func:`fingerprint`, computed once — the partial cannot change."""
        return fingerprint(self)

    def __contains__(self, sid: int) -> bool:
        return sid in self.blobs


def fingerprint(partial: PartialSignature) -> int:
    """CRC32 over a partial's framing: reference SID, logical size and node
    count, the SID array, the blob-length array, then every blob — in SID
    order, so any bit of damage, a renamed node or a byte moved between
    two blobs changes it.  Each piece is packed in C; no text is made."""
    blobs = partial.blobs
    fields = (partial.ref_sid, partial.size_bytes, len(blobs), *blobs)
    lengths = tuple(map(len, blobs.values()))
    try:
        head = struct.pack(f"<{len(fields)}Q{len(lengths)}I", *fields, *lengths)
    except struct.error:  # a SID past 64 bits: a tree deeper than any built
        head = repr((fields, lengths)).encode()
    return zlib.crc32(b"".join(blobs.values()), zlib.crc32(head))


def compress_masks(
    masks: Mapping[int, int], fanout: int, codec: str = "adaptive"
) -> dict[int, bytes]:
    """The blob of every non-empty node among ``masks`` (SID -> mask of
    width ``fanout``): one memoised :func:`compress` per node."""
    return {sid: compress(fanout, mask, codec) for sid, mask in masks.items() if mask}


def compress_values(
    masks: Sequence[int], fanout: int, codec: str = "adaptive"
) -> list[bytes]:
    """The blob of each of ``masks`` (non-zero, of width ``fanout``), in
    order: one memoised :func:`compress` each.  The build hands it each
    distinct node value of a cuboid once."""
    return [compress(fanout, mask, codec) for mask in masks]


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
    masks = {sid: decompress(fanout, blobs[sid]) if sid in blobs else 0 for sid in sids}
    move_paths(masks, removed, added, fanout)
    for sid, mask in masks.items():
        if mask:
            blobs[sid] = compress(fanout, mask, codec)
        else:
            blobs.pop(sid, None)


def decompose(
    signature: Signature, page_size: int, codec: str = "adaptive"
) -> list[PartialSignature]:
    """Split a signature into page-sized partials (the paper's algorithm):
    compress every node, then :func:`pack` the blobs."""
    blobs = compress_masks(signature.masks(), signature.fanout, codec)
    return pack(blobs, page_size, signature.fanout)


def pack(
    compressed: Mapping[int, bytes], page_size: int, fanout: int
) -> list[PartialSignature]:
    """Pack one cell's compressed nodes (SID -> blob) into partials.

    Returns partials in creation order; the first is always referenced by
    the root SID 0 (the one loaded unconditionally at query start).  No
    blob, no partial: an empty cell is not stored.  The build and the
    maintenance rewrite both end here, so a cell's pages depend only on
    its blobs, never on how they were come by.  A cell whose blobs fit one
    page is that page in one pass, with no walk per seed or per node.
    """
    order = sorted(compressed)
    if not order:
        return []
    total = (
        _PART_HEADER_BYTES
        + _NODE_OVERHEAD_BYTES * len(order)
        + sum(map(len, compressed.values()))
    )
    if total <= page_size and order[0] == 0:
        # The root's subtree is every node and the page holds them all: the
        # walk below would make exactly this one partial, in SID order.
        return [PartialSignature(ref_sid=0, blobs=compressed, size_bytes=total)]
    blobs_in_order = list(map(compressed.__getitem__, order))
    # ``ends[i]`` is what the nodes before position ``i`` of ``order`` cost
    # on a page, so a run of nodes costs one subtraction.
    costs = map(add, map(len, blobs_in_order), repeat(_NODE_OVERHEAD_BYTES))
    ends = list(accumulate(costs, initial=0))
    # ``coded[i]`` is 1 once position ``i`` is in a partial: a walk finds
    # the next uncoded node and the end of its run with one C-level scan
    # each, so no coded node is stepped over in Python.
    coded = bytearray(len(order))
    base = fanout + 1
    last = order[-1]
    uncoded = len(order)
    partials: list[PartialSignature] = []
    # Seeds in breadth-first order over the whole tree guarantee that every
    # node ends up in a partial referenced by one of its ancestors (or by
    # itself, in the degenerate case): when the seed reaches the node
    # itself, the first step packs it unconditionally.  A seed walks its
    # subtree breadth-first, one contiguous slice of ``order`` per depth,
    # until a node does not fit the page: each run of uncoded nodes in a
    # slice is packed as far as the page allows, in one step.
    for seed in order:
        blobs: dict[int, bytes] = {}
        size = _PART_HEADER_BYTES
        full = False
        low = high = seed
        while low <= last and not full:
            i = bisect_left(order, low)
            end = bisect_right(order, high)
            while (i := coded.find(0, i, end)) >= 0:
                run_end = coded.find(1, i, end)
                if run_end < 0:
                    run_end = end
                # The first node of a walk goes in whatever it costs.
                fits = bisect_right(ends, page_size - size + ends[i], i, run_end + 1) - 1
                j = max(fits, i + (not blobs))
                blobs.update(zip(order[i:j], blobs_in_order[i:j]))
                size += ends[j] - ends[i]
                coded[i:j] = b"\x01" * (j - i)
                if j < run_end:
                    full = True
                    break
                i = run_end
            low, high = low * base + 1, high * base + fanout
        if blobs:
            partials.append(PartialSignature(ref_sid=seed, blobs=blobs, size_bytes=size))
            uncoded -= len(blobs)
            if not uncoded:
                # Every node is in a partial; a later seed could only walk
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
