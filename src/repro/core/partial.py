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

Retrieval (Section IV-B.2): to find the partial that encodes a requested
node ``n``, walk the ancestors of ``n`` from the first level downward and
load the partial referenced by the first ancestor whose partial is not yet
resident; by construction some ancestor (possibly ``n`` itself) references a
partial containing ``n``.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Iterator, Mapping, Sequence

from repro.bitmap.bitarray import BitArray
from repro.bitmap.compression import compress, decompress
from repro.core.signature import Signature
from repro.core.sid import ancestor_sids, child_sid

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

        Covers the reference SID, the logical size and every compressed node
        blob, so any bit of damage to a stored partial is detectable.
        """
        parts = [b"partial", str(self.ref_sid).encode(), str(self.size_bytes).encode()]
        for sid in sorted(self.blobs):
            parts.append(str(sid).encode() + b"=" + self.blobs[sid])
        return b"\x1f".join(parts)

    def __contains__(self, sid: int) -> bool:
        return sid in self.blobs


def _bfs_sids(signature: Signature, start_sid: int) -> Iterator[int]:
    """Breadth-first SIDs of represented nodes in the subtree at ``start_sid``."""
    if signature.node(start_sid) is None:
        return
    queue = deque([start_sid])
    while queue:
        sid = queue.popleft()
        bits = signature.node(sid)
        if bits is None:
            continue
        yield sid
        for position in bits.positions():
            child = child_sid(sid, position + 1, signature.fanout)
            if signature.node(child) is not None:
                queue.append(child)


def decompose(
    signature: Signature,
    page_size: int,
    codec: str = "adaptive",
    reuse: Mapping[int, bytes] | None = None,
) -> list[PartialSignature]:
    """Split a signature into page-sized partials (the paper's algorithm).

    Returns partials in creation order; the first is always referenced by
    the root SID 0 (the one loaded unconditionally at query start).

    ``reuse`` maps node SIDs to blobs the caller vouches for — each must be
    what ``compress(signature.node(sid), codec)`` would return (a
    maintenance rewrite passes the cell's stored blobs minus the nodes on
    its changed paths).  Those nodes are not compressed again; the packing
    below runs over blobs either way, so the partials are the same bytes.
    """
    if reuse is None:
        reuse = {}
    compressed: dict[int, bytes] = {}
    for sid in signature.node_sids():
        blob = reuse.get(sid)
        if blob is None:
            blob = compress(signature.node(sid), codec)  # type: ignore[arg-type]
        compressed[sid] = blob
    if not compressed:
        return [PartialSignature(ref_sid=0, blobs={})]

    coded: set[int] = set()
    partials: list[PartialSignature] = []

    def pack_from(seed: int) -> None:
        blobs: dict[int, bytes] = {}
        size = _PART_HEADER_BYTES
        for sid in _bfs_sids(signature, seed):
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
    # itself, the first BFS step packs it unconditionally.
    for seed in _bfs_sids(signature, 0):
        pack_from(seed)
        if len(coded) == len(compressed):
            # Every node is in a partial; a later seed could only re-walk
            # its fully coded subtree and pack nothing.
            break
    return partials


def reassemble(
    partials: Sequence[PartialSignature], fanout: int
) -> Signature:
    """Rebuild the full signature from all of its partials."""
    signature = Signature(fanout)
    for partial in partials:
        for sid, bits in partial.decode().items():
            signature.set_node(sid, bits)
    return signature


def retrieval_refs(path: Sequence[int], fanout: int) -> list[int]:
    """The candidate partial references for the node at ``path``.

    Root first, then each deeper ancestor, then the node itself — the order
    in which the paper probes for the partial encoding a requested node.
    """
    return ancestor_sids(path, fanout)
