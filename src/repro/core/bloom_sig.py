"""Lossy Bloom-filter signatures (paper Section VII).

    "Besides the lossless compression discussed in this paper, lossy
    compression such as Bloom Filter is also applicable.  We can build a
    bloom filter on all SID's whose corresponding entries are 1 in the
    signature.  During query execution, we can load the compressed
    signature (i.e., a bloom filter), and test a SID upon that."

A set bit at position ``p`` of node ``n`` corresponds to the SID of the
child slot ``p`` under ``n`` — so the filter is built over *child SIDs* of
every set bit, uniformly for internal nodes and leaf slots.  Membership
tests can only err towards *false positives*, so boolean pruning stays
conservative: queries remain exact but may read a few extra R-tree blocks.
The ablation benchmark quantifies size saved vs. blocks wasted.
"""

from __future__ import annotations

from typing import Sequence

from repro.bitmap.bitarray import mask_positions
from repro.bitmap.bloom import BloomFilter
from repro.core.signature import Signature
from repro.core.sid import child_sid, sid_of_path


class BloomSignature:
    """A Bloom filter over the set-bit SIDs of one cell's signature.

    Exposes the ``check_block`` / ``check_path`` interface of the exact
    readers, so Algorithm 1 can use it as a drop-in boolean pruner (its
    blocks always resolve, so the search never asks ``check_entry``, and
    the whole filter is in memory: ``held_block`` is ``check_block``, and
    final).
    """

    def __init__(self, bloom: BloomFilter, fanout: int, empty: bool) -> None:
        self.bloom = bloom
        self.fanout = fanout
        self._empty = empty

    @classmethod
    def from_signature(
        cls, signature: Signature, fp_rate: float = 0.01
    ) -> "BloomSignature":
        """Build the filter from every set bit of ``signature``."""
        sids = [
            child_sid(node_sid, position + 1, signature.fanout)
            for node_sid, mask in signature.masks().items()
            for position in mask_positions(mask)
        ]
        bloom = BloomFilter.for_items(sids, fp_rate=fp_rate)
        return cls(bloom, signature.fanout, empty=not sids)

    # ------------------------------------------------------------------ #
    # the boolean-reader interface
    # ------------------------------------------------------------------ #

    def check_block(self, parent_path: Sequence[int], wanted: int) -> int:
        """The entries whose bit is set in ``wanted`` (bit ``p − 1`` =
        position ``p``) that the filter might hold, as a mask."""
        if self._empty:
            return 0
        parent_sid = sid_of_path(parent_path, self.fanout)
        passed = 0
        rest = wanted
        while rest:
            bit = rest & -rest
            rest ^= bit
            if self.bloom.might_contain(
                child_sid(parent_sid, bit.bit_length(), self.fanout)
            ):
                passed |= bit
        return passed

    held_block = check_block
    held_is_final = True

    def check_path(self, path: Sequence[int]) -> bool:
        if not path:
            return not self._empty
        return bool(self.check_block(path[:-1], 1 << (path[-1] - 1)))

    # ------------------------------------------------------------------ #
    # accounting
    # ------------------------------------------------------------------ #

    def size_bytes(self) -> int:
        return self.bloom.size_bytes()

    def __repr__(self) -> str:
        return f"BloomSignature({self.bloom!r})"


class BloomConjunction:
    """Lazy AND over several Bloom signatures (multi-predicate queries)."""

    def __init__(self, signatures: Sequence[BloomSignature]) -> None:
        if not signatures:
            raise ValueError("BloomConjunction needs at least one signature")
        self.signatures = list(signatures)

    def check_block(self, parent_path: Sequence[int], wanted: int) -> int:
        for signature in self.signatures:
            if not wanted:
                break
            wanted = signature.check_block(parent_path, wanted)
        return wanted

    held_block = check_block
    held_is_final = True

    def check_path(self, path: Sequence[int]) -> bool:
        return all(
            signature.check_path(path) for signature in self.signatures
        )
