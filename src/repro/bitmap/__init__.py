"""Bit arrays and bitmap compression.

Each node of a signature tree is a bit array over the children of the
corresponding R-tree node (paper Section IV-B.1).  Signatures are compressed
*per node* with an adaptively chosen codec — the paper's stated reasons:
large per-node compression headroom (fanout up to ~204 at 4 KB pages),
heterogeneous node characteristics, and cheap selective decompression
(:class:`repro.core.readers.CellSignatureReader` decompresses a node only
when a query tests one of its bits).

Section VII additionally sketches a lossy alternative: a Bloom filter over
the SIDs whose bits are 1; :mod:`repro.bitmap.bloom` implements it.
"""

from repro.bitmap.bitarray import BitArray
from repro.bitmap.bloom import BloomFilter
from repro.bitmap.compression import (
    CODECS,
    CodecError,
    compress,
    decompress,
)

__all__ = [
    "BitArray",
    "BloomFilter",
    "CODECS",
    "CodecError",
    "compress",
    "decompress",
]
