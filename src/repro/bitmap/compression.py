"""Bitmap compression codecs.

The paper compresses the bit array of *each signature node individually*
and cites classic bitmap compression literature [17], [18].  A node is its
mask, an ``int`` of a stated width (``nbits``).  We provide three lossless
codecs plus an adaptive wrapper that picks the smallest encoding per node
(the paper's reason (2): heterogeneous nodes want different schemes):

``raw``
    The packed bits, verbatim.  Never worse than ``8/7`` of optimal for
    dense arrays.
``sparse``
    Delta-varint coded positions of set bits — the spirit of the
    Fraenkel–Klein sparse bit-string codes [18]; excellent when few bits are
    set, the common case for selective cells.
``rle``
    Byte-aligned run-length coding of 0/1 runs (BBC-flavoured).

Every encoding is framed as ``codec_id || varint(nbits) || body`` so a
compressed blob is self-describing and :func:`decompress` needs no side
information.
"""

from __future__ import annotations

from functools import lru_cache

from repro.bitmap.bitarray import mask_positions, run_ends, run_lengths


class CodecError(ValueError):
    """Raised on malformed compressed input."""


# --------------------------------------------------------------------------- #
# varint helpers (LEB128, unsigned)
# --------------------------------------------------------------------------- #


def write_varint(value: int, out: bytearray) -> None:
    """Append an unsigned LEB128 varint to ``out``."""
    if value < 0:
        raise ValueError("varint values must be non-negative")
    while True:
        byte = value & 0x7F
        value >>= 7
        if value:
            out.append(byte | 0x80)
        else:
            out.append(byte)
            return


def varint_len(value: int) -> int:
    """How many bytes :func:`write_varint` spends on ``value``."""
    return max(1, (value.bit_length() + 6) // 7)


def read_varint(data: bytes, offset: int) -> tuple[int, int]:
    """Read an unsigned LEB128 varint; return ``(value, new_offset)``."""
    result = 0
    shift = 0
    while True:
        if offset >= len(data):
            raise CodecError("truncated varint")
        byte = data[offset]
        offset += 1
        result |= (byte & 0x7F) << shift
        if not byte & 0x80:
            return result, offset
        shift += 7
        if shift > 63:
            raise CodecError("varint too long")


# --------------------------------------------------------------------------- #
# codec implementations: encode/decode bodies (nbits handled by the frame),
# plus each body's length worked out from the mask without encoding it
# --------------------------------------------------------------------------- #

#: Below this width every sparse gap and every run length is one varint byte.
_ONE_BYTE_WIDTH = 128


def _raw_encode(nbits: int, mask: int) -> bytes:
    return mask.to_bytes((nbits + 7) // 8, "little")


def _raw_len(nbits: int, mask: int) -> int:
    return (nbits + 7) // 8


def _raw_decode(nbits: int, body: bytes) -> int:
    expected = (nbits + 7) // 8
    if len(body) != expected:
        raise CodecError(f"raw body is {len(body)} bytes, expected {expected}")
    mask = int.from_bytes(body, "little")
    if mask >> nbits:
        raise CodecError("raw body has bits beyond declared width")
    return mask


def _sparse_encode(nbits: int, mask: int) -> bytes:
    out = bytearray()
    write_varint(mask.bit_count(), out)
    previous = -1
    for pos in mask_positions(mask):
        write_varint(pos - previous, out)  # gaps are >= 1, varint friendly
        previous = pos
    return bytes(out)


def _sparse_len(nbits: int, mask: int) -> int:
    count = mask.bit_count()
    if nbits < _ONE_BYTE_WIDTH:
        return varint_len(count) + count
    length = varint_len(count)
    previous = -1
    for pos in mask_positions(mask):
        length += varint_len(pos - previous)
        previous = pos
    return length


def _sparse_decode(nbits: int, body: bytes) -> int:
    count, offset = read_varint(body, 0)
    mask = 0
    position = -1
    for _ in range(count):
        gap, offset = read_varint(body, offset)
        if gap == 0:
            raise CodecError("sparse gap of zero (duplicate position)")
        position += gap
        if position >= nbits:
            raise CodecError("sparse position beyond declared width")
        mask |= 1 << position
    if offset != len(body):
        raise CodecError("trailing bytes after sparse body")
    return mask


def _rle_encode(nbits: int, mask: int) -> bytes:
    # First byte carries the value of the first run (0 or 1); then run
    # lengths alternate.  An empty array encodes to the single first-bit
    # marker with no runs.
    out = bytearray([mask & 1 if nbits else 0])
    for length in run_lengths(nbits, mask):
        write_varint(length, out)
    return bytes(out)


def _rle_len(nbits: int, mask: int) -> int:
    if nbits < _ONE_BYTE_WIDTH:
        return 1 + (run_ends(nbits, mask).bit_count() + 1 if nbits else 0)
    return 1 + sum(map(varint_len, run_lengths(nbits, mask)))


def _rle_decode(nbits: int, body: bytes) -> int:
    if not body:
        raise CodecError("empty rle body")
    value = body[0] == 1
    if body[0] not in (0, 1):
        raise CodecError("rle first-value marker must be 0 or 1")
    mask = 0
    offset = 1
    position = 0
    while offset < len(body):
        length, offset = read_varint(body, offset)
        if length == 0:
            raise CodecError("rle run of length zero")
        if position + length > nbits:
            raise CodecError("rle runs exceed declared width")
        if value:
            mask |= ((1 << length) - 1) << position
        position += length
        value = not value
    if position != nbits:
        raise CodecError(f"rle runs cover {position} of {nbits} bits")
    return mask


# --------------------------------------------------------------------------- #
# framing and the adaptive wrapper
# --------------------------------------------------------------------------- #

#: codec name -> (codec id byte, encode, decode)
CODECS = {
    "raw": (0, _raw_encode, _raw_decode),
    "sparse": (1, _sparse_encode, _sparse_decode),
    "rle": (2, _rle_encode, _rle_decode),
}

_BY_ID = {cid: (name, enc, dec) for name, (cid, enc, dec) in CODECS.items()}

#: codec name -> length of the body ``encode`` would produce.
_BODY_LEN = {
    "raw": _raw_len,
    "sparse": _sparse_len,
    "rle": _rle_len,
}


#: Entries each memo below keeps (sized in EXPERIMENTS.md, Assumptions
#: rows 25 and 31: a build's distinct node values, a read stream's blobs).
_MEMO_ENTRIES = 1 << 15


@lru_cache(maxsize=_MEMO_ENTRIES)
def compress(nbits: int, mask: int, codec: str = "adaptive") -> bytes:
    """Compress an ``nbits``-wide node mask into a self-describing blob.

    ``codec="adaptive"`` keeps the smallest of the three encodings — the
    per-node adaptive choice the paper argues for — and, on a tie, the
    first in :data:`CODECS` order.  Only the winner is encoded: every frame
    spends the same bytes on the codec id and the width, so the smallest
    body, computed from the mask, is the smallest blob.

    The blob is a pure function of the three arguments and memoised on
    them — pass them positionally, so one value is one key: nine in ten
    node masks of a build repeat an earlier one (EXPERIMENTS.md,
    Assumptions row 25).
    """
    if mask < 0 or mask >> nbits:
        raise ValueError(f"mask does not fit a width of {nbits}")
    if codec == "adaptive":
        codec = min(CODECS, key=lambda name: _BODY_LEN[name](nbits, mask))
    try:
        codec_id, encode, _ = CODECS[codec]
    except KeyError:
        raise CodecError(f"unknown codec {codec!r}") from None
    frame = bytearray([codec_id])
    write_varint(nbits, frame)
    frame += encode(nbits, mask)
    return bytes(frame)


@lru_cache(maxsize=_MEMO_ENTRIES)
def decompress(blob: bytes) -> tuple[int, int]:
    """Invert :func:`compress` for any codec: ``blob -> (nbits, mask)``,
    every field validated.

    The decode is a pure function of the blob and memoised on it, the
    mirror of :func:`compress`: queries test the same node values over and
    over, across cells, SIDs and queries (EXPERIMENTS.md, Assumptions row
    31).  A malformed blob raises its :class:`CodecError` on every call;
    the blob is the memo's key, so it must be hashable (``bytes``).
    """
    if not blob:
        raise CodecError("empty blob")
    try:
        _, _, decode = _BY_ID[blob[0]]
    except KeyError:
        raise CodecError(f"unknown codec id {blob[0]}") from None
    nbits, offset = read_varint(blob, 1)
    return nbits, decode(nbits, blob[offset:])
