"""Bitmap compression codecs.

The paper compresses the bit array of *each signature node individually*
and cites classic bitmap compression literature [17], [18].  A node is its
mask, an ``int`` of a stated width (``nbits``).  We provide four lossless
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
``single``
    One set bit at a position below 64, and nothing else: seven in ten
    nodes of a build (a selective cell's path through a node).

Every blob opens with one header byte: the codec id in its top two bits,
a six-bit field below it.  The field is 0 for ``raw``, the set-bit count
for ``sparse`` (63 escapes to ``63 + varint`` after the header), the first
run's value for ``rle`` and the bit's position for ``single``, which is
therefore the whole blob.  The width is not framed: every reader, store and
audit knows its fanout, so :func:`compress` and :func:`decompress` both
take it from their caller, and :func:`decompress` checks every field
against it.
"""

from __future__ import annotations

from functools import lru_cache
from math import inf

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
# codec implementations: each encodes a mask to its header field and body,
# decodes them back, and works out the body's length without encoding it
# --------------------------------------------------------------------------- #

#: Below this width every sparse gap and every run length is one varint byte.
_ONE_BYTE_WIDTH = 128
#: The header's six-bit field; its largest value escapes a sparse count to
#: a varint after the header.
_FIELD_MASK = 0x3F
_FIELD_ESCAPE = 63
#: The one-byte form's positions are the field's values.
_SINGLE_LIMIT = 1 << 64


def _raw_encode(nbits: int, mask: int) -> tuple[int, bytes]:
    return 0, mask.to_bytes((nbits + 7) // 8, "little")


def _raw_len(nbits: int, mask: int) -> int:
    return (nbits + 7) // 8


def _raw_decode(nbits: int, field: int, body: bytes) -> int:
    if field:
        raise CodecError(f"raw header field is {field}, expected 0")
    expected = (nbits + 7) // 8
    if len(body) != expected:
        raise CodecError(f"raw body is {len(body)} bytes, expected {expected}")
    mask = int.from_bytes(body, "little")
    if mask >> nbits:
        raise CodecError("raw body has bits beyond the width")
    return mask


def _sparse_encode(nbits: int, mask: int) -> tuple[int, bytes]:
    count = mask.bit_count()
    out = bytearray()
    if count >= _FIELD_ESCAPE:
        write_varint(count - _FIELD_ESCAPE, out)
    previous = -1
    for pos in mask_positions(mask):
        write_varint(pos - previous, out)  # gaps are >= 1, varint friendly
        previous = pos
    return min(count, _FIELD_ESCAPE), bytes(out)


def _sparse_len(nbits: int, mask: int) -> int:
    count = mask.bit_count()
    length = varint_len(count - _FIELD_ESCAPE) if count >= _FIELD_ESCAPE else 0
    if nbits < _ONE_BYTE_WIDTH:
        return length + count
    previous = -1
    for pos in mask_positions(mask):
        length += varint_len(pos - previous)
        previous = pos
    return length


def _sparse_decode(nbits: int, field: int, body: bytes) -> int:
    count, offset = field, 0
    if field == _FIELD_ESCAPE:
        extra, offset = read_varint(body, 0)
        count += extra
    mask = 0
    position = -1
    for _ in range(count):
        gap, offset = read_varint(body, offset)
        if gap == 0:
            raise CodecError("sparse gap of zero (duplicate position)")
        position += gap
        if position >= nbits:
            raise CodecError("sparse position beyond the width")
        mask |= 1 << position
    if offset != len(body):
        raise CodecError("trailing bytes after sparse body")
    return mask


def _rle_encode(nbits: int, mask: int) -> tuple[int, bytes]:
    # The header field carries the value of the first run (0 or 1); the
    # run lengths alternate from there.  An empty array has no runs.
    out = bytearray()
    for length in run_lengths(nbits, mask):
        write_varint(length, out)
    return mask & 1, bytes(out)


def _rle_len(nbits: int, mask: int) -> int:
    if nbits < _ONE_BYTE_WIDTH:
        return run_ends(nbits, mask).bit_count() + 1 if nbits else 0
    return sum(map(varint_len, run_lengths(nbits, mask)))


def _rle_decode(nbits: int, field: int, body: bytes) -> int:
    if field > 1:
        raise CodecError("rle first-run value must be 0 or 1")
    value = field == 1
    mask = 0
    offset = 0
    position = 0
    while offset < len(body):
        length, offset = read_varint(body, offset)
        if length == 0:
            raise CodecError("rle run of length zero")
        if position + length > nbits:
            raise CodecError("rle runs exceed the width")
        if value:
            mask |= ((1 << length) - 1) << position
        position += length
        value = not value
    if position != nbits:
        raise CodecError(f"rle runs cover {position} of {nbits} bits")
    return mask


def _covered_by_single(mask: int) -> bool:
    return mask.bit_count() == 1 and mask < _SINGLE_LIMIT


def _single_encode(nbits: int, mask: int) -> tuple[int, bytes]:
    if not _covered_by_single(mask):
        raise CodecError("single encodes one set bit at a position below 64")
    return mask.bit_length() - 1, b""


def _single_len(nbits: int, mask: int) -> float:
    return 0 if _covered_by_single(mask) else inf


def _single_decode(nbits: int, field: int, body: bytes) -> int:
    if body:
        raise CodecError("trailing bytes after a single-bit header")
    if field >= nbits:
        raise CodecError("single position beyond the width")
    return 1 << field


# --------------------------------------------------------------------------- #
# framing and the adaptive wrapper
# --------------------------------------------------------------------------- #

#: codec name -> (codec id, encode, decode); the id is the header's top two
#: bits, and the order breaks the adaptive choice's ties.
CODECS = {
    "raw": (0, _raw_encode, _raw_decode),
    "sparse": (1, _sparse_encode, _sparse_decode),
    "rle": (2, _rle_encode, _rle_decode),
    "single": (3, _single_encode, _single_decode),
}

_BY_ID = {cid: decode for cid, _, decode in CODECS.values()}

#: codec name -> length of the body ``encode`` would produce (``inf`` where
#: the codec cannot encode the mask).
_BODY_LEN = {
    "raw": _raw_len,
    "sparse": _sparse_len,
    "rle": _rle_len,
    "single": _single_len,
}


#: Entries each memo below keeps (sized in EXPERIMENTS.md, Assumptions
#: rows 25, 31 and 48: a build's distinct node values, a read stream's
#: blobs; 36 114 distinct values at 200 000 rows).
_MEMO_ENTRIES = 1 << 16


@lru_cache(maxsize=_MEMO_ENTRIES)
def compress(nbits: int, mask: int, codec: str = "adaptive") -> bytes:
    """Compress an ``nbits``-wide node mask into a blob: one header byte,
    then the codec's body.

    ``codec="adaptive"`` keeps the smallest of the encodings — the per-node
    adaptive choice the paper argues for — and, on a tie, the first in
    :data:`CODECS` order.  Only the winner is encoded: every blob spends one
    header byte, so the smallest body, computed from the mask, is the
    smallest blob.

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
    field, body = encode(nbits, mask)
    return bytes([codec_id << 6 | field]) + body


@lru_cache(maxsize=_MEMO_ENTRIES)
def decompress(nbits: int, blob: bytes) -> int:
    """Invert :func:`compress` for any codec: the ``nbits``-wide mask a
    blob encodes, every field validated against that width.

    The decode is a pure function of the width and the blob and memoised on
    them, the mirror of :func:`compress`: queries test the same node values
    over and over, across cells, SIDs and queries (EXPERIMENTS.md,
    Assumptions row 31).  A malformed blob raises its :class:`CodecError`
    on every call; the blob is part of the memo's key, so it must be
    hashable (``bytes``).
    """
    if not blob:
        raise CodecError("empty blob")
    header = blob[0]
    return _BY_ID[header >> 6](nbits, header & _FIELD_MASK, blob[1:])
