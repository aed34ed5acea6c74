"""Codec roundtrips, framing, adaptive choice and malformed input.

A node is its mask: ``compress(nbits, mask, codec)`` encodes it and
``decompress(nbits, blob)`` gives the mask back; the width is the caller's,
never the blob's."""

import sys
import threading
from functools import lru_cache

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.bitmap import compression
from repro.bitmap.compression import (
    CODECS,
    CodecError,
    compress,
    decompress,
    read_varint,
    write_varint,
)
from repro.core.pcube import PathColumns
from tests.reference import codec_name

#: The codecs that encode every mask; ``single`` encodes one set bit at a
#: position below 64 and nothing else.
ANY_MASK = ("raw", "sparse", "rle")


def bits_at(nbits, positions):
    """The node ``(nbits, mask)`` with exactly ``positions`` set."""
    return nbits, sum(1 << pos for pos in set(positions))


def covers(codec, mask):
    """Whether ``codec`` can encode ``mask`` at all."""
    return codec != "single" or (mask.bit_count() == 1 and mask < 1 << 64)


def roundtrip(bits, codec):
    nbits, mask = bits
    return decompress(nbits, compress(nbits, mask, codec))


# --------------------------------------------------------------------------- #
# varints
# --------------------------------------------------------------------------- #


@pytest.mark.parametrize("value", [0, 1, 127, 128, 300, 2**32, 2**60])
def test_varint_roundtrip(value):
    out = bytearray()
    write_varint(value, out)
    decoded, offset = read_varint(bytes(out), 0)
    assert decoded == value
    assert offset == len(out)


def test_varint_negative_rejected():
    with pytest.raises(ValueError):
        write_varint(-1, bytearray())


def test_varint_truncated_rejected():
    out = bytearray()
    write_varint(300, out)
    with pytest.raises(CodecError):
        read_varint(bytes(out[:-1]), 0)


# --------------------------------------------------------------------------- #
# per-codec roundtrips
# --------------------------------------------------------------------------- #

SAMPLES = [
    (1, 0),
    bits_at(1, range(1)),
    (8, 0),
    bits_at(8, range(8)),
    bits_at(8, [0, 7]),
    bits_at(64, [0, 31, 32, 63]),
    bits_at(100, [0]),
    bits_at(100, range(50)),
    bits_at(257, range(257)),
    bits_at(1000, [999]),
]


@pytest.mark.parametrize("codec", ANY_MASK)
@pytest.mark.parametrize(
    "bits", SAMPLES, ids=lambda b: f"{b[0]}b{b[1].bit_count()}s"
)
def test_roundtrip_every_codec(codec, bits):
    blob = compress(*bits, codec)
    assert decompress(bits[0], blob) == bits[1]
    assert codec_name(blob) == codec


@pytest.mark.parametrize("codec", ANY_MASK + ("adaptive",))
@pytest.mark.parametrize("nbits", [1, 2, 7, 8, 9, 63, 64, 65, 127, 128, 129, 204, 256])
def test_roundtrip_of_zero_and_all_ones_at_every_width(codec, nbits):
    for mask in (0, (1 << nbits) - 1, 1, 1 << nbits - 1):
        assert decompress(nbits, compress(nbits, mask, codec)) == mask


@pytest.mark.parametrize("codec", sorted(CODECS) + ["adaptive"])
@pytest.mark.parametrize("nbits, mask", [(1, 0b10), (8, 1 << 8), (64, 1 << 64), (4, -1)])
def test_a_mask_that_does_not_fit_its_width_is_refused(codec, nbits, mask):
    with pytest.raises(ValueError, match="does not fit a width"):
        compress(nbits, mask, codec)


def test_adaptive_picks_smallest():
    sparse_bits = bits_at(2048, [1])
    blob = compress(*sparse_bits, "adaptive")
    for codec in CODECS:
        assert len(blob) <= len(compress(*sparse_bits, codec))
    assert decompress(2048, blob) == sparse_bits[1]


def test_adaptive_sparse_wins_on_sparse_input():
    bits = bits_at(2048, [0, 512, 1024])
    assert codec_name(compress(*bits, "adaptive")) == "sparse"


def test_adaptive_beats_raw_substantially_on_sparse():
    bits = bits_at(4096, [7])
    raw = compress(*bits, "raw")
    adaptive = compress(*bits, "adaptive")
    assert len(adaptive) < len(raw) / 20


def test_unknown_codec_rejected():
    with pytest.raises(CodecError):
        compress(4, 0, "gzip")


def test_a_single_codec_refuses_what_it_cannot_encode():
    for nbits, mask in [(64, 0), (64, 0b11), (100, 1 << 64), (8, 0b1010)]:
        with pytest.raises(CodecError, match="one set bit"):
            compress(nbits, mask, "single")


def header(codec, field):
    """The header byte of ``codec`` with its six-bit ``field``."""
    return CODECS[codec][0] << 6 | field


@pytest.mark.parametrize(
    "nbits, blob, message",
    [
        (8, b"", "empty blob"),  # a truncated header
        (16, bytes([header("raw", 0), 0]), "expected 2"),  # a truncated body
        (8, bytes([header("raw", 0), 0, 0]), "expected 1"),  # a trailing byte
        (8, bytes([header("raw", 1), 0]), "field is 1"),
        (4, bytes([header("raw", 0), 0xFF]), "beyond the width"),  # bits 4..7
        (8, bytes([header("sparse", 2), 3]), "truncated varint"),  # one gap of 2
        (8, bytes([header("sparse", 1), 0x83]), "truncated varint"),
        (8, bytes([header("sparse", 1), 3, 7]), "trailing bytes"),
        (8, bytes([header("sparse", 2), 3, 0]), "gap of zero"),
        (8, bytes([header("sparse", 1), 9]), "beyond the width"),  # position 8
        (2, bytes([header("sparse", 1), 5]), "beyond the width"),
        (200, bytes([header("sparse", 63)]), "truncated varint"),  # escape
        (4, bytes([header("rle", 0), 0]), "length zero"),
        (4, bytes([header("rle", 0), 3]), "cover 3 of 4"),  # short of it
        (4, bytes([header("rle", 1), 3, 2]), "exceed the width"),
        (4, bytes([header("rle", 2), 4]), "must be 0 or 1"),
        (4, bytes([header("rle", 0), 0x84]), "truncated varint"),
        (8, bytes([header("single", 8)]), "beyond the width"),  # position 8
        (64, bytes([header("single", 63), 0]), "trailing bytes"),
    ],
)
def test_malformed_blobs_raise_a_codec_error(nbits, blob, message):
    with pytest.raises(CodecError, match=message):
        decompress(nbits, blob)


@pytest.mark.parametrize("nbits", [0, 1, 5, 8, 63, 64, 65])
def test_every_header_byte_names_a_codec(nbits):
    """Two bits of codec id name four codecs: no header byte is unknown.
    Alone, each decodes to a mask of the width or raises ``CodecError``
    (a name that is no codec is refused at :func:`compress`, above)."""
    for byte in range(256):
        try:
            mask = decompress(nbits, bytes([byte]))
        except CodecError:
            continue
        assert 0 <= mask < 1 << nbits


@pytest.mark.parametrize("nbits", range(1, 65))
def test_a_one_bit_node_of_width_64_or_less_is_one_byte(nbits):
    for position in range(nbits):
        blob = compress(nbits, 1 << position)
        assert blob == bytes([header("single", position)])
        assert decompress(nbits, blob) == 1 << position


def test_a_one_bit_node_past_position_63_takes_the_sparse_form():
    assert compress(65, 1 << 64) == bytes([header("sparse", 1), 65])
    assert compress(130, 1 << 63) == bytes([header("single", 63)])


@pytest.mark.parametrize("count", [62, 63, 64, 200])
def test_a_sparse_count_past_the_field_escapes_to_a_varint(count):
    nbits = 2 * count
    mask = sum(1 << 2 * i for i in range(count))
    blob = compress(nbits, mask, "sparse")
    if count < 63:
        assert blob[0] == header("sparse", count) and len(blob) == 1 + count
    else:
        assert blob[0] == header("sparse", 63) and blob[1] == count - 63
    assert decompress(nbits, blob) == mask


@pytest.mark.parametrize("nbits", [1, 127, 128, 204])
def test_sparse_roundtrip_around_the_one_byte_gap_width(nbits):
    """Widths on both sides of the 128-bit line where a gap stops fitting
    one varint byte."""
    samples = [
        (nbits, 0),
        bits_at(nbits, range(nbits)),
        bits_at(nbits, [nbits - 1]),
        bits_at(nbits, [0, nbits - 1]),
        bits_at(nbits, range(0, nbits, 3)),
    ]
    for bits in samples:
        assert roundtrip(bits, "sparse") == bits[1]


bit_arrays = st.integers(min_value=1, max_value=256).flatmap(
    lambda n: st.builds(
        bits_at,
        st.just(n),
        st.sets(st.integers(min_value=0, max_value=n - 1)),
    )
)


@given(bit_arrays, st.sampled_from(ANY_MASK + ("adaptive",)))
def test_roundtrip_property(bits, codec):
    assert roundtrip(bits, codec) == bits[1]


@given(bit_arrays)
def test_adaptive_is_minimal_property(bits):
    adaptive_len = len(compress(*bits, "adaptive"))
    assert adaptive_len == min(
        len(compress(*bits, c)) for c in CODECS if covers(c, bits[1])
    )


#: Widths 1–130 with masks shaped to hit each codec: few bits, one bit,
#: long runs, dense.
masks_to_130 = st.integers(min_value=1, max_value=130).flatmap(
    lambda n: st.tuples(
        st.just(n),
        st.one_of(
            st.sets(st.integers(min_value=0, max_value=n - 1), max_size=6),
            st.integers(min_value=0, max_value=n - 1).map(lambda p: {p}),
            st.tuples(
                st.integers(min_value=0, max_value=n - 1),
                st.integers(min_value=0, max_value=n - 1),
            ).map(lambda ab: set(range(min(ab), max(ab) + 1))),
            st.sets(st.integers(min_value=0, max_value=n - 1)),
        ),
    )
)


@given(masks_to_130)
def test_every_codec_and_adaptive_round_trip_at_widths_to_130(data):
    """Each codec that covers the mask decodes it back at the width; the
    adaptive blob is the smallest of them, the first in ``CODECS`` order
    on a tie, and at a one-bit mask below position 64 it is one byte."""
    nbits, mask = bits_at(*data)
    blobs = {
        codec: compress(nbits, mask, codec)
        for codec in CODECS
        if covers(codec, mask)
    }
    for blob in blobs.values():
        assert decompress(nbits, blob) == mask
    smallest = min(map(len, blobs.values()))
    first = next(blob for blob in blobs.values() if len(blob) == smallest)
    assert compress(nbits, mask, "adaptive") == first
    assert roundtrip((nbits, mask), "adaptive") == mask
    if mask.bit_count() == 1 and mask < 1 << 64:
        assert len(first) == 1


# --------------------------------------------------------------------------- #
# adaptive encodes only the winner: same bytes as encoding all four
# --------------------------------------------------------------------------- #


def encode_all_and_keep_smallest(bits):
    """The adaptive codec as first written: every codec that covers the
    mask encodes, the first strictly smallest blob in ``CODECS`` order
    wins."""
    best = None
    for name in CODECS:
        if not covers(name, bits[1]):
            continue
        candidate = compress(*bits, name)
        if best is None or len(candidate) < len(best):
            best = candidate
    return best


def shaped_masks(nbits, draw_positions):
    """Random, all-zero, all-one and single-run masks of one width."""
    masks = [0, (1 << nbits) - 1, sum(1 << pos for pos in draw_positions)]
    if nbits:
        low, high = min(draw_positions, default=0), max(draw_positions, default=0)
        masks.append(((1 << (high - low + 1)) - 1) << low)
    return masks


widths_and_positions = st.integers(min_value=0, max_value=200).flatmap(
    lambda n: st.tuples(
        st.just(n),
        st.sets(st.integers(min_value=0, max_value=max(n - 1, 0)))
        if n
        else st.just(set()),
    )
)


@given(widths_and_positions)
def test_adaptive_is_byte_identical_to_encoding_every_codec(data):
    nbits, positions = data
    for mask in shaped_masks(nbits, positions):
        bits = (nbits, mask)
        assert compress(*bits, "adaptive") == encode_all_and_keep_smallest(bits)


@pytest.mark.parametrize("bits", SAMPLES)
def test_adaptive_byte_identity_on_wide_samples(bits):
    # Widths past 127 take multi-byte gaps and run lengths.
    assert compress(*bits, "adaptive") == encode_all_and_keep_smallest(bits)


def test_adaptive_byte_identity_on_every_node_of_a_built_cube(small_system):
    store = small_system.pcube.store
    nodes = 0
    for page in store.disk.pages("pcube:sig"):
        for blob in page.payload.blobs.values():
            bits = (store.fanout, decompress(store.fanout, blob))
            assert blob == encode_all_and_keep_smallest(bits)
            nodes += 1
    assert nodes > 1000


def test_every_stored_node_decodes_at_the_fanout_to_the_derived_mask(
    small_system,
):
    """No blob carries its width: read at the store's fanout, every stored
    node of a build is the mask ``PathColumns.masks`` derives for its cell."""
    pcube = small_system.pcube
    store = pcube.store
    directory = store.directory_snapshot()
    paths = PathColumns(*pcube.rtree.path_columns(), pcube.fanout)
    nodes = 0
    for cuboid in pcube.cuboids:
        cells, labels = cuboid.label(pcube.relation)
        for cell, masks in zip(cells, paths.masks(labels, len(cells))):
            stored = {
                sid: decompress(store.fanout, blob)
                for page_id in directory.get(cell.cell_id, {}).values()
                for sid, blob in store.disk.peek(page_id).payload.blobs.items()
            }
            assert stored == masks
            nodes += len(stored)
    assert nodes > 1000


# --------------------------------------------------------------------------- #
# the blob memo: compress is a pure function of (nbits, mask, codec)
# --------------------------------------------------------------------------- #


def test_compress_encodes_a_value_once():
    compress.cache_clear()
    values = [(64, 1 << slot) for slot in range(8)]
    first = [compress(*bits, "adaptive") for bits in values]
    again = [compress(64, mask, "adaptive") for _, mask in values]
    assert again == first
    info = compress.cache_info()
    assert (info.misses, info.hits) == (8, 8)
    # The codec is part of the key; a failure is never kept.
    assert compress(*values[0], "raw") != first[0]
    assert compress.cache_info().misses == 9
    for _ in range(2):
        with pytest.raises(CodecError):
            compress(*values[0], "zip")
    for _ in range(2):
        with pytest.raises(ValueError):
            compress(8, 1 << 8, "adaptive")
    assert compress.cache_info().currsize == 9


def tiny_memo(monkeypatch, entries):
    """The memo at a bound small enough to evict (the shipped bound is a
    constant; this wraps the same encoder)."""
    encoder = compress.__wrapped__
    memo = lru_cache(maxsize=entries)(encoder)
    monkeypatch.setattr(compression, "compress", memo)
    return memo, encoder


def test_the_memo_is_bounded_and_eviction_changes_no_blob(monkeypatch):
    assert compress.cache_info().maxsize == 1 << 16
    memo, encoder = tiny_memo(monkeypatch, 4)
    values = [(70, (1 << slot) | 1) for slot in range(1, 30)]
    for _ in range(3):
        for bits in values:
            assert memo(*bits, "adaptive") == encoder(*bits, "adaptive")
    info = memo.cache_info()
    assert info.currsize == info.maxsize == 4
    assert info.misses == 3 * len(values)  # cyclic scan: every entry evicted


@pytest.mark.concurrent
def test_the_memo_returns_equal_bytes_under_two_threads(monkeypatch):
    memo, encoder = tiny_memo(monkeypatch, 8)  # evicting all the time
    values = [(1 << slot) | (1 << (slot * 7) % 64) for slot in range(40)]
    expected = {mask: encoder(64, mask, "adaptive") for mask in values}
    wrong: list[int] = []

    def hammer(order):
        for _ in range(150):
            for mask in order:
                if memo(64, mask, "adaptive") != expected[mask]:
                    wrong.append(mask)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        workers = [
            threading.Thread(target=hammer, args=(values,)),
            threading.Thread(target=hammer, args=(values[::-1],)),
        ]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(timeout=60.0)
            assert not worker.is_alive()
    finally:
        sys.setswitchinterval(interval)
    assert wrong == []
    info = memo.cache_info()
    assert info.hits + info.misses == 2 * 150 * len(values)
    assert info.currsize <= 8


# --------------------------------------------------------------------------- #
# the decode memo: decompress is a pure function of the width and the blob
# --------------------------------------------------------------------------- #


def test_decompress_decodes_a_blob_once():
    decompress.cache_clear()
    blob = compress(8, 0b1010)
    first = decompress(8, blob)
    again = decompress(8, blob)
    assert again == first == 0b1010
    info = decompress.cache_info()
    assert (info.misses, info.hits) == (1, 1)
    # The width is part of the key: one blob read at two widths.
    single = compress(8, 0b100)
    assert decompress(8, single) == decompress(64, single) == 0b100
    assert decompress.cache_info().misses == 3


def test_the_decode_memo_has_the_encode_memo_bound():
    assert (
        decompress.cache_info().maxsize
        == compress.cache_info().maxsize
        == 1 << 16
    )


@pytest.mark.parametrize(
    "blob", [b"", bytes([header("sparse", 1), 9]), b"\x00\xff", bytes([2 << 6, 0])]
)
def test_a_malformed_blob_raises_on_every_call(blob):
    decompress.cache_clear()
    for _ in range(2):
        with pytest.raises(CodecError):
            decompress(4, blob)
    info = decompress.cache_info()
    assert (info.misses, info.currsize) == (2, 0)


@given(bit_arrays, st.sampled_from(ANY_MASK + ("adaptive",)))
def test_memoised_and_unmemoised_decode_agree(bits, codec):
    nbits, mask = bits
    blob = compress(nbits, mask, codec)
    unmemoised = decompress.__wrapped__(nbits, blob)
    assert unmemoised == mask
    assert decompress(nbits, blob) == unmemoised


def test_a_blob_is_keyed_by_its_bytes():
    """The memo's key holds the blob: a read-only ``memoryview`` hashes and
    compares as its bytes, a mutable or non-bytes key is refused."""
    nbits, mask = bits_at(64, [0, 31, 63])
    blob = compress(nbits, mask)
    assert decompress(64, memoryview(blob)) == decompress(64, blob) == mask
    for key in (bytearray(blob), 5):
        with pytest.raises(TypeError):
            decompress(64, key)
