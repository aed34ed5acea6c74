"""Codec roundtrips, framing, adaptive choice and malformed input."""

import sys
import threading
from functools import lru_cache

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.bitmap import compression
from repro.bitmap.bitarray import BitArray
from repro.bitmap.compression import (
    CODECS,
    CodecError,
    compress,
    decompress,
    read_varint,
    write_varint,
)
from tests.bitmap.test_bitarray import bits_at
from tests.reference import codec_name


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
    BitArray(1),
    bits_at(1, range(1)),
    BitArray(8),
    bits_at(8, range(8)),
    bits_at(8, [0, 7]),
    bits_at(64, [0, 31, 32, 63]),
    bits_at(100, [0]),
    bits_at(100, range(50)),
    bits_at(257, range(257)),
    bits_at(1000, [999]),
]


@pytest.mark.parametrize("codec", sorted(CODECS))
@pytest.mark.parametrize("bits", SAMPLES, ids=lambda b: f"{b.nbits}b{b.count()}s")
def test_roundtrip_every_codec(codec, bits):
    blob = compress(bits, codec)
    assert decompress(blob) == bits
    assert codec_name(blob) == codec


def test_adaptive_picks_smallest():
    sparse_bits = bits_at(2048, [1])
    blob = compress(sparse_bits, "adaptive")
    for codec in CODECS:
        assert len(blob) <= len(compress(sparse_bits, codec))
    assert decompress(blob) == sparse_bits


def test_adaptive_sparse_wins_on_sparse_input():
    bits = bits_at(2048, [0, 512, 1024])
    assert codec_name(compress(bits, "adaptive")) == "sparse"


def test_adaptive_beats_raw_substantially_on_sparse():
    bits = bits_at(4096, [7])
    raw = compress(bits, "raw")
    adaptive = compress(bits, "adaptive")
    assert len(adaptive) < len(raw) / 20


def test_unknown_codec_rejected():
    with pytest.raises(CodecError):
        compress(BitArray(4), "gzip")


def test_empty_blob_rejected():
    with pytest.raises(CodecError):
        decompress(b"")


def test_unknown_codec_id_rejected():
    with pytest.raises(CodecError):
        decompress(bytes([200, 4]))


def test_raw_wrong_length_rejected():
    blob = bytearray(compress(BitArray(16), "raw"))
    with pytest.raises(CodecError):
        decompress(bytes(blob[:-1]))


def test_rle_zero_run_rejected():
    # frame: codec=2, nbits=4, first value 0, then a zero-length run
    with pytest.raises(CodecError):
        decompress(bytes([2, 4, 0, 0]))


def test_sparse_position_overflow_rejected():
    # frame: codec=1, nbits=2, count=1, gap=5 -> position 4 > width
    with pytest.raises(CodecError):
        decompress(bytes([1, 2, 1, 5]))


def test_raw_stray_bits_raise_a_codec_error():
    # frame: codec=0, nbits=4, one body byte with bits 4..7 set
    with pytest.raises(CodecError, match="beyond declared width"):
        decompress(b"\x00\x04\xff")


@pytest.mark.parametrize(
    "body",
    [
        (0x80000000 | (1 << 30) - 1).to_bytes(4, "little"),
        (0b1).to_bytes(4, "little") * 2,
        (0x80000001).to_bytes(4, "little"),
    ],
    ids=["fill", "literals", "short"],
)
def test_the_retired_wah_tag_is_an_unknown_codec(body):
    """Tag 3 was the word-aligned hybrid codec, which the adaptive choice
    never picked; a blob that carries it is refused like any unknown id."""
    with pytest.raises(CodecError, match="unknown codec id 3"):
        decompress(bytes([3, 4]) + body)


@pytest.mark.parametrize(
    "blob, message",
    [
        (bytes([1, 8, 2, 3, 0]), "gap of zero"),  # second gap is 0
        (bytes([1, 8, 1, 9]), "beyond declared width"),  # position 8 of 8
        (bytes([1, 8, 2, 3]), "truncated varint"),  # count 2, one gap
        (bytes([1, 8, 1, 0x83]), "truncated varint"),  # gap's last byte gone
        (bytes([1, 8, 1, 3, 7]), "trailing bytes"),
    ],
)
def test_sparse_malformed_bodies_rejected(blob, message):
    with pytest.raises(CodecError, match=message):
        decompress(blob)


@pytest.mark.parametrize("nbits", [1, 127, 128, 204])
def test_sparse_roundtrip_around_the_one_byte_gap_width(nbits):
    """Widths on both sides of the 128-bit line where a gap stops fitting
    one varint byte; the decoder builds the mask without ``BitArray.set``."""
    samples = [
        BitArray(nbits),
        bits_at(nbits, range(nbits)),
        bits_at(nbits, [nbits - 1]),
        bits_at(nbits, [0, nbits - 1]),
        bits_at(nbits, range(0, nbits, 3)),
    ]
    for bits in samples:
        decoded = decompress(compress(bits, "sparse"))
        assert decoded == bits
        assert (decoded.nbits, decoded.mask) == (bits.nbits, bits.mask)


bit_arrays = st.integers(min_value=1, max_value=300).flatmap(
    lambda n: st.builds(
        bits_at,
        st.just(n),
        st.sets(st.integers(min_value=0, max_value=n - 1)),
    )
)


@given(bit_arrays, st.sampled_from(sorted(CODECS) + ["adaptive"]))
def test_roundtrip_property(bits, codec):
    assert decompress(compress(bits, codec)) == bits


@given(bit_arrays)
def test_adaptive_is_minimal_property(bits):
    adaptive_len = len(compress(bits, "adaptive"))
    assert adaptive_len == min(len(compress(bits, c)) for c in CODECS)


# --------------------------------------------------------------------------- #
# adaptive encodes only the winner: same bytes as encoding all four
# --------------------------------------------------------------------------- #


def encode_all_and_keep_smallest(bits):
    """The adaptive codec as first written: every codec encodes, the first
    strictly smallest blob in ``CODECS`` order wins."""
    best = None
    for name in CODECS:
        candidate = compress(bits, name)
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
        bits = BitArray(nbits, mask)
        assert compress(bits, "adaptive") == encode_all_and_keep_smallest(bits)


@pytest.mark.parametrize("bits", SAMPLES)
def test_adaptive_byte_identity_on_wide_samples(bits):
    # Widths past 127 take multi-byte gaps and run lengths.
    assert compress(bits, "adaptive") == encode_all_and_keep_smallest(bits)


def test_adaptive_byte_identity_on_every_node_of_a_built_cube(small_system):
    store = small_system.pcube.store
    nodes = 0
    for page in store.disk.pages("pcube:sig"):
        for blob in page.payload.blobs.values():
            assert blob == encode_all_and_keep_smallest(decompress(blob))
            nodes += 1
    assert nodes > 1000


# --------------------------------------------------------------------------- #
# the blob memo: compress is a pure function of (nbits, mask, codec)
# --------------------------------------------------------------------------- #


def test_compress_encodes_a_value_once():
    compression.compress_mask.cache_clear()
    values = [BitArray(64, 1 << slot) for slot in range(8)]
    first = [compress(bits) for bits in values]
    again = [compress(BitArray(64, bits.mask)) for bits in values]
    assert again == first
    info = compression.compress_mask.cache_info()
    assert (info.misses, info.hits) == (8, 8)
    # The codec is part of the key; a failure is never kept.
    assert compress(values[0], "raw") != first[0]
    assert compression.compress_mask.cache_info().misses == 9
    for _ in range(2):
        with pytest.raises(CodecError):
            compress(values[0], "zip")
    assert compression.compress_mask.cache_info().currsize == 9


def tiny_memo(monkeypatch, entries):
    """The memo at a bound small enough to evict (the shipped bound is a
    constant; this wraps the same encoder)."""
    encoder = compression.compress_mask.__wrapped__
    memo = lru_cache(maxsize=entries)(encoder)
    monkeypatch.setattr(compression, "compress_mask", memo)
    return memo, encoder


def test_the_memo_is_bounded_and_eviction_changes_no_blob(monkeypatch):
    assert compression.compress_mask.cache_info().maxsize == 1 << 15
    memo, encoder = tiny_memo(monkeypatch, 4)
    values = [BitArray(70, (1 << slot) | 1) for slot in range(1, 30)]
    for _ in range(3):
        for bits in values:
            assert compress(bits) == encoder(bits.nbits, bits.mask, "adaptive")
    info = memo.cache_info()
    assert info.currsize == info.maxsize == 4
    assert info.misses == 3 * len(values)  # cyclic scan: every entry evicted


@pytest.mark.concurrent
def test_the_memo_returns_equal_bytes_under_two_threads(monkeypatch):
    memo, encoder = tiny_memo(monkeypatch, 8)  # evicting all the time
    values = [BitArray(64, (1 << slot) | (1 << (slot * 7) % 64)) for slot in range(40)]
    expected = {bits.mask: encoder(64, bits.mask, "adaptive") for bits in values}
    wrong: list[int] = []

    def hammer(order):
        for _ in range(150):
            for bits in order:
                if compress(bits) != expected[bits.mask]:
                    wrong.append(bits.mask)

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
# the decode memo: decompress is a pure function of the blob
# --------------------------------------------------------------------------- #


def test_decompress_decodes_a_blob_once_and_returns_a_fresh_array():
    compression._decode.cache_clear()
    blob = compress(BitArray(8, 0b1010))
    first = decompress(blob)
    first.set(0)
    first.set(3, False)
    again = decompress(blob)
    assert again is not first and again == BitArray(8, 0b1010)
    info = compression._decode.cache_info()
    assert (info.misses, info.hits) == (1, 1)


def test_the_decode_memo_has_the_encode_memo_bound():
    assert (
        compression._decode.cache_info().maxsize
        == compression.compress_mask.cache_info().maxsize
        == 1 << 15
    )


@pytest.mark.parametrize(
    "blob", [b"", bytes([200, 4]), b"\x00\x04\xff", bytes([2, 4, 0, 0])]
)
def test_a_malformed_blob_raises_on_every_call(blob):
    compression._decode.cache_clear()
    for _ in range(2):
        with pytest.raises(CodecError):
            decompress(blob)
    info = compression._decode.cache_info()
    assert (info.misses, info.currsize) == (2, 0)


@given(bit_arrays, st.sampled_from(sorted(CODECS) + ["adaptive"]))
def test_memoised_and_unmemoised_decode_agree(bits, codec):
    blob = compress(bits, codec)
    unmemoised = compression._decode.__wrapped__(blob)
    assert unmemoised == (bits.nbits, bits.mask)
    assert compression._decode(blob) == unmemoised
    assert decompress(blob) == bits


def test_any_bytes_like_blob_decodes_as_its_bytes():
    bits = bits_at(64, [0, 31, 63])
    blob = compress(bits)
    assert decompress(bytearray(blob)) == decompress(memoryview(blob)) == bits
    with pytest.raises(TypeError):
        decompress(5)
