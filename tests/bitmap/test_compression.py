"""Codec roundtrips, framing, adaptive choice and malformed input.

A node is its mask: ``compress(nbits, mask, codec)`` encodes it and
``decompress(blob)`` gives back ``(nbits, mask)``."""

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
from tests.reference import codec_name


def bits_at(nbits, positions):
    """The node ``(nbits, mask)`` with exactly ``positions`` set."""
    return nbits, sum(1 << pos for pos in set(positions))


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


@pytest.mark.parametrize("codec", sorted(CODECS))
@pytest.mark.parametrize(
    "bits", SAMPLES, ids=lambda b: f"{b[0]}b{b[1].bit_count()}s"
)
def test_roundtrip_every_codec(codec, bits):
    blob = compress(*bits, codec)
    assert decompress(blob) == bits
    assert codec_name(blob) == codec


@pytest.mark.parametrize("codec", sorted(CODECS) + ["adaptive"])
@pytest.mark.parametrize("nbits", [1, 2, 7, 8, 9, 63, 64, 65, 127, 128, 129, 204, 256])
def test_roundtrip_of_zero_and_all_ones_at_every_width(codec, nbits):
    for mask in (0, (1 << nbits) - 1, 1, 1 << nbits - 1):
        assert decompress(compress(nbits, mask, codec)) == (nbits, mask)


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
    assert decompress(blob) == sparse_bits


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


def test_empty_blob_rejected():
    with pytest.raises(CodecError):
        decompress(b"")


def test_unknown_codec_id_rejected():
    with pytest.raises(CodecError):
        decompress(bytes([200, 4]))


def test_raw_wrong_length_rejected():
    blob = bytearray(compress(16, 0, "raw"))
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
    one varint byte."""
    samples = [
        (nbits, 0),
        bits_at(nbits, range(nbits)),
        bits_at(nbits, [nbits - 1]),
        bits_at(nbits, [0, nbits - 1]),
        bits_at(nbits, range(0, nbits, 3)),
    ]
    for bits in samples:
        assert decompress(compress(*bits, "sparse")) == bits


bit_arrays = st.integers(min_value=1, max_value=256).flatmap(
    lambda n: st.builds(
        bits_at,
        st.just(n),
        st.sets(st.integers(min_value=0, max_value=n - 1)),
    )
)


@given(bit_arrays, st.sampled_from(sorted(CODECS) + ["adaptive"]))
def test_roundtrip_property(bits, codec):
    assert decompress(compress(*bits, codec)) == bits


@given(bit_arrays)
def test_adaptive_is_minimal_property(bits):
    adaptive_len = len(compress(*bits, "adaptive"))
    assert adaptive_len == min(len(compress(*bits, c)) for c in CODECS)


# --------------------------------------------------------------------------- #
# adaptive encodes only the winner: same bytes as encoding all four
# --------------------------------------------------------------------------- #


def encode_all_and_keep_smallest(bits):
    """The adaptive codec as first written: every codec encodes, the first
    strictly smallest blob in ``CODECS`` order wins."""
    best = None
    for name in CODECS:
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
            assert blob == encode_all_and_keep_smallest(decompress(blob))
            nodes += 1
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
    assert compress.cache_info().maxsize == 1 << 15
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
# the decode memo: decompress is a pure function of the blob
# --------------------------------------------------------------------------- #


def test_decompress_decodes_a_blob_once():
    decompress.cache_clear()
    blob = compress(8, 0b1010)
    first = decompress(blob)
    again = decompress(blob)
    assert again == first == (8, 0b1010)
    info = decompress.cache_info()
    assert (info.misses, info.hits) == (1, 1)


def test_the_decode_memo_has_the_encode_memo_bound():
    assert (
        decompress.cache_info().maxsize
        == compress.cache_info().maxsize
        == 1 << 15
    )


@pytest.mark.parametrize(
    "blob", [b"", bytes([200, 4]), b"\x00\x04\xff", bytes([2, 4, 0, 0])]
)
def test_a_malformed_blob_raises_on_every_call(blob):
    decompress.cache_clear()
    for _ in range(2):
        with pytest.raises(CodecError):
            decompress(blob)
    info = decompress.cache_info()
    assert (info.misses, info.currsize) == (2, 0)


@given(bit_arrays, st.sampled_from(sorted(CODECS) + ["adaptive"]))
def test_memoised_and_unmemoised_decode_agree(bits, codec):
    blob = compress(*bits, codec)
    unmemoised = decompress.__wrapped__(blob)
    assert unmemoised == bits
    assert decompress(blob) == unmemoised


def test_a_blob_is_keyed_by_its_bytes():
    """The memo's key is the blob: a read-only ``memoryview`` hashes and
    compares as its bytes, a mutable or non-bytes key is refused."""
    bits = bits_at(64, [0, 31, 63])
    blob = compress(*bits)
    assert decompress(memoryview(blob)) == decompress(blob) == bits
    for key in (bytearray(blob), 5):
        with pytest.raises(TypeError):
            decompress(key)
