"""Word-level interop: BitArray ↔ packed uint64 words ↔ sigops.

The signature algebra kernels work on 64-bit words; these tests pin the
contract that ``from_words`` inverts the little-endian word split of a
mask, that ``to_bytes`` is that split byte for byte, and that the
word-parallel sigops reproduce the scalar BitArray operators exactly.
"""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.bitmap.bitarray import (
    BitArray,
    WORD_BITS,
    word_count,
)
from repro.kernels.sigops import (
    and_masks,
    bitarray_words,
    or_masks,
    popcount_bitarrays,
    popcount_masks,
    words_to_bitarray,
)

pytestmark = pytest.mark.kernels

bit_arrays = st.integers(min_value=1, max_value=300).flatmap(
    lambda nbits: st.builds(
        BitArray,
        st.just(nbits),
        st.integers(min_value=0, max_value=(1 << nbits) - 1),
    )
)


def words_of(bits):
    """The mask split into little-endian 64-bit words, lowest first."""
    return tuple(
        (bits.mask >> (WORD_BITS * i)) & ((1 << WORD_BITS) - 1)
        for i in range(word_count(bits.nbits))
    )


@given(bit_arrays)
def test_from_words_inverts_the_word_split(bits):
    back = BitArray.from_words(bits.nbits, words_of(bits))
    assert back == bits
    assert back.mask == bits.mask


@given(bit_arrays)
def test_words_match_bytes(bits):
    """The little-endian word tuple, laid out byte by byte, is ``to_bytes``
    zero-padded to full words (``to_bytes`` is minimal-width)."""
    padded = bits.to_bytes().ljust(
        word_count(bits.nbits) * (WORD_BITS // 8), b"\x00"
    )
    laid_out = b"".join(word.to_bytes(WORD_BITS // 8, "little") for word in words_of(bits))
    assert laid_out == padded


@given(bit_arrays)
def test_sigops_bitarray_words_roundtrip(bits):
    assert words_to_bitarray(bitarray_words(bits), bits.nbits) == bits


@given(st.data())
def test_sigops_match_scalar_operators(data):
    nbits = data.draw(st.integers(min_value=1, max_value=200))
    masks = data.draw(
        st.lists(
            st.integers(min_value=0, max_value=(1 << nbits) - 1),
            min_size=1,
            max_size=6,
        )
    )
    arrays = [BitArray(nbits, mask) for mask in masks]
    expected_or = arrays[0]
    expected_and = arrays[0]
    for bits in arrays[1:]:
        expected_or = expected_or | bits
        expected_and = expected_and & bits
    assert or_masks(masks, nbits) == expected_or.mask
    assert and_masks(masks, nbits) == expected_and.mask
    assert popcount_masks(masks, nbits) == sum(
        bits.count() for bits in arrays
    )
    assert popcount_bitarrays(arrays) == sum(
        bits.count() for bits in arrays
    )
