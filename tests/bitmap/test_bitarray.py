"""BitArray semantics, including the hypothesis-checked algebra."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.bitmap.bitarray import BitArray, run_ends, run_lengths


def bits_at(nbits, positions):
    return BitArray(nbits, sum(1 << pos for pos in set(positions)))


def test_new_array_is_zero():
    bits = BitArray(10)
    assert bits.count() == 0
    assert not bits.any()
    assert list(bits.positions()) == []


def test_set_get_clear():
    bits = BitArray(8)
    bits.set(3)
    assert bits.get(3)
    assert not bits.get(2)
    bits.set(3, False)
    assert not bits.get(3)


def test_indexing_dunders():
    bits = BitArray(4)
    bits[2] = True
    assert bits[2]
    bits[2] = False
    assert not bits[2]


def test_out_of_range_raises():
    bits = BitArray(4)
    with pytest.raises(IndexError):
        bits.get(4)
    with pytest.raises(IndexError):
        bits.set(-1)


def test_positions_lists_the_set_bits():
    bits = bits_at(16, [0, 5, 15])
    assert list(bits.positions()) == [0, 5, 15]
    assert bits.count() == 3
    assert list(BitArray(5, 0b11111).positions()) == [0, 1, 2, 3, 4]


def test_width_zero():
    bits = BitArray(0)
    assert bits.count() == 0
    assert list(run_lengths(0, bits.mask)) == []


def test_mask_beyond_width_rejected():
    with pytest.raises(ValueError):
        BitArray(2, mask=0b100)


def test_runs():
    bits = bits_at(8, [0, 1, 4])
    assert list(run_lengths(8, bits.mask)) == [2, 2, 1, 3]


def test_runs_all_zero():
    assert list(run_lengths(5, 0)) == [5]


def test_or_and_xor():
    a = bits_at(8, [0, 1])
    b = bits_at(8, [1, 2])
    assert list((a | b).positions()) == [0, 1, 2]
    assert list((a & b).positions()) == [1]
    assert list((a ^ b).positions()) == [0, 2]


def test_width_mismatch_rejected():
    with pytest.raises(ValueError):
        BitArray(4) | BitArray(5)


def test_to_bytes_is_the_little_endian_mask():
    bits = bits_at(19, [0, 8, 18])
    data = bits.to_bytes()
    assert len(data) == 3
    assert BitArray(19, int.from_bytes(data, "little")) == bits


def test_equality():
    a = bits_at(6, [2, 4])
    b = bits_at(6, [2, 4])
    assert a == b
    b.set(0)
    assert a != b


def test_repr_shows_bits():
    bits = bits_at(3, [0])
    assert repr(bits) == "BitArray('100')"


bit_sets = st.integers(min_value=1, max_value=64).flatmap(
    lambda n: st.tuples(
        st.just(n),
        st.sets(st.integers(min_value=0, max_value=n - 1)),
        st.sets(st.integers(min_value=0, max_value=n - 1)),
    )
)


@given(bit_sets)
def test_algebra_matches_set_semantics(data):
    nbits, xs, ys = data
    a = bits_at(nbits, xs)
    b = bits_at(nbits, ys)
    assert set((a | b).positions()) == xs | ys
    assert set((a & b).positions()) == xs & ys
    assert set((a ^ b).positions()) == xs ^ ys
    assert a.count() == len(xs)


@given(bit_sets)
def test_runs_cover_width_exactly(data):
    nbits, xs, _ = data
    bits = bits_at(nbits, xs)
    runs = list(run_lengths(nbits, bits.mask))
    assert sum(runs) == nbits and all(length >= 1 for length in runs)


@given(bit_sets)
def test_runs_match_the_position_by_position_walk(data):
    nbits, xs, _ = data
    bits = bits_at(nbits, xs)
    expected = []
    for pos in range(nbits):
        value = pos in xs
        if expected and expected[-1][0] == value:
            expected[-1][1] += 1
        else:
            expected.append([value, 1])
    assert list(run_lengths(nbits, bits.mask)) == [length for _, length in expected]
    assert (run_ends(nbits, bits.mask).bit_count() + 1 if nbits else 0) == len(expected)
