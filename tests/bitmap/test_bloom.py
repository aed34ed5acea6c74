"""Bloom filters: no false negatives, bounded false positives."""

import random

import pytest

from repro.bitmap.bloom import BloomFilter, optimal_parameters


def test_no_false_negatives():
    bloom = BloomFilter(nbits=1024, nhashes=3)
    keys = list(range(0, 500, 5))
    for key in keys:
        bloom.add(key)
    assert all(bloom.might_contain(key) for key in keys)


def test_false_positive_rate_near_target():
    rng = random.Random(5)
    keys = rng.sample(range(10**9), 2000)
    bloom = BloomFilter.for_items(keys, fp_rate=0.01)
    probes = rng.sample(range(10**9, 2 * 10**9), 20_000)
    false_positives = sum(1 for p in probes if bloom.might_contain(p))
    assert false_positives / len(probes) < 0.03  # 3x headroom on 1%


def test_contains_dunder():
    bloom = BloomFilter.for_items([1, 2, 3])
    assert 1 in bloom
    assert 2 in bloom


def test_negative_keys():
    bloom = BloomFilter(64, 2)
    with pytest.raises(ValueError):
        bloom.add(-1)
    assert not bloom.might_contain(-5)


def test_empty_filter_rejects_everything():
    bloom = BloomFilter(64, 2)
    assert not any(bloom.might_contain(k) for k in range(100))


def test_optimal_parameters_shape():
    m, k = optimal_parameters(1000, 0.01)
    assert m >= 1000  # roughly 9.6 bits/key at 1%
    assert 1 <= k <= 20
    m2, _ = optimal_parameters(1000, 0.001)
    assert m2 > m  # lower rate needs more bits


def test_optimal_parameters_validation():
    with pytest.raises(ValueError):
        optimal_parameters(10, 1.5)
    assert optimal_parameters(0, 0.01) == (8, 1)


def test_deterministic_across_instances():
    a = BloomFilter(256, 3)
    b = BloomFilter(256, 3)
    for key in range(50):
        a.add(key)
        b.add(key)
    assert all(a.might_contain(k) == b.might_contain(k) for k in range(200))


def test_size_and_fill():
    bloom = BloomFilter(80, 2)
    assert bloom.size_bytes() == 10
    assert repr(bloom).endswith("fill=0.000)")
    bloom.add(1)
    assert repr(bloom).endswith(("fill=0.013)", "fill=0.025)"))  # 1 or 2 of 80 bits


def test_invalid_construction():
    with pytest.raises(ValueError):
        BloomFilter(0, 1)
    with pytest.raises(ValueError):
        BloomFilter(8, 0)
