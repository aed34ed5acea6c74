"""Bloom filters over SIDs — the lossy signature of paper Section VII.

    "We can build a bloom filter on all SID's whose corresponding entries
    are 1 in the signature. During query execution, we can load the
    compressed signature (i.e., a bloom filter), and test a SID upon that."

A Bloom signature can only produce *false positives* (claiming a cell has
data under a node when it does not), so boolean pruning stays conservative:
queries remain correct, they just read a few extra R-tree blocks.  The
ablation benchmark quantifies that trade-off.
"""

from __future__ import annotations

import math
from typing import Iterable


def optimal_parameters(n_items: int, fp_rate: float) -> tuple[int, int]:
    """Classic sizing: bits ``m`` and hash count ``k`` for a target rate."""
    if n_items <= 0:
        return 8, 1
    if not 0.0 < fp_rate < 1.0:
        raise ValueError("fp_rate must be in (0, 1)")
    m = max(8, math.ceil(-n_items * math.log(fp_rate) / (math.log(2) ** 2)))
    k = max(1, round(m / n_items * math.log(2)))
    return m, k


class BloomFilter:
    """A Bloom filter over non-negative integer keys (SIDs).

    Uses double hashing ``h1 + i * h2`` over two splits of a 64-bit mix, the
    standard Kirsch–Mitzenmacher construction.
    """

    def __init__(self, nbits: int, nhashes: int) -> None:
        if nbits <= 0:
            raise ValueError("nbits must be positive")
        if nhashes <= 0:
            raise ValueError("nhashes must be positive")
        self.nbits = nbits
        self.nhashes = nhashes
        self._mask = 0
        self.n_added = 0

    @classmethod
    def for_items(cls, items: Iterable[int], fp_rate: float = 0.01) -> "BloomFilter":
        """Build a filter sized for ``items`` at the given false-positive rate."""
        keys = list(items)
        nbits, nhashes = optimal_parameters(len(keys), fp_rate)
        bloom = cls(nbits, nhashes)
        for key in keys:
            bloom.add(key)
        return bloom

    @staticmethod
    def _mix(key: int) -> tuple[int, int]:
        # splitmix64 finaliser; deterministic across runs (no PYTHONHASHSEED
        # dependence), which matters for reproducible benchmarks.
        z = (key + 0x9E3779B97F4A7C15) & 0xFFFFFFFFFFFFFFFF
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & 0xFFFFFFFFFFFFFFFF
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & 0xFFFFFFFFFFFFFFFF
        z ^= z >> 31
        h1 = z & 0xFFFFFFFF
        h2 = (z >> 32) | 1  # odd, so probes cycle through all positions
        return h1, h2

    def add(self, key: int) -> None:
        """Insert a key."""
        if key < 0:
            raise ValueError("keys must be non-negative")
        h1, h2 = self._mix(key)
        for i in range(self.nhashes):
            self._mask |= 1 << ((h1 + i * h2) % self.nbits)
        self.n_added += 1

    def might_contain(self, key: int) -> bool:
        """False means definitely absent; True means probably present."""
        if key < 0:
            return False
        h1, h2 = self._mix(key)
        return all(
            self._mask >> ((h1 + i * h2) % self.nbits) & 1
            for i in range(self.nhashes)
        )

    def __contains__(self, key: int) -> bool:
        return self.might_contain(key)

    def size_bytes(self) -> int:
        """Storage footprint of the filter body."""
        return (self.nbits + 7) // 8

    def __repr__(self) -> str:
        return (
            f"BloomFilter(nbits={self.nbits}, nhashes={self.nhashes}, "
            f"n_added={self.n_added}, fill={self._mask.bit_count() / self.nbits:.3f})"
        )
