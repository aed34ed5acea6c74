"""A fixed-width bit array backed by a Python integer.

Python integers give us free arbitrary width, O(1) amortised bitwise AND/OR
(the union/intersection primitives of signature assembly) and cheap popcount
via :func:`int.bit_count`.
"""

from __future__ import annotations

from typing import Iterator, Sequence

#: Word width of the packed representation (``to_words``/``from_words``).
WORD_BITS = 64
_WORD_MASK = (1 << WORD_BITS) - 1


def mask_positions(mask: int) -> Iterator[int]:
    """The set-bit positions of ``mask``, increasing."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def run_ends(nbits: int, mask: int) -> int:
    """A mask with bit ``i`` set where positions ``i`` and ``i + 1`` of an
    ``nbits``-wide ``mask`` differ — a run ends at ``i`` (the last run's
    end is not marked)."""
    return (mask ^ (mask >> 1)) & ((1 << max(nbits - 1, 0)) - 1)


def run_lengths(nbits: int, mask: int) -> Iterator[int]:
    """The lengths of the maximal 0/1 runs of an ``nbits``-wide ``mask``,
    low bits first."""
    if nbits == 0:
        return
    start = 0
    for end in mask_positions(run_ends(nbits, mask)):
        yield end + 1 - start
        start = end + 1
    yield nbits - start


def word_count(nbits: int) -> int:
    """How many 64-bit words a width of ``nbits`` packs into."""
    if nbits < 0:
        raise ValueError("nbits must be non-negative")
    return (nbits + WORD_BITS - 1) // WORD_BITS


class BitArray:
    """``nbits`` addressable bits, all initially zero.

    Positions are 0-based.  Signature code maps the paper's 1-based child
    positions ``p ∈ [1, M]`` to bit index ``p - 1``.
    """

    __slots__ = ("nbits", "_mask")

    def __init__(self, nbits: int, mask: int = 0) -> None:
        if nbits < 0:
            raise ValueError("nbits must be non-negative")
        if mask < 0:
            raise ValueError("mask must be non-negative")
        if mask >> nbits:
            raise ValueError(f"mask has bits set beyond width {nbits}")
        self.nbits = nbits
        self._mask = mask

    # ------------------------------------------------------------------ #
    # construction helpers
    # ------------------------------------------------------------------ #

    @classmethod
    def trusted(cls, nbits: int, mask: int) -> "BitArray":
        """A bit array over a ``mask`` already known to fit ``nbits`` — a
        decoded node, validated when its blob was first decoded.  Not
        validated again."""
        bits = object.__new__(cls)
        bits.nbits = nbits
        bits._mask = mask
        return bits

    # ------------------------------------------------------------------ #
    # single-bit access
    # ------------------------------------------------------------------ #

    def _check(self, pos: int) -> None:
        if not 0 <= pos < self.nbits:
            raise IndexError(f"bit {pos} out of range [0, {self.nbits})")

    def get(self, pos: int) -> bool:
        """Whether bit ``pos`` is set."""
        self._check(pos)
        return bool(self._mask >> pos & 1)

    def set(self, pos: int, value: bool = True) -> None:
        """Set (default) or clear bit ``pos``."""
        self._check(pos)
        if value:
            self._mask |= 1 << pos
        else:
            self._mask &= ~(1 << pos)

    def __getitem__(self, pos: int) -> bool:
        return self.get(pos)

    def __setitem__(self, pos: int, value: bool) -> None:
        self.set(pos, value)

    # ------------------------------------------------------------------ #
    # aggregate views
    # ------------------------------------------------------------------ #

    @property
    def mask(self) -> int:
        """The raw integer mask (read-only view)."""
        return self._mask

    def count(self) -> int:
        """Number of set bits."""
        return self._mask.bit_count()

    def any(self) -> bool:
        return self._mask != 0

    def positions(self) -> Iterator[int]:
        """Yield set-bit positions in increasing order."""
        return mask_positions(self._mask)

    # ------------------------------------------------------------------ #
    # bitwise combination (same width required)
    # ------------------------------------------------------------------ #

    def _check_width(self, other: "BitArray") -> None:
        if self.nbits != other.nbits:
            raise ValueError(
                f"width mismatch: {self.nbits} vs {other.nbits} bits"
            )

    def __or__(self, other: "BitArray") -> "BitArray":
        self._check_width(other)
        return BitArray(self.nbits, self._mask | other._mask)

    def __and__(self, other: "BitArray") -> "BitArray":
        self._check_width(other)
        return BitArray(self.nbits, self._mask & other._mask)

    def __xor__(self, other: "BitArray") -> "BitArray":
        self._check_width(other)
        return BitArray(self.nbits, self._mask ^ other._mask)

    # ------------------------------------------------------------------ #
    # serialisation and dunder plumbing
    # ------------------------------------------------------------------ #

    def to_bytes(self) -> bytes:
        """Little-endian packed bytes, ``ceil(nbits / 8)`` long."""
        return self._mask.to_bytes((self.nbits + 7) // 8, "little")

    @classmethod
    def from_words(cls, nbits: int, words: Sequence[int]) -> "BitArray":
        """From packed little-endian 64-bit words, lowest word first — the
        interchange format of :mod:`repro.kernels.sigops`, which views the
        same layout as a uint64 numpy buffer (``ceil(nbits / 64)`` words,
        the top one zero-padded; count and padding validated)."""
        expected = word_count(nbits)
        if len(words) != expected:
            raise ValueError(
                f"width {nbits} packs into {expected} words, got {len(words)}"
            )
        mask = 0
        for i, word in enumerate(words):
            if not 0 <= word <= _WORD_MASK:
                raise ValueError(f"word {i} is not an unsigned 64-bit value")
            mask |= word << (WORD_BITS * i)
        return cls(nbits, mask)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BitArray):
            return NotImplemented
        return self.nbits == other.nbits and self._mask == other._mask

    def __hash__(self) -> int:
        return hash((self.nbits, self._mask))

    def __len__(self) -> int:
        return self.nbits

    def __repr__(self) -> str:
        bits = "".join("1" if self.get(i) else "0" for i in range(self.nbits))
        return f"BitArray({bits!r})"
