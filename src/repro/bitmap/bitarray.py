"""Helpers over node masks: a signature node's bit array is a Python ``int``.

A Python integer is already an arbitrary-width bit array: ``|`` and ``&``
are the union and intersection of signature assembly and
:func:`int.bit_count` the popcount.  Bit ``i`` of a node's mask is child
position ``i + 1`` (the paper's 1-based slots).  What the codecs need on
top of the operators is here: the set positions, the runs, and the word
count of a width.
"""

from __future__ import annotations

from typing import Iterator

#: Word width of the packed representation (:mod:`repro.kernels.sigops`).
WORD_BITS = 64


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
