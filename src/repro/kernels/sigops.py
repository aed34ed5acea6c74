"""Word-parallel signature algebra: AND/OR/popcount over uint64 buffers.

Signature nodes are ``int`` masks.  Over *many* nodes at once these kernels
pack the masks into a ``(k, W)`` little-endian uint64 matrix and reduce
word-parallel.  Integer bitwise ops in CPython are already C-speed, so the
word matrix only pays above a small size threshold; below it the masks are
reduced as integers.  Both are exact, and the parity suite pins them
against the scalar reductions in ``tests/kernels/reference.py``.

No product path calls these: the signature algebra (:mod:`repro.core.ops`)
uses the int operators.  They stay because the frozen e2e recorder
(``benchmarks/e2e/tracing.py``) names them as targets.
"""

from __future__ import annotations

from functools import reduce
from operator import and_, or_
from typing import Iterable, Sequence

import numpy as np

from repro.bitmap.bitarray import WORD_BITS, word_count

#: Total packed words below which the scalar reduction is simply faster.
_NUMPY_THRESHOLD = 256


def _word_matrix(masks: Sequence[int], nbits: int):
    """Pack integer masks into a little-endian ``(k, W)`` uint64 matrix."""
    nwords = word_count(nbits)
    data = b"".join(
        mask.to_bytes(nwords * 8, "little") for mask in masks
    )
    return np.frombuffer(data, dtype="<u8").reshape(len(masks), nwords)


def _words_to_mask(words) -> int:
    return int.from_bytes(words.tobytes(), "little")


def or_masks(masks: Sequence[int], nbits: int) -> int:
    """Bitwise OR of integer masks (word-parallel above the threshold)."""
    if not masks:
        return 0
    if len(masks) * word_count(nbits) < _NUMPY_THRESHOLD:
        return reduce(or_, masks)
    matrix = _word_matrix(masks, nbits)
    return _words_to_mask(np.bitwise_or.reduce(matrix, axis=0))


def and_masks(masks: Sequence[int], nbits: int) -> int:
    """Bitwise AND of one or more integer masks."""
    if not masks:
        raise ValueError("and_masks of an empty sequence")
    if len(masks) * word_count(nbits) < _NUMPY_THRESHOLD:
        return reduce(and_, masks)
    matrix = _word_matrix(masks, nbits)
    return _words_to_mask(np.bitwise_and.reduce(matrix, axis=0))


def popcount_masks(masks: Iterable[int], nbits: int) -> int:
    """Total set bits across integer masks (``np.bitwise_count`` path)."""
    masks = list(masks)
    if not masks:
        return 0
    if len(masks) * word_count(nbits) < _NUMPY_THRESHOLD:
        return sum(mask.bit_count() for mask in masks)
    matrix = _word_matrix(masks, nbits)
    return int(np.bitwise_count(matrix).sum())


def popcount_bitarrays(nodes: Iterable[tuple[int, int]]) -> int:
    """Total set bits across decoded nodes, ``(nbits, mask)`` pairs whose
    widths may differ — called by nothing: the frozen e2e recorder names
    it, and the recorder's next revision deletes it."""
    total = 0
    by_width: dict[int, list[int]] = {}
    for nbits, mask in nodes:
        by_width.setdefault(nbits, []).append(mask)
    for nbits, masks in by_width.items():
        total += popcount_masks(masks, nbits)
    return total


__all__ = [
    "WORD_BITS",
    "and_masks",
    "or_masks",
    "popcount_bitarrays",
    "popcount_masks",
    "word_count",
]
