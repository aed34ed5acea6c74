"""Pages: the unit of simulated disk transfer.

The paper fixes the page size at 4 KB (Section VI-A).  A page carries an
arbitrary in-memory payload (an R-tree node, whose leaf keeps its tuples as
two column arrays; a partial signature; a heap page's list of tids, the
rows themselves being the relation's column arrays; ...) together with a
*logical size in bytes*; the logical size is what the space-accounting of
Figure 6 sums, while reads/writes are counted per page regardless of
payload size.

Every page also records a CRC32 checksum of its payload at allocate/write
time, verified on read.  Payloads are live Python objects: an immutable
value exposing ``page_checksum`` (a partial signature) supplies its own
CRC, computed once per object over a framing of its content; bytes and
scalars are checksummed over their content; mutable structural objects
(R-tree / B+-tree nodes, heap tid lists, WAL and checkpoint records, which
carry their own content CRC) over their type name.  Either way, a payload
swapped for garbage is detected and surfaces as a typed
:class:`~repro.storage.errors.CorruptPageError` instead of silently wrong
bits.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field
from typing import Any

from repro.storage.errors import CorruptPageError

#: Default page size in bytes, as used throughout the paper's evaluation.
DEFAULT_PAGE_SIZE = 4096


def payload_fingerprint(payload: Any) -> bytes:
    """The byte string a page checksum is computed over, for a payload that
    does not supply its own checksum (see :func:`compute_checksum`).

    Value-like payloads fingerprint their full content; structural objects
    that are mutated in place between explicit writes fingerprint their type
    (still enough to catch a payload replaced wholesale by corruption).
    """
    if payload is None:
        return b"\x00none"
    if isinstance(payload, (bytes, bytearray, memoryview)):
        return bytes(payload)
    if isinstance(payload, (bool, int, float, str)):
        return repr(payload).encode()
    return type(payload).__qualname__.encode()


def compute_checksum(payload: Any) -> int:
    """The payload's own ``page_checksum`` when it has one (an immutable
    value, which computes it once), else CRC32 over
    :func:`payload_fingerprint`."""
    checksum = getattr(payload, "page_checksum", None)
    if checksum is not None:
        return checksum
    return zlib.crc32(payload_fingerprint(payload))


@dataclass
class Page:
    """A single disk page.

    Attributes:
        page_id: Unique identifier assigned by the owning disk.
        tag: Owner label such as ``"rtree"``, ``"pcube:A"`` or ``"heap"``;
            used to aggregate space per structure.
        size: Logical payload size in bytes (capped at the disk's page size
            for structures that decompose to fit, such as partial
            signatures).
        payload: The in-memory object this page holds.
        checksum: The payload's CRC32 (:func:`compute_checksum`), set by
            :meth:`seal`; ``None`` means the page was never sealed
            (verification skips it).
    """

    page_id: int
    tag: str
    size: int
    payload: Any = field(default=None, repr=False)
    checksum: int | None = field(default=None, repr=False)

    def __post_init__(self) -> None:
        if self.size < 0:
            raise ValueError(f"page size must be non-negative, got {self.size}")

    def seal(self) -> None:
        """Record the current payload's checksum (called on allocate/write)."""
        self.checksum = compute_checksum(self.payload)

    def verify(self) -> None:
        """Raise :class:`CorruptPageError` if the payload no longer matches
        the checksum recorded by the last :meth:`seal`."""
        if self.checksum is None:
            return
        if compute_checksum(self.payload) != self.checksum:
            raise CorruptPageError(self.page_id, self.tag)
