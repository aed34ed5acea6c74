"""Path ⇄ signature-ID (SID) arithmetic.

The paper maps a node path ``⟨p0, p1, ..., p_{l-1}⟩`` (1-based child
positions, root = empty path) one-to-one to an integer::

    SID = p0 * (M+1)^{l-1} + p1 * (M+1)^{l-2} + ... + p_{l-1}

where ``M`` is the R-tree fanout.  In the paper's example (M = 2) the node
with path ⟨1, 1⟩ has SID ``1*3 + 1 = 4`` and the root has SID 0.

Because every digit lies in ``[1, M]`` and the base is ``M + 1``, the
mapping is injective (a bijective-style numeration that never uses digit 0),
so it can be inverted exactly; integers whose digit expansion would contain
a 0 simply are not valid SIDs.
"""

from __future__ import annotations

from typing import Sequence


def sid_of_path(path: Sequence[int], fanout: int) -> int:
    """The SID of a node path.

    Args:
        path: 1-based child positions from the root; ``()`` is the root.
        fanout: The R-tree node capacity ``M``.

    Raises:
        ValueError: if any component lies outside ``[1, M]``.
    """
    base = fanout + 1
    sid = 0
    for component in path:
        if not 1 <= component <= fanout:
            raise ValueError(
                f"path component {component} outside [1, {fanout}]"
            )
        sid = sid * base + component
    return sid


def child_sid(sid: int, position: int, fanout: int) -> int:
    """SID of the child at 1-based ``position`` under node ``sid``."""
    if not 1 <= position <= fanout:
        raise ValueError(f"child position {position} outside [1, {fanout}]")
    return sid * (fanout + 1) + position
