"""Signature union and intersection (paper Section IV-B.2, Fig. 3).

P-Cube materialises only atomic (one-dimensional) cuboids by default, so a
multi-dimensional boolean predicate needs its signature *assembled* online:

* **union** — plain bit-or, node by node: a bit is 1 in the result iff it is
  1 in either input (answers ``A=a2 OR B=b2`` style disjunctions);
* **intersection** — recursive bit-and: a bit survives only if it is 1 in
  both inputs *and* the intersection of the corresponding child subtrees is
  non-empty; otherwise the bit is cleared (the paper's example clears the
  root's first bit because the two cells share no tuple under node N1).

The recursion is what makes intersection exact.  A *plain* AND (bit tests
answered by and-ing the inputs, no child look-ahead) admits false positives
at internal nodes — both cells have data under the node but no common tuple
— and each one costs the search a block read per level down to the leaves,
where a slot bit refers to one concrete tuple (on the e2e relation: 138–185
node expansions for a 2-conjunct read against 10–11, EXPERIMENTS.md "PR 20").
Queries run the recursive operator, evaluated on demand over the stored
partials by :class:`repro.core.readers.AssembledReader`; the functions here
work on whole in-memory signatures and no serving path imports them: they
are kept as the Fig. 3 oracle — :func:`intersect_all` is what tests, the
assembly ablation and the audit compare the reader with bit for bit (the
plain-AND upper bound is the same reader at leaf depth 0).
"""

from __future__ import annotations

from typing import Sequence

from repro.bitmap.bitarray import mask_positions
from repro.core.signature import Signature
from repro.core.sid import child_sid


def union(first: Signature, second: Signature) -> Signature:
    """The bit-or of two signatures over the same partition template."""
    return union_all([first, second])


def union_all(signatures: Sequence[Signature]) -> Signature:
    """Union of one or more signatures: each node's masks ORed across all
    inputs, with no intermediate signature."""
    if not signatures:
        raise ValueError("union_all of an empty sequence")
    for signature in signatures[1:]:
        _check_compatible(signatures[0], signature)
    masks: dict[int, int] = {}
    for signature in signatures:
        for sid, mask in signature.masks().items():
            masks[sid] = masks.get(sid, 0) | mask
    return Signature.from_masks(signatures[0].fanout, masks)


def intersect(first: Signature, second: Signature) -> Signature:
    """The paper's recursive intersection.

    A leaf-level bit is kept iff set in both inputs.  An internal bit is
    kept iff set in both inputs and the child intersection is non-empty; the
    child node is materialised only in that case.
    """
    _check_compatible(first, second)
    result = Signature(first.fanout)
    _intersect_node(first, second, 0, result)
    return result


def _intersect_node(
    first: Signature, second: Signature, sid: int, result: Signature
) -> bool:
    """Intersect the subtree at ``sid``; return whether it is non-empty."""
    both = first.node(sid) & second.node(sid)
    kept = 0
    for position in mask_positions(both):
        child = child_sid(sid, position + 1, first.fanout)
        if not first.node(child) and not second.node(child):
            # Both signatures bottom out here: the bit denotes the same
            # leaf slot, i.e. the same tuple — exact, keep it.
            kept |= 1 << position
        elif _intersect_node(first, second, child, result):
            # Both have the subtree.  (One side has a subtree, the other a
            # leaf slot: the signatures disagree about the tree shape, which
            # cannot happen over one template; the recursion finds the
            # missing node and treats it as empty.)
            kept |= 1 << position
    if not kept:
        return False
    result.set_node(sid, kept)
    return True


def intersect_all(signatures: Sequence[Signature]) -> Signature:
    """Intersection of one or more signatures (left-assoc recursive); the
    intersection of one signature is that signature, not a copy."""
    if not signatures:
        raise ValueError("intersect_all of an empty sequence")
    result = signatures[0]
    for signature in signatures[1:]:
        result = intersect(result, signature)
    return result


def _check_compatible(first: Signature, second: Signature) -> None:
    if first.fanout != second.fanout:
        raise ValueError(
            "signatures over different partition templates "
            f"(fanout {first.fanout} vs {second.fanout})"
        )
