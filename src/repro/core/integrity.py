"""Cross-structure invariant checks, shared by the offline audit and the
online scrubber.

:meth:`repro.system.PCubeSystem.verify_consistency` and the serving-side
scrubber (:mod:`repro.serve.scrub`) verify the same contract — the stored
per-cell signatures, the R-tree partition and the store's directory all
describe the *same* base relation — but against different surfaces: the
audit walks the live structures with the writer quiescent, the scrubber
walks a pinned epoch snapshot while maintenance and queries keep running.  This module factors the invariants themselves out of
both callers, duck-typed against whichever surface provides them:

* a relation-like (``Relation`` or ``RelationView``): ``schema``,
  ``live_tids()``, ``bool_row()``;
* an R-tree path map (``RTree.all_paths()`` or
  ``FrozenRTree.all_paths()``): tid → root-based path;
* a signature loader (``PCube.signature_of`` live, or
  ``StoreView.load_full_signature`` under a snapshot).

Checks are exposed per cell (:func:`iter_cell_checks`) precisely so the
scrubber can spread a full pass over many throttled ticks instead of
stalling a worker for one long audit.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Iterator, Mapping, Sequence

from repro.core.signature import Signature
from repro.cube.cuboid import Cell, Cuboid


@dataclass
class ConsistencyReport:
    """What a consistency audit found.

    ``problems`` is empty exactly when every invariant holds; each entry is
    a human-readable description of one violation.
    """

    problems: list[str] = field(default_factory=list)
    cells_checked: int = 0

    @property
    def ok(self) -> bool:
        return not self.problems

    def __bool__(self) -> bool:
        return self.ok


def rtree_partition_problems(
    paths: dict[int, tuple[int, ...]], live: set[int]
) -> list[str]:
    """The R-tree must index exactly the live tids."""
    if set(paths) == live:
        return []
    missing = sorted(live - set(paths))[:5]
    extra = sorted(set(paths) - live)[:5]
    return [
        f"R-tree tids diverge from live tids "
        f"(missing={missing}, extra={extra})"
    ]


def apex_masks(
    paths: dict[int, tuple[int, ...]], fanout: int
) -> dict[int, int]:
    """The apex cell's node masks (SID -> mask): the bits every live
    tuple's path sets, which are exactly the tree's live child slots."""
    return Signature.from_paths(paths.values(), fanout).masks()


def check_cell(
    cell: Cell,
    member_tids: Sequence[int],
    paths: dict[int, tuple[int, ...]],
    live: set[int],
    fanout: int,
    load_signature: Callable[[Cell], Signature],
    apex: Mapping[int, int],
) -> list[str]:
    """One cell's invariants, the first that fails reported alone.

    Every set bit of the stored signature names a live child slot: the
    cell is contained in the apex (``apex``, see :func:`apex_masks`).
    Then the stored signature must equal a fresh rebuild from the live
    members' R-tree paths.

    A materialised multi-dimensional cell needs no rule of its own: when it
    and its atomic factors each equal their rebuilds, the on-demand
    assembly of the factors (the reader queries run) equals it too, so any
    damage a lattice rule could see is already reported here, for the
    damaged cell itself."""
    try:
        stored = load_signature(cell)
    except Exception as exc:
        return [f"cell {cell}: unreadable ({exc!r})"]
    stray = sorted(
        sid for sid, mask in stored.masks().items() if mask & ~apex.get(sid, 0)
    )
    if stray:
        return [
            f"cell {cell}: bits on free slots, outside the apex "
            f"(SIDs {stray[:5]})"
        ]
    member_paths = [
        paths[tid] for tid in member_tids if tid in live and tid in paths
    ]
    if stored != Signature.from_paths(member_paths, fanout):
        return [
            f"cell {cell}: stored signature diverges from the R-tree "
            f"partition"
        ]
    return []


def iter_cell_checks(
    relation: Any,
    paths: dict[int, tuple[int, ...]],
    cuboids: Iterable[Cuboid],
    fanout: int,
    load_signature: Callable[[Cell], Signature],
) -> Iterator[tuple[Cell, list[str]]]:
    """Yield ``(cell, problems)`` for every cell with a live member, of
    every cuboid, in deterministic order — the scrubber's throttle-friendly
    audit surface.  A stored cell with no live member is not checked here:
    :func:`expected_cell_ids` leaves it out, so the store-side check
    reports it.
    """
    live = {tid for tid in relation.live_tids()}
    apex = apex_masks(paths, fanout)
    for cuboid in cuboids:
        groups = cuboid.group(relation)
        for cell in sorted(groups, key=lambda c: c.cell_id):
            yield cell, check_cell(
                cell, groups[cell], paths, live, fanout, load_signature, apex
            )


def expected_cell_ids(
    relation: Any, cuboids: Iterable[Cuboid]
) -> set[str]:
    """Every cell id of a cell with a live member — the cells the store
    holds, as a build over the live rows stores them."""
    ids: set[str] = set()
    for cuboid in cuboids:
        ids.update(cell.cell_id for cell in cuboid.group(relation))
    return ids


def store_directory_problems(
    store_cells: Iterable[str],
    expected_ids: set[str],
    quarantined: Iterable[Cell],
    orphans: Sequence[int],
) -> list[str]:
    """Store-side invariants: no unknown cells, no quarantine residue, and
    no signature page left that the directory does not reference
    (``orphans``, deferred epoch frees excluded)."""
    problems = [
        f"store holds unknown cell {cell_id!r}"
        for cell_id in store_cells
        if cell_id not in expected_ids
    ]
    problems.extend(f"cell {cell} is quarantined" for cell in quarantined)
    if orphans:
        problems.append(
            f"{len(orphans)} signature pages no directory references "
            f"(first: {list(orphans[:5])})"
        )
    return problems


__all__ = [
    "ConsistencyReport",
    "apex_masks",
    "check_cell",
    "expected_cell_ids",
    "iter_cell_checks",
    "rtree_partition_problems",
    "store_directory_problems",
]
