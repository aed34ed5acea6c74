"""Cross-structure invariant checks, shared by the offline audit and the
online scrubber.

:meth:`repro.system.PCubeSystem.verify_consistency` and the serving-side
scrubber (:mod:`repro.serve.scrub`) verify the same contract — the stored
per-cell signatures, the counted signatures, the R-tree partition and the
store's B+-tree index all describe the *same* base relation — but against
different surfaces: the audit walks the live structures with the writer
quiescent, the scrubber walks a pinned epoch snapshot while maintenance and
queries keep running.  This module factors the invariants themselves out of
both callers, duck-typed against whichever surface provides them:

* a relation-like (``Relation`` or ``RelationView``): ``schema``,
  ``tids()``, ``live_tids()``, ``bool_row()``;
* an R-tree path map (``RTree.all_paths()`` or
  ``FrozenRTree.all_paths()``): tid → root-based path;
* a signature loader (``PCube.signature_of`` live, or
  ``StoreView.load_full_signature`` under a snapshot);
* a counted lookup (``PCube.counted_of`` live, or the snapshot's shared
  counted dict).

Checks are exposed per cell (:func:`iter_cell_checks`) precisely so the
scrubber can spread a full pass over many throttled ticks instead of
stalling a worker for one long audit.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Iterator, Sequence

from repro.core.counted import CountedSignature
from repro.core.pcube import SignatureAdapter
from repro.core.sid import path_of_sid
from repro.core.signature import Signature
from repro.core.store import AssembledReader
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


def lattice_problems(
    cell: Cell, stored: Signature, atoms: Sequence[Signature], leaf_depth: int
) -> list[str]:
    """The cuboid-lattice rule for a materialised multi-dimensional cell,
    "assembled ≡ generated": the on-demand assembly of its atomic factors
    (the reader queries run, here over the factors' full signatures) sets
    exactly the bits of the cell's own generated signature, node by node,
    and both stay under the factors' plain AND."""
    assembled = AssembledReader(
        [SignatureAdapter(atom) for atom in atoms], leaf_depth
    )
    for sid in sorted({*stored.node_sids(), *atoms[0].node_sids()}):
        bits = stored.node(sid)
        generated = bits.mask if bits is not None else 0
        if assembled.check_block(path_of_sid(sid, stored.fanout), -1) != generated:
            return [
                f"cell {cell}: stored signature diverges from the assembly "
                f"of its atomic cells at node {sid}"
            ]
        for atom in atoms:
            bits = atom.node(sid)
            if generated & ~(bits.mask if bits is not None else 0):
                return [
                    f"cell {cell}: node {sid} has bits outside its atomic "
                    f"cells' AND"
                ]
    return []


def check_cell(
    cell: Cell,
    member_tids: Sequence[int],
    paths: dict[int, tuple[int, ...]],
    live: set[int],
    fanout: int,
    load_signature: Callable[[Cell], Signature],
    load_counted: Callable[[Cell], CountedSignature | None] | None,
    leaf_depth: int | None = None,
) -> list[str]:
    """One cell's invariants: stored signature (and, when a counted lookup
    is supplied, the counted signature) must equal a fresh rebuild from the
    live members' R-tree paths; with a ``leaf_depth`` (the caller vouches
    that the cell's atomic factors are materialised) the stored signature
    must also satisfy :func:`lattice_problems`."""
    problems: list[str] = []
    member_paths = [
        paths[tid] for tid in member_tids if tid in live and tid in paths
    ]
    expected = Signature.from_paths(member_paths, fanout)
    try:
        stored = load_signature(cell)
    except Exception as exc:
        problems.append(f"cell {cell}: unreadable ({exc!r})")
        return problems
    if stored != expected:
        problems.append(
            f"cell {cell}: stored signature diverges from the R-tree "
            f"partition"
        )
    if leaf_depth is not None:
        try:
            atoms = [load_signature(atom) for atom in cell.atoms()]
        except Exception as exc:
            problems.append(f"cell {cell}: atomic cell unreadable ({exc!r})")
        else:
            problems.extend(lattice_problems(cell, stored, atoms, leaf_depth))
    if load_counted is not None:
        counted = load_counted(cell)
        recounted = CountedSignature.from_paths(member_paths, fanout)
        if counted is None:
            if member_paths:
                problems.append(f"cell {cell}: no counted signature")
        elif counted != recounted:
            problems.append(
                f"cell {cell}: counted signature diverges from a fresh "
                f"re-count"
            )
    return problems


def iter_cell_checks(
    relation: Any,
    paths: dict[int, tuple[int, ...]],
    cuboids: Iterable[Cuboid],
    fanout: int,
    load_signature: Callable[[Cell], Signature],
    load_counted: Callable[[Cell], CountedSignature | None] | None,
) -> Iterator[tuple[Cell, list[str]]]:
    """Yield ``(cell, problems)`` for every cell of every cuboid, in
    deterministic order — the scrubber's throttle-friendly audit surface.

    Grouping includes tombstoned rows (``include_tombstoned=True``): the
    audit must see cells whose last live member was deleted, because their
    stored signature must have gone empty, not stale.
    """
    live = {tid for tid in relation.live_tids()}
    cuboids = list(cuboids)
    atomic_dims = {c.dims[0] for c in cuboids if len(c.dims) == 1}
    # Leaf nodes sit one level above the tuples a path addresses.
    leaf_depth = len(next(iter(paths.values()), (0,))) - 1
    for cuboid in cuboids:
        in_lattice = len(cuboid.dims) > 1 and atomic_dims.issuperset(cuboid.dims)
        groups = cuboid.group(relation, include_tombstoned=True)
        for cell in sorted(groups, key=lambda c: c.cell_id):
            yield cell, check_cell(
                cell,
                groups[cell],
                paths,
                live,
                fanout,
                load_signature,
                load_counted,
                leaf_depth if in_lattice else None,
            )


def expected_cell_ids(
    relation: Any, cuboids: Iterable[Cuboid]
) -> set[str]:
    """Every cell id the cuboids' group-bys can produce (tombstones
    included) — the universe the store may legitimately hold."""
    ids: set[str] = set()
    for cuboid in cuboids:
        ids.update(
            cell.cell_id
            for cell in cuboid.group(relation, include_tombstoned=True)
        )
    return ids


def store_directory_problems(
    store_cells: Iterable[str],
    expected_ids: set[str],
    quarantined: Iterable[Cell],
    directory: Sequence,
    index: Iterable,
    orphans: Sequence[int],
) -> list[str]:
    """Store-side invariants: no unknown cells, no quarantine residue, the
    B+-tree index mirrors the directory exactly, and no signature page is
    left that the directory does not reference (``orphans``, deferred epoch
    frees excluded)."""
    problems = [
        f"store holds unknown cell {cell_id!r}"
        for cell_id in store_cells
        if cell_id not in expected_ids
    ]
    problems.extend(f"cell {cell} is quarantined" for cell in quarantined)
    if sorted(directory) != sorted(index):
        problems.append(
            "the store's B+-tree index diverges from its directory"
        )
    if orphans:
        problems.append(
            f"{len(orphans)} signature pages no directory references "
            f"(first: {list(orphans[:5])})"
        )
    return problems


__all__ = [
    "ConsistencyReport",
    "check_cell",
    "expected_cell_ids",
    "iter_cell_checks",
    "lattice_problems",
    "rtree_partition_problems",
    "store_directory_problems",
]
