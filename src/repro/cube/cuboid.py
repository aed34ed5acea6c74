"""Cuboids and cells of the boolean-dimension data cube.

A *cuboid* is a group-by over a subset of boolean dimensions (cuboid ``(A)``,
cuboid ``(A, B)``, ...); a *cell* is one group (``A = a1``).  Following the
paper's experiments, P-Cube materialises the *atomic* cuboids — all
one-dimensional ones — and assembles signatures for multi-dimensional
predicates online via intersection (Section IV-B.2).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

import numpy as np

from repro.cube.relation import Relation


@dataclass(frozen=True)
class Cell:
    """One group-by cell: ``dims[i] = values[i]`` for all i."""

    dims: tuple[str, ...]
    values: tuple[Any, ...]

    def __post_init__(self) -> None:
        if len(self.dims) != len(self.values):
            raise ValueError("cell dims and values must align")
        if len(set(self.dims)) != len(self.dims):
            raise ValueError("cell repeats a dimension")

    @property
    def cell_id(self) -> str:
        """Canonical string id, e.g. ``"A=a1&B=b2"`` (the store directory's key)."""
        return "&".join(f"{d}={v}" for d, v in zip(self.dims, self.values))

    def matches(self, relation: Relation, tid: int) -> bool:
        """Whether a tuple satisfies every conjunct of this cell."""
        return all(
            relation.bool_value(tid, dim) == value
            for dim, value in zip(self.dims, self.values)
        )

    def __str__(self) -> str:
        return self.cell_id


class Cuboid:
    """A group-by over a fixed subset of boolean dimensions."""

    def __init__(self, dims: tuple[str, ...]) -> None:
        if len(set(dims)) != len(dims):
            raise ValueError("cuboid repeats a dimension")
        self.dims = tuple(dims)

    def group(self, relation: Relation) -> dict[Cell, list[int]]:
        """Group live tids of ``relation`` into this cuboid's cells.

        Signatures describe the queryable (live) partition, so tombstoned
        rows are skipped."""
        positions = [relation.schema.boolean_position(d) for d in self.dims]
        by_values: dict[tuple, list[int]] = {}
        for tid in relation.live_tids():
            row = relation.bool_row(tid)
            by_values.setdefault(tuple(row[p] for p in positions), []).append(tid)
        return {
            Cell(self.dims, values): members
            for values, members in by_values.items()
        }

    def label(self, relation: Relation) -> tuple[list[Cell], np.ndarray]:
        """The grouping :meth:`group` makes, as arrays over the relation's
        columnar projection: the cells in first-appearance order and, per
        tid, the index of its cell in that list (``-1`` for a tombstone)."""
        columns = relation.columnar()
        rows = np.flatnonzero(columns.live)
        labels = np.full(columns.n, -1, dtype=np.int64)
        if len(rows) == 0:
            return [], labels
        key = np.zeros(len(rows), dtype=np.int64)
        for dim in self.dims:
            column = columns.codes[rows, relation.schema.boolean_position(dim)]
            values, codes = np.unique(column, return_inverse=True)
            _, key = np.unique(key * len(values) + codes, return_inverse=True)
        _, first, key = np.unique(key, return_index=True, return_inverse=True)
        by_appearance = np.argsort(first)
        rank = np.empty_like(by_appearance)
        rank[by_appearance] = np.arange(len(by_appearance))
        labels[rows] = rank[key.reshape(-1)]
        # A cell's values are its first row's, as the row store holds them.
        positions = [relation.schema.boolean_position(d) for d in self.dims]
        cells = []
        for tid in rows[first[by_appearance]].tolist():
            row = relation.bool_row(tid)
            cells.append(Cell(self.dims, tuple(row[p] for p in positions)))
        return cells, labels

    def cell_for(self, relation: Relation, tid: int) -> Cell:
        """The cell of this cuboid that a given tuple belongs to."""
        row = relation.bool_row(tid)
        positions = [relation.schema.boolean_position(d) for d in self.dims]
        return Cell(self.dims, tuple(row[p] for p in positions))

    def __repr__(self) -> str:
        return f"Cuboid({','.join(self.dims)})"


def atomic_cuboids(boolean_dims: tuple[str, ...]) -> list[Cuboid]:
    """All one-dimensional cuboids — the paper's default materialisation."""
    return [Cuboid((dim,)) for dim in boolean_dims]

