"""Relations and the data-cube model.

The paper's setting (Section III): a relation ``R`` with boolean dimensions
``A1..Ab`` and preference dimensions ``N1..Np``; a data cube over the boolean
dimensions whose cells (e.g. ``type = sedan``) select subsets of ``R``.
P-Cube attaches a signature *measure* to each cell of the materialised
cuboids — by default only the *atomic* (one-dimensional) cuboids, as in the
paper's experiments.
"""

from repro.cube.schema import Schema
from repro.cube.relation import Relation
from repro.cube.cuboid import Cell, Cuboid, atomic_cuboids

__all__ = [
    "Cell",
    "Cuboid",
    "Relation",
    "Schema",
    "atomic_cuboids",
]
