"""Shared benchmark fixtures and reporting helpers.

Every ``test_figNN_*.py`` module reproduces one figure of the paper's
evaluation (Section VI).  The sweeps run once per session inside fixtures;
each test prints the paper-shaped table (same series, same x-axis, scaled
sizes) and asserts the *shape* claims — who wins, roughly by how much —
rather than absolute numbers.

Scaling: the paper runs 1M-10M tuples on a 2008 C++/disk testbed; this
harness runs 10k-50k tuples on a pure-Python simulator.  Wall-clock numbers
therefore mix Python overhead into what was disk time; tables report both
raw ``time`` and ``t@5ms`` — execution time under a 5 ms-per-page-access
disk model — plus the raw access counts, which are hardware independent.

The seeded data sets (sweep sizes, per-size seeds, the CoverType twin) are
defined once in :mod:`repro.data.fixtures`, shared with ``tests/`` and the
``python -m repro.bench`` runner, so a regression seen by the runner can be
reproduced here on the identical input.
"""

from __future__ import annotations

import random

import pytest

from repro.bench.report import format_table
from repro.data.fixtures import (  # noqa: F401 - re-exported for figures
    N_QUERIES,
    SECONDS_PER_IO,
    SWEEP_FANOUT,
    SWEEP_SIZES,
    build_covertype_system,
    build_sweep_system,
    covertype_predicates,
    sweep_config,
)


def fmt_seconds(seconds: float) -> str:
    if seconds < 1e-3:
        return f"{seconds * 1e6:.0f}us"
    if seconds < 1.0:
        return f"{seconds * 1e3:.1f}ms"
    return f"{seconds:.2f}s"


def print_table(title: str, headers: list[str], rows: list[list]) -> None:
    """Print one paper-figure table (the bench runner's own layout)."""
    print("\n" + format_table(title, headers, rows))


@pytest.fixture(scope="session")
def sweep_systems():
    """One built system per sweep size (shared by Figures 6, 8, 9, 10)."""
    return {
        n_tuples: build_sweep_system(n_tuples) for n_tuples in SWEEP_SIZES
    }


@pytest.fixture(scope="session")
def covertype_system():
    """The CoverType twin (Figures 14, 15, 16)."""
    return build_covertype_system()


@pytest.fixture()
def query_rng():
    return random.Random(2008)
