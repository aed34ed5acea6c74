"""Shared benchmark fixtures and reporting helpers.

``test_figures.py`` asserts the paper's "who wins" claims for Figures 5, 6,
8, 9, 10 and 13 on the output of the ``python -m benchmarks.sweeps`` scenarios —
the one code path that measures those figures.  Every other
``test_figNN_*.py`` module reproduces one remaining figure of the paper's
evaluation (Section VI), and the ``test_ablation_*`` modules measure a
design choice.  The sweeps run once per session inside fixtures; each test
prints the paper-shaped table (same series, same x-axis, scaled sizes) and
asserts the *shape* claims — who wins, roughly by how much — rather than
absolute numbers.

Scaling: the paper runs 1M-10M tuples on a 2008 C++/disk testbed; this
harness runs 10k-50k tuples on a pure-Python simulator.  Wall-clock numbers
therefore mix Python overhead into what was disk time; tables report both
raw ``time`` and ``t@5ms`` — execution time under a 5 ms-per-page-access
disk model — plus the raw access counts, which are hardware independent.

The seeded data sets (sweep sizes, per-size seeds, the CoverType twin) are
defined once in :mod:`repro.data.fixtures`, shared with ``tests/`` and the
runner, so a regression seen by the runner reproduces here on the identical
input.
"""

from __future__ import annotations

import pytest

from benchmarks.sweeps.report import (  # noqa: F401 - fmt_seconds re-exported
    fmt_seconds,
    format_table,
)
from benchmarks.sweeps.scenarios import BenchContext
from repro.data.fixtures import (  # noqa: F401 - re-exported for figures
    N_QUERIES,
    SECONDS_PER_IO,
    SWEEP_FANOUT,
    SWEEP_SIZES,
    build_covertype_system,
    covertype_predicates,
    sweep_config,
)


def print_table(title: str, headers: list[str], rows: list[list]) -> None:
    """Print one paper-figure table (the bench runner's own layout)."""
    print("\n" + format_table(title, headers, rows))


@pytest.fixture(scope="session")
def bench_context():
    """The runner's default context — seed 7, ``SWEEP_SIZES``,
    ``N_QUERIES`` — whose sweep systems every figure and ablation shares."""
    return BenchContext()


@pytest.fixture(scope="session")
def covertype_system():
    """The CoverType twin (Figures 14, 15, 16)."""
    return build_covertype_system()
