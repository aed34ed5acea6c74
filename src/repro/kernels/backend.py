"""The kernel backend switch: ``REPRO_KERNELS=python|numpy``.

Every batch kernel in :mod:`repro.kernels` has two implementations with
bit-identical results:

* ``python`` — scalar reference loops, one tuple at a time, exactly the
  arithmetic the paper-faithful code has always used;
* ``numpy`` — vectorized block evaluation that accumulates *per dimension
  in the same order* as the scalar loops, so IEEE-754 rounding agrees to
  the last ulp and answers (and counted I/O) are byte-identical.

The backend is resolved lazily from the ``REPRO_KERNELS`` environment
variable (default ``numpy`` when numpy is importable) and can be switched
at runtime with :func:`set_backend` or the :func:`use_backend` context
manager — the differential tests and ``python -m repro.bench kernels``
run both backends in one process.

Switching applies to kernels *created afterwards*: stateful objects such
as :class:`repro.kernels.dominate.DominationBuffer` capture the backend at
construction so a query never changes representation mid-flight.
"""

from __future__ import annotations

import os
import threading
from contextlib import contextmanager
from typing import Iterator

try:  # numpy is a declared dependency, but degrade gracefully without it
    import numpy as np
except ImportError:  # pragma: no cover - exercised only on stripped envs
    np = None  # type: ignore[assignment]

PYTHON = "python"
NUMPY = "numpy"
BACKENDS = (PYTHON, NUMPY)

_lock = threading.Lock()
_backend: str | None = None  # resolved lazily from the environment


def _resolve_default() -> str:
    name = os.environ.get("REPRO_KERNELS", "").strip().lower()
    if not name:
        return NUMPY if np is not None else PYTHON
    return _validate(name)


def _validate(name: str) -> str:
    if name not in BACKENDS:
        raise ValueError(
            f"REPRO_KERNELS must be one of {BACKENDS}, got {name!r}"
        )
    if name == NUMPY and np is None:
        raise RuntimeError(
            "REPRO_KERNELS=numpy requested but numpy is not importable"
        )
    return name


def backend() -> str:
    """The active kernel backend name (``"python"`` or ``"numpy"``)."""
    global _backend
    if _backend is None:
        with _lock:
            if _backend is None:
                _backend = _resolve_default()
    return _backend


def using_numpy() -> bool:
    """Whether block kernels should take their vectorized path."""
    return backend() == NUMPY


def set_backend(name: str) -> str:
    """Switch the process-wide backend; returns the previous one."""
    global _backend
    name = _validate(name.strip().lower())
    with _lock:
        previous = _backend if _backend is not None else _resolve_default()
        _backend = name
    return previous


@contextmanager
def use_backend(name: str) -> Iterator[str]:
    """Temporarily switch backends (differential tests, the ``kernels`` sweep)."""
    previous = set_backend(name)
    try:
        yield backend()
    finally:
        set_backend(previous)
