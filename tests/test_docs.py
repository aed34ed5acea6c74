"""Every module path DESIGN.md and README.md name exists.

Two forms are checked.  A path with a directory and a ``.py`` suffix
(``repro/core/ops.py``, ``rtree/bulk.py``, ``tests/reference.py``) must
resolve under the repository root, ``src/``, ``src/repro/``, ``tests/`` or
``benchmarks/``.  The system inventory (DESIGN.md §2) names bare files in
parentheses after their package — ``repro/core/`` (`signature.py`, ...) —
and each of those must exist in that package.
"""

from __future__ import annotations

import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DOCS = ("DESIGN.md", "README.md")
SEARCHED = (ROOT, ROOT / "src", ROOT / "src" / "repro", ROOT / "tests", ROOT / "benchmarks")

_PATH = re.compile(r"[\w./-]*/[\w-]+\.py\b")
_ROW = re.compile(r"^\| *\d+ *\|[^|]*\| *`([\w/]+/)` *\(([^)]*)\)", re.M)


def named_paths(doc: str) -> list[tuple[int, str]]:
    """``(line, path)`` for every directory-qualified ``.py`` path."""
    text = (ROOT / doc).read_text()
    return [
        (text.count("\n", 0, match.start()) + 1, match.group(0).lstrip("./"))
        for match in _PATH.finditer(text)
    ]


def inventory_files() -> list[tuple[str, str]]:
    """``(package, entry)`` for each parenthesised entry of DESIGN.md §2."""
    text = (ROOT / "DESIGN.md").read_text()
    section = text[text.index("## 2. System inventory") : text.index("## 3.")]
    return [
        (package, entry)
        for package, listed in _ROW.findall(section)
        for entry in re.findall(r"`([^`]+)`", listed)
    ]


@pytest.mark.parametrize("doc", DOCS)
def test_every_named_module_path_exists(doc):
    missing = [
        f"{doc}:{line}: {path}"
        for line, path in named_paths(doc)
        if not any((base / path).exists() for base in SEARCHED)
    ]
    assert not missing, "\n".join(missing)


def test_every_inventory_file_exists():
    entries = inventory_files()
    assert len(entries) > 40  # the parser still reads the table
    missing = []
    for package, entry in entries:
        base = ROOT / "src" / package if package.startswith("repro/") else ROOT / package
        if not any(base.glob(entry.rstrip("/"))):
            missing.append(f"{package}{entry}")
    assert not missing, missing
