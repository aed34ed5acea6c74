"""The caller census: how it keys functions, what it counts as unreached,
and what one profiled child run records."""

from __future__ import annotations

import json
import os
import subprocess
import sys

from benchmarks import census
from repro.cube.schema import Schema
from repro.rtree import geometry
from repro.rtree.geometry import Rect


def _key(function) -> tuple[str, int]:
    code = function.__code__
    return os.path.realpath(code.co_filename), code.co_firstlineno


def test_a_function_is_keyed_as_its_code_object_is():
    """The profiler sees code objects; the census's ``(file, line)`` for a
    plain function, a classmethod and a property must be theirs."""
    found = {
        (f["module"], f["name"]): (f["file"], f["line"])
        for f in census.product_functions()
    }
    module = "repro/rtree/geometry.py"
    assert found[(module, "dominates")] == _key(geometry.dominates)
    assert found[(module, "Rect.from_point")] == _key(Rect.from_point.__func__)
    assert found[("repro/cube/schema.py", "Schema.n_preference")] == _key(
        Schema.n_preference.fget
    )


def test_a_function_nested_in_an_unreached_function_is_counted_once():
    outer = {"file": "m.py", "line": 1, "outer": None}
    inner = {"file": "m.py", "line": 2, "outer": 1}
    lone = {"file": "m.py", "line": 9, "outer": None}
    functions = [outer, inner, lone]
    assert census.unreached_functions(functions, set()) == [outer, lone]
    # A reached outer function's unreached closure is listed on its own.
    assert census.unreached_functions(functions, {("m.py", 1)}) == [inner, lone]
    assert census.unreached_functions(
        functions, {("m.py", 1), ("m.py", 2), ("m.py", 9)}
    ) == []


def test_a_child_run_records_the_product_functions_it_called(tmp_path):
    script = tmp_path / "entry.py"
    script.write_text(
        "from repro.rtree.geometry import dominates\n"
        "assert dominates((1, 1), (2, 2))\n"
    )
    out = tmp_path / "called.json"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(census.ROOT / "src"), str(census.ROOT)]
    ))
    done = subprocess.run(
        [sys.executable, "-m", "benchmarks.census", "--child", str(out),
         "script", str(script)],
        cwd=census.ROOT, env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    called = {tuple(key) for key in json.loads(out.read_text())}
    assert _key(geometry.dominates) in called
    assert _key(Rect.area) not in called
    src = str(census.SRC.resolve()) + os.sep
    assert all(path.startswith(src) for path, _ in called)
