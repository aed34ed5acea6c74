"""Which product functions does no entry point reach?

Runs every entry point of the repository, each in its own subprocess under a
profiler (``sys.setprofile`` + ``threading.setprofile``, call events only),
and prints every function under ``src/repro`` that none of them called, by
module, with its line count.  The entry points are the five ``examples/``,
``repro.serve --smoke | --health``, ``repro.audit`` (clean, two of CI's crash
variants, ``--json``), ``repro.backup create | restore | restore --to-lsn
40``, the five sweeps at CI's flags, ``benchmarks/e2e/run.py --quick`` on
all four workloads at ``--trace 0`` and ``1`` (driven directly: the
``python -m benchmarks.e2e`` driver runs workloads in child processes a
parent-side profiler never sees) and ``pytest benchmarks
--ignore=benchmarks/e2e``.  Tier-1 is not an entry point: a function only
the tests call is what this looks for.

A function is keyed by its file and first line (its first decorator's, as
the code object has it).  A function nested in an unreached function is
counted with it, not again.  Run from the repository root::

    PYTHONPATH=src python -m benchmarks.census

About 18 minutes on a 2-core host, 12 of them the figure benches, so CI
does not run it.
"""

from __future__ import annotations

import ast
import json
import os
import subprocess
import sys
import tempfile
import threading
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "repro"
E2E_WORKLOADS = ("sig_fit", "sig_spill", "routed_zipf", "mixed_rw")
# The five sweeps and their flags as .github/workflows/ci.yml runs them.
CI_SWEEPS = {
    "figures": ["--figures", "fig06,fig08,fig09,fig10,fig13", "--sizes", "2000,5000",
                "--queries", "3", "--seed", "7"],
    "serving": [], "durability": [], "routing": [], "kernels": [],
}


def entry_points(scratch: str) -> list[tuple[str, str, str, list[str]]]:
    """``(label, kind, target, argv)``; kind is module, script or pytest."""
    points = [
        (f"examples/{name}", "script", str(ROOT / "examples" / name), [])
        for name in sorted(os.listdir(ROOT / "examples")) if name.endswith(".py")
    ]
    points += [(f"serve {flag}", "module", "repro.serve", [flag])
               for flag in ("--smoke", "--health")]
    for argv in (
        [],
        ["--crash-op", "write", "--crash-tag", "rtree", "--crash-after", "3"],
        ["--crash-op", "allocate", "--crash-tag", "pcube:sig", "--crash-after", "2"],
        ["--json"],
    ):
        points.append((" ".join(["audit", *argv]), "module", "repro.audit", argv))
    for argv in (["create"], ["restore"], ["restore", "--to-lsn", "40"]):
        points.append((" ".join(["backup", *argv]), "module", "repro.backup", argv))
    for sweep, flags in CI_SWEEPS.items():
        argv = [sweep, *flags, "--out", os.path.join(scratch, f"{sweep}.json")]
        points.append((f"sweeps {sweep}", "module", "benchmarks.sweeps", argv))
    for workload in E2E_WORKLOADS:
        for trace in ("0", "1"):
            argv = ["--workload", workload, "--seed", "7", "--seconds", "1",
                    "--trace", trace, "--quick"]
            points.append((f"e2e {workload} --trace {trace}", "script",
                           str(ROOT / "benchmarks" / "e2e" / "run.py"), argv))
    points.append(("pytest benchmarks", "pytest", str(ROOT / "benchmarks"),
                   ["--ignore", str(ROOT / "benchmarks" / "e2e"), "-q",
                    "-p", "no:cacheprovider"]))
    return points


def _child(out: str, kind: str, target: str, argv: list[str]) -> int:
    """Run one entry point under the profiler; write what it called."""
    import runpy

    codes: dict[int, object] = {}

    def profile(frame, event, arg):
        if event == "call":
            codes[id(frame.f_code)] = frame.f_code

    status: object = 0
    threading.setprofile(profile)
    sys.setprofile(profile)
    try:
        if kind == "pytest":
            import pytest

            status = pytest.main([target, *argv])
        else:
            sys.argv = [target, *argv]
            if kind == "module":
                runpy.run_module(target, run_name="__main__", alter_sys=True)
            else:
                runpy.run_path(target, run_name="__main__")
    except SystemExit as exc:
        status = exc.code
    finally:
        sys.setprofile(None)
        threading.setprofile(None)
    called = {
        (os.path.realpath(code.co_filename), code.co_firstlineno)
        for code in codes.values()
    }
    src = str(SRC.resolve()) + os.sep
    with open(out, "w") as fh:
        json.dump(sorted(key for key in called if key[0].startswith(src)), fh)
    return 0 if status in (0, None) else 1


def product_functions() -> list[dict]:
    """Every ``def`` under ``src/repro``: module, name, first line, lines,
    and the first line of the function it is nested in (if any)."""
    found = []
    for path in sorted(SRC.rglob("*.py")):
        module = str(path.relative_to(SRC.parent))
        tree = ast.parse(path.read_text())

        def visit(node, prefix: str, outer: int | None) -> None:
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                    found.append({
                        "file": os.path.realpath(path), "module": module,
                        "name": prefix + child.name, "line": first,
                        "lines": child.end_lineno - first + 1, "outer": outer,
                    })
                    visit(child, f"{prefix}{child.name}.", first)
                elif isinstance(child, ast.ClassDef):
                    visit(child, f"{prefix}{child.name}.", outer)
                else:
                    visit(child, prefix, outer)

        visit(tree, "", None)
    return found


def unreached_functions(functions: list[dict], reached: set) -> list[dict]:
    """The unreached functions, less those nested in an unreached one."""
    missed = {(f["file"], f["line"]) for f in functions} - reached
    return [f for f in functions if (f["file"], f["line"]) in missed
            and (f["outer"] is None or (f["file"], f["outer"]) not in missed)]


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["--child"]:  # one entry point, run by the parent below
        out, kind, target, *rest = argv[1:]
        return _child(out, kind, target, rest)
    if argv:
        sys.exit("usage: python -m benchmarks.census")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (
        str(ROOT / "src"), str(ROOT), os.environ.get("PYTHONPATH")))))
    reached: set[tuple[str, int]] = set()
    failed = []
    with tempfile.TemporaryDirectory() as scratch:
        points = entry_points(scratch)
        for index, (label, kind, target, rest) in enumerate(points):
            out = os.path.join(scratch, f"called_{index}.json")
            print(f"[{index + 1}/{len(points)}] {label}", file=sys.stderr, flush=True)
            done = subprocess.run(
                [sys.executable, "-m", "benchmarks.census", "--child", out, kind,
                 target, *rest],
                cwd=ROOT, env=env, capture_output=True, text=True,
            )
            if done.returncode != 0 or not os.path.exists(out):
                failed.append(label)
                print(done.stdout[-2000:] + done.stderr[-2000:], file=sys.stderr)
            if os.path.exists(out):
                with open(out) as fh:
                    reached.update(tuple(key) for key in json.load(fh))

    functions = product_functions()
    unreached = unreached_functions(functions, reached)
    by_module: dict[str, list[dict]] = defaultdict(list)
    for f in unreached:
        by_module[f["module"]].append(f)
    total = sum(f["lines"] for f in unreached)
    print(f"census: {len(points)} entry points, {len(functions)} product functions; "
          f"{len(unreached)} unreached ({total} lines)")
    for module in sorted(by_module):
        rows = by_module[module]
        print(f"\n{module}: {len(rows)} functions, {sum(f['lines'] for f in rows)} lines")
        for f in rows:
            print(f"  {f['line']:>5}  {f['name']}  ({f['lines']} lines)")
    if failed:
        print(f"\nentry points that failed: {', '.join(failed)}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
