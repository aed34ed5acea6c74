"""Self-tests of the end-to-end benchmark (all in ``--quick`` scale).

Run with ``PYTHONPATH=src python -m pytest benchmarks/e2e/tests -q``;
outside tier-1 ``testpaths`` on purpose.
"""

from __future__ import annotations

import argparse
import importlib
import json
import re
from collections import defaultdict
from pathlib import Path

import pytest

from benchmarks.e2e import compare, harness, run
from benchmarks.e2e.metrics import END_TO_END, PER_LAYER, manifest
from benchmarks.e2e.tracing import TARGETS, SpanRecorder
from benchmarks.e2e.workloads import QUICK, WORKLOADS, generate_ops, stream_digest

ROOT = Path(__file__).resolve().parents[3]
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def quick_args(workload: str, trace: int, seed: int = 5) -> argparse.Namespace:
    return argparse.Namespace(
        workload=workload, seed=seed, seconds=10.0, trace=trace, quick=True
    )


def test_manifest_matches_benchmark_json_and_names_are_legal():
    declared = manifest()
    assert json.loads((ROOT / "BENCHMARK.json").read_text()) == declared
    names = [
        entry["name"]
        for group in ("workloads", "end_to_end", "per_layer")
        for entry in declared[group]
    ]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name), name
    assert any(
        m.name == "setup_s" and m.unit == "s" and m.better == "lower"
        for m in END_TO_END
    )
    assert all(m.bound <= 0.25 for m in END_TO_END)


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_quick_run_prints_exactly_the_declared_metrics(workload):
    for trace, declared in ((0, END_TO_END), (1, PER_LAYER)):
        result, details = run.run(quick_args(workload, trace))
        assert result["correct"], details["problems"]
        assert result["failed"] == 0 and result["attempted"] >= 1
        assert list(result["metrics"]) == [m.name for m in declared]
        assert details["comparable"] is False
    assert (run.OUT_DIR / f"trace_{workload}.json").exists()


def test_counted_metrics_repeat_exactly_for_one_seed():
    first, first_details = run.run(quick_args("mixed_rw", 0))
    again, again_details = run.run(quick_args("mixed_rw", 0))
    other, other_details = run.run(quick_args("mixed_rw", 0, seed=6))
    for name in compare.EXACT_METRICS:
        assert first["metrics"][name] == again["metrics"][name]
    for name in compare.EXACT_FIELDS:
        assert first_details[name] == again_details[name]
        assert first_details[name] != other_details[name]


def test_stream_digest_follows_the_seed():
    spec = WORKLOADS["routed_zipf"]
    bench = harness.set_up(spec, QUICK, seed=1)
    try:
        relation = bench.system.relation
        digests = [
            stream_digest(generate_ops(spec, relation, harness.CARDINALITY, seed, 60))
            for seed in (1, 1, 2)
        ]
    finally:
        bench.close()
    assert digests[0] == digests[1] != digests[2]


def _holder(target):
    module_name, _, class_name = target.owner.partition(":")
    module = importlib.import_module(module_name)
    return vars(getattr(module, class_name)) if class_name else vars(module)


@pytest.fixture(scope="module")
def traced_pass():
    """A traced quick pass over mixed_rw, the workload touching every layer."""
    spec = WORKLOADS["mixed_rw"]
    originals = [_holder(target)[target.attr] for target in TARGETS]
    bench = harness.set_up(spec, QUICK, seed=3)
    ops = generate_ops(spec, bench.system.relation, harness.CARDINALITY, 3, 60)
    recorder = SpanRecorder()
    recorder.install()
    try:
        during = [_holder(target)[target.attr] for target in TARGETS]
        result = harness.run_pass(bench, ops, harness.CHECK_STRIDE, recorder)
    finally:
        recorder.uninstall()
        bench.close()
    return originals, during, recorder, result


def test_every_wrapper_is_removed_after_the_traced_pass(traced_pass):
    originals, during, recorder, _ = traced_pass
    assert not recorder.patched
    for target, original, wrapped in zip(TARGETS, originals, during):
        assert wrapped is not original, target
        assert _holder(target)[target.attr] is original, target
    from repro.route import engines

    assert engines.ENGINES["signature"] is engines.run_signature
    assert not hasattr(engines.run_signature, "__wrapped__")


def test_self_times_sum_to_each_root_span(traced_pass):
    _, _, recorder, result = traced_pass
    assert result.failed == 0, result.problems
    self_times = recorder.self_times()
    per_op = defaultdict(float)
    roots = {}
    for span_id, parent, _, start, end, op in recorder.spans:
        per_op[op] += self_times[span_id]
        if parent < 0:
            roots[op] = end - start
    assert len(roots) == result.n_ops
    for op, duration in roots.items():
        assert per_op[op] == pytest.approx(duration, rel=0.01), op


def test_a_corrupted_expected_answer_fails_the_command(monkeypatch, capsys):
    genuine = harness.expected_answer
    monkeypatch.setattr(
        harness, "expected_answer", lambda relation, op: genuine(relation, op) + (-1,)
    )
    code = run.main(
        ["--workload", "sig_fit", "--seed", "5", "--seconds", "10", "--quick"]
    )
    last = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 1
    assert last["correct"] is False and last["failed"] > 0


def _sheet(values: list[float]) -> dict:
    return {
        "comparable": True,
        "workloads": {
            "sig_fit": {
                "runs": [
                    {"seed": i, "end_to_end": {"ops_per_s": v}}
                    for i, v in enumerate(values)
                ]
            }
        },
    }


@pytest.mark.parametrize(
    "after, expected",
    [
        ([100.0, 101.0, 99.0, 100.5], "same"),
        ([80.0, 81.0, 79.0, 80.5], "worse"),
        ([120.0, 121.0, 119.0, 120.5], "better"),
        ([60.0, 100.0, 140.0, 101.0], "unresolved"),
    ],
)
def test_compare_verdicts(after, expected):
    declared = {
        "end_to_end": [
            {"name": "ops_per_s", "unit": "1/s", "better": "higher", "bound": 0.1}
        ]
    }
    before = _sheet([100.0, 100.5, 99.5, 100.2])
    rows = compare.compare(before, _sheet(after), declared)
    assert [row["verdict"] for row in rows] == [expected]
