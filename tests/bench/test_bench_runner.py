"""The reproducible benchmark runner: determinism, schema, gating, CLI.

Everything runs at miniature sizes (hundreds of tuples, 2 queries per
point) — the contract being tested is reproducibility and report shape,
not performance.
"""

from __future__ import annotations

import dataclasses
import json
import random

import pytest

from benchmarks.sweeps import (
    SCENARIOS,
    SWEEPS,
    compare_reports,
    dumps_report,
    flatten_metrics,
    run_benchmarks,
    strip_timings,
)
from benchmarks.sweeps import scenarios
from benchmarks.sweeps.__main__ import main
from repro.data.workload import sample_linear_function, sample_predicate

TINY = dict(figures=["fig06", "fig08", "fig13"], sizes=[300, 600], n_queries=2)


@pytest.fixture(scope="module")
def tiny_report():
    return run_benchmarks(seed=7, **TINY)


class TestDeterminism:
    def test_same_seed_byte_identical_modulo_wall(self, tiny_report):
        again = run_benchmarks(seed=7, **TINY)
        assert dumps_report(strip_timings(tiny_report)) == dumps_report(
            strip_timings(again)
        )

    def test_different_seed_changes_workload(self, tiny_report):
        other = run_benchmarks(seed=8, **TINY)
        assert dumps_report(strip_timings(tiny_report)) != dumps_report(
            strip_timings(other)
        )

    def test_strip_timings_removes_only_timing_fields(self, tiny_report):
        stripped = strip_timings(tiny_report)
        text = dumps_report(stripped)
        assert tiny_report["fields"]["wall_ms"] == "timing"
        assert "wall_ms" not in text
        point = stripped["figures"]["fig08"]["series"]["Signature"][
            "points"
        ][0]
        assert {"x", "io", "heap_peak", "prune_counts", "results"} <= set(
            point
        )


class TestSchema:
    def test_report_envelope(self, tiny_report):
        assert tiny_report["schema"] == "repro.bench/v1"
        assert tiny_report["seed"] == 7
        assert tiny_report["sizes"] == [300, 600]
        assert set(tiny_report["figures"]) == set(TINY["figures"])

    def test_point_shape(self, tiny_report):
        for figure in tiny_report["figures"].values():
            assert figure["series"], figure
            for series in figure["series"].values():
                assert series["points"]
                for point in series["points"]:
                    assert "x" in point
                    if "io" in point:
                        assert "total" in point["io"]
                        assert point["io"]["total"] >= 0

    def test_fig13_x_axis_is_k(self, tiny_report):
        points = tiny_report["figures"]["fig13"]["series"]["Signature"][
            "points"
        ]
        assert [p["x"] for p in points] == [10, 20, 50, 100]

    def test_unknown_figure_rejected(self):
        with pytest.raises(ValueError, match="unknown figures"):
            run_benchmarks(figures=["fig99"], sizes=[100])

    def test_all_scenarios_registered(self):
        assert {"fig05", "fig06", "fig08", "fig09", "fig10", "fig13"} == set(
            SCENARIOS
        )


class TestAnswerCheck:
    """The engines' answers are compared in one place for Figures 8-14:
    a baseline that loses one answer must stop the sweep."""

    @pytest.fixture(scope="class")
    def query(self):
        system = scenarios.BenchContext().system(TINY["sizes"][0])
        rng = random.Random(7)
        predicate = sample_predicate(system.relation, 1, rng)
        fn = sample_linear_function(system.relation.schema.n_preference, rng)
        return system, predicate, fn

    @staticmethod
    def dropping_one(monkeypatch, name):
        engine = getattr(scenarios, name)

        def lossy(*args, **kwargs):
            answer, *rest = engine(*args, **kwargs)
            assert answer, "the query must have an answer to lose"
            return (answer[1:], *rest)

        monkeypatch.setattr(scenarios, name, lossy)

    def test_the_engines_agree(self, query):
        system, predicate, fn = query
        assert set(scenarios.skyline_methods(system, predicate)) == {
            "Signature", "Boolean", "Domination"
        }
        assert set(scenarios.topk_methods(system, fn, 10, predicate)) == {
            "Signature", "Boolean", "Ranking", "IndexMerge"
        }

    @pytest.mark.parametrize(
        "name", ["boolean_first_skyline", "domination_first_skyline"]
    )
    def test_a_dropped_skyline_tid_raises(self, query, monkeypatch, name):
        system, predicate, _ = query
        self.dropping_one(monkeypatch, name)
        with pytest.raises(AssertionError, match="skyline mismatch"):
            scenarios.skyline_methods(system, predicate)

    @pytest.mark.parametrize(
        "name", ["boolean_first_topk", "ranking_topk", "index_merge_topk"]
    )
    def test_a_dropped_topk_tid_raises(self, query, monkeypatch, name):
        system, predicate, fn = query
        self.dropping_one(monkeypatch, name)
        with pytest.raises(AssertionError, match="top-k mismatch"):
            scenarios.topk_methods(system, fn, 10, predicate)


class TestCompare:
    def test_identical_reports_clean(self, tiny_report):
        regressions, notes = compare_reports(
            tiny_report, json.loads(dumps_report(tiny_report))
        )
        assert regressions == []
        assert notes == []

    def test_doctored_baseline_trips_gate(self, tiny_report):
        baseline = json.loads(dumps_report(tiny_report))
        point = baseline["figures"]["fig08"]["series"]["Signature"][
            "points"
        ][0]
        point["io"]["total"] *= 0.5
        regressions, _ = compare_reports(
            tiny_report, baseline, fail_over=10.0
        )
        assert len(regressions) == 1
        assert regressions[0].path.endswith("io.total")
        assert regressions[0].pct > 10.0

    def test_doctored_downward_baseline_trips_gate(self, tiny_report):
        """A cost that halves passes (lower is better); an answer size
        that halves is a different answer and fails, whatever
        ``fail_over`` allows."""
        baseline = json.loads(dumps_report(tiny_report))
        point = baseline["figures"]["fig08"]["series"]["Signature"][
            "points"
        ][0]
        point["io"]["total"] *= 2  # current reads half the baseline's pages
        assert compare_reports(tiny_report, baseline)[0] == []
        point["results"] *= 2  # ... and returns half its results
        regressions, _ = compare_reports(
            tiny_report, baseline, fail_over=1000.0
        )
        assert [delta.path for delta in regressions] == [
            "fig08/Signature/x=300/results"
        ]
        assert regressions[0].pct == pytest.approx(-50.0)

    def test_wall_never_gates(self, tiny_report):
        baseline = json.loads(dumps_report(tiny_report))
        for figure in baseline["figures"].values():
            for series in figure["series"].values():
                for point in series["points"]:
                    if "wall_ms" in point:
                        point["wall_ms"] = 1e-12
        regressions, _ = compare_reports(tiny_report, baseline)
        assert regressions == []

    def test_missing_points_noted_not_failed(self, tiny_report):
        baseline = json.loads(dumps_report(tiny_report))
        del baseline["figures"]["fig13"]
        regressions, notes = compare_reports(tiny_report, baseline)
        assert regressions == []
        assert any("not in baseline" in note for note in notes)

    def test_flatten_gives_dotted_leaves_minus_x(self, tiny_report):
        point = tiny_report["figures"]["fig08"]["series"]["Signature"][
            "points"
        ][0]
        flat = flatten_metrics(point)
        assert "x" not in flat
        assert {"io.total", "prune_counts.pref", "wall_ms"} <= set(flat)


class TestCli:
    def test_list(self, capsys):
        assert main(["--list"]) == 0
        out = capsys.readouterr().out
        assert "fig08" in out and "fig13" in out

    def test_run_writes_report(self, tmp_path, capsys):
        out = tmp_path / "BENCH_pcube.json"
        code = main(
            [
                "--figures",
                "fig06",
                "--sizes",
                "300",
                "--queries",
                "1",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        report = json.loads(out.read_text())
        assert report["schema"] == "repro.bench/v1"
        assert "fig06" in capsys.readouterr().out

    def test_compare_gate_exit_code(self, tmp_path, capsys):
        out = tmp_path / "current.json"
        baseline_path = tmp_path / "baseline.json"
        args = [
            "--figures",
            "fig06",
            "--sizes",
            "300",
            "--queries",
            "1",
            "--quiet",
            "--out",
            str(out),
        ]
        assert main(args) == 0
        baseline = json.loads(out.read_text())
        baseline["figures"]["fig06"]["series"]["P-Cube"]["points"][0][
            "size_mb"
        ] *= 0.2
        baseline_path.write_text(json.dumps(baseline))
        code = main(
            args + ["--compare", str(baseline_path), "--fail-over", "10"]
        )
        assert code == 1
        assert "REGRESSION" in capsys.readouterr().out
        # Without --fail-over the diff is informational only.
        assert main(args + ["--compare", str(baseline_path)]) == 0

    def test_bad_usage(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["--figures", "fig99"])
        assert exc.value.code == 2
        with pytest.raises(SystemExit):
            main(["--fail-over", "5"])  # requires --compare
        assert main(["--compare", str(tmp_path / "absent.json"),
                     "--figures", "fig06", "--sizes", "300",
                     "--queries", "1", "--quiet",
                     "--out", str(tmp_path / "o.json")]) == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ["--fail-over", "nan"],
            ["--fail-over", "inf"],
            ["--fail-over", "-1"],
            ["--figures", ","],
            ["--sizes", ","],
            ["--sizes", "0"],
            ["--sizes", "-50"],
            ["serving", "--serving-threads", "0"],
            ["serving", "--serving-threads", ","],
        ],
        ids=" ".join,
    )
    def test_a_gate_that_would_check_nothing_is_refused(
        self, argv, tmp_path, monkeypatch
    ):
        """Refused before any sweep runs: each of these once ran a sweep
        that compared nothing, passed every cost, or died in a traceback."""

        def never(**options):
            raise AssertionError("the sweep ran")

        for name, sweep in SWEEPS.items():
            monkeypatch.setitem(SWEEPS, name, dataclasses.replace(sweep, run=never))
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--compare", str(tmp_path / "baseline.json"),
                  "--out", str(tmp_path / "o.json")])
        assert exc.value.code == 2

    def test_a_baseline_sharing_no_gated_point_fails(self, tmp_path, capsys):
        out = tmp_path / "current.json"
        baseline_path = tmp_path / "baseline.json"
        args = ["--figures", "fig06", "--sizes", "300", "--queries", "1",
                "--quiet", "--out", str(out)]
        assert main(args) == 0
        baseline = json.loads(out.read_text())
        for series in baseline["figures"]["fig06"]["series"].values():
            for point in series["points"]:
                point["x"] *= 2
        baseline_path.write_text(json.dumps(baseline))
        capsys.readouterr()
        code = main(args + ["--compare", str(baseline_path), "--fail-over", "10"])
        assert code == 2
        captured = capsys.readouterr()
        assert "no regressions" not in captured.out
        assert "shares no gated metric" in captured.err
