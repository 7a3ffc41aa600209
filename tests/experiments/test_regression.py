"""Tests for the benchmark-trajectory regression gate."""

import copy
import json
import math
from pathlib import Path

from repro.experiments.regression import compare_directories, compare_payloads, render_report

REPO_ROOT = Path(__file__).resolve().parent.parent.parent
BASELINES = REPO_ROOT / "benchmarks" / "baselines"


def payload(name="demo", *, solved_rate=1.0, messages=1000, runs=4):
    return {
        "benchmark": name,
        "python": "3.11.7",
        "suite": {
            "runs": runs,
            "errors": 0,
            "solved_rate": solved_rate,
            "wall_time": 1.23,
            "groups": [
                {
                    "key": "g1",
                    "runs": runs,
                    "errors": 0,
                    "solved": runs,
                    "solved_rate": solved_rate,
                    "total_messages": messages,
                    "mean_messages": messages / runs,
                    "mean_latency": 12.5,
                    "median_latency": 12.0,
                    "p95_latency": 14.0,
                    "wall_time": 0.5,
                }
            ],
        },
    }


class TestComparePayloads:
    def test_identical_payloads_pass(self):
        report = compare_payloads("demo", payload(), payload())
        assert report.ok
        assert report.deltas  # metrics were actually compared
        assert all(delta.within for delta in report.deltas)

    def test_wall_times_are_never_compared(self):
        fresh = payload()
        fresh["suite"]["wall_time"] = 999.0
        fresh["suite"]["groups"][0]["wall_time"] = 999.0
        assert compare_payloads("demo", payload(), fresh).ok

    def test_message_drift_is_a_violation(self):
        # Exact by default: a single extra message is drift.
        report = compare_payloads("demo", payload(messages=1000), payload(messages=1001))
        assert not report.ok
        drifted = {(delta.location, delta.metric) for delta in report.violations}
        assert ("group['g1']", "total_messages") in drifted
        assert ("group['g1']", "mean_messages") in drifted

    def test_solved_rate_drift_is_a_violation(self):
        report = compare_payloads("demo", payload(solved_rate=1.0), payload(solved_rate=0.75))
        assert any(delta.metric == "solved_rate" for delta in report.violations)

    def test_non_finite_metric_is_drift_even_against_itself(self):
        # Plain == would pass inf vs inf; the gate must not.
        for value in (math.nan, math.inf):
            report = compare_payloads("demo", payload(solved_rate=value), payload(solved_rate=value))
            assert any(delta.metric == "solved_rate" for delta in report.violations)

    def test_sub_epsilon_float_drift_is_a_violation(self):
        # No hidden slack: a drift far below any float rounding noise still fails.
        report = compare_payloads("demo", payload(solved_rate=0.5), payload(solved_rate=0.5 + 1e-15))
        assert [delta.metric for delta in report.violations] == ["solved_rate", "solved_rate"]

    def test_int_and_equal_float_compare_equal(self):
        fresh = payload()
        fresh["suite"]["runs"] = 4.0
        assert compare_payloads("demo", payload(runs=4), fresh).ok

    def test_metric_absent_on_both_sides_passes(self):
        baseline, fresh = payload(), payload()
        del baseline["suite"]["errors"], fresh["suite"]["errors"]
        assert compare_payloads("demo", baseline, fresh).ok

    def test_metric_appearing_is_a_violation(self):
        baseline = payload()
        baseline["suite"]["groups"][0]["mean_latency"] = None
        report = compare_payloads("demo", baseline, payload())
        assert [delta.metric for delta in report.violations] == ["mean_latency"]
        assert report.violations[0].drift is None

    def test_group_wall_time_is_not_gated(self):
        baseline, fresh = payload(), payload()
        baseline["suite"]["groups"][0]["wall_time"] = 1.0
        fresh["suite"]["groups"][0]["wall_time"] = 9.0
        report = compare_payloads("demo", baseline, fresh)
        assert report.ok
        assert all(delta.metric != "wall_time" for delta in report.deltas)

    def test_metric_disappearing_is_a_violation(self):
        fresh = payload()
        fresh["suite"]["groups"][0]["mean_latency"] = None
        report = compare_payloads("demo", payload(), fresh)
        assert any(delta.metric == "mean_latency" for delta in report.violations)

    def test_group_set_mismatch_is_a_structural_problem(self):
        fresh = payload()
        fresh["suite"]["groups"][0] = dict(fresh["suite"]["groups"][0], key="other")
        report = compare_payloads("demo", payload(), fresh)
        assert not report.ok
        assert any("group sets differ" in problem for problem in report.problems)

    def test_render_report_marks_drift(self):
        report = compare_payloads("demo", payload(messages=1000), payload(messages=2000))
        text = render_report(report)
        assert "DRIFT" in text and "total_messages" in text
        # The violations-only view hides the matching metrics entirely.
        filtered = render_report(report, only_violations=True)
        assert "| ok " not in filtered and "DRIFT" in filtered


class TestCompareDirectories:
    def _write(self, directory, name, data):
        directory.mkdir(parents=True, exist_ok=True)
        (directory / f"BENCH_{name}.json").write_text(json.dumps(data))

    def test_matching_directories_pass(self, tmp_path):
        self._write(tmp_path / "base", "demo", payload())
        self._write(tmp_path / "fresh", "demo", payload())
        report = compare_directories(tmp_path / "base", tmp_path / "fresh")
        assert report.ok

    def test_missing_baseline_fails(self, tmp_path):
        self._write(tmp_path / "base", "demo", payload())
        self._write(tmp_path / "fresh", "demo", payload())
        self._write(tmp_path / "fresh", "brand_new", payload("brand_new"))
        report = compare_directories(tmp_path / "base", tmp_path / "fresh")
        assert not report.ok
        assert any("no committed baseline" in problem for problem in report.problems)

    def test_unmatched_baseline_is_informational_only(self, tmp_path):
        self._write(tmp_path / "base", "demo", payload())
        self._write(tmp_path / "base", "not_run_in_ci", payload("not_run_in_ci"))
        self._write(tmp_path / "fresh", "demo", payload())
        report = compare_directories(tmp_path / "base", tmp_path / "fresh")
        assert report.ok
        assert report.unmatched_baselines == ["BENCH_not_run_in_ci.json"]

    def test_empty_fresh_directory_fails(self, tmp_path):
        self._write(tmp_path / "base", "demo", payload())
        (tmp_path / "fresh").mkdir()
        report = compare_directories(tmp_path / "base", tmp_path / "fresh")
        assert not report.ok

    def test_corrupt_fresh_trajectory_fails(self, tmp_path):
        self._write(tmp_path / "base", "demo", payload())
        (tmp_path / "fresh").mkdir()
        (tmp_path / "fresh" / "BENCH_demo.json").write_text("{not json")
        report = compare_directories(tmp_path / "base", tmp_path / "fresh")
        assert not report.ok

    def test_non_object_trajectory_is_a_structural_problem(self, tmp_path):
        self._write(tmp_path / "base", "demo", payload())
        self._write(tmp_path / "fresh", "demo", [payload()])
        report = compare_directories(tmp_path / "base", tmp_path / "fresh")
        assert not report.ok and report.deltas == []
        assert any("not a JSON object" in problem for problem in report.problems)

    def test_render_report_lists_problems_and_unmatched_baselines(self, tmp_path):
        self._write(tmp_path / "base", "demo", payload())
        self._write(tmp_path / "base", "not_run_in_ci", payload("not_run_in_ci"))
        self._write(tmp_path / "fresh", "demo", payload())
        self._write(tmp_path / "fresh", "brand_new", payload("brand_new"))
        text = render_report(compare_directories(tmp_path / "base", tmp_path / "fresh"))
        assert "PROBLEM: BENCH_brand_new.json: no committed baseline" in text
        assert "note: baseline BENCH_not_run_in_ci.json has no fresh trajectory" in text


class TestCommittedBaselines:
    """The committed baseline set must gate cleanly against itself."""

    def test_baselines_exist(self):
        assert sorted(BASELINES.glob("BENCH_*.json")), "committed baselines are missing"

    def test_baselines_pass_against_themselves(self):
        report = compare_directories(BASELINES, BASELINES)
        assert report.ok, render_report(report, only_violations=True)

    def test_injected_drift_on_a_real_baseline_fails(self, tmp_path):
        fresh = tmp_path / "fresh"
        fresh.mkdir()
        for path in BASELINES.glob("BENCH_*.json"):
            (fresh / path.name).write_text(path.read_text())
        victim = fresh / "BENCH_fig4_cupft.json"
        data = json.loads(victim.read_text())
        mutated = copy.deepcopy(data)
        mutated["suite"]["groups"][0]["total_messages"] += 1
        victim.write_text(json.dumps(mutated))
        report = compare_directories(BASELINES, fresh)
        assert not report.ok
        assert any(delta.metric == "total_messages" for delta in report.violations)
