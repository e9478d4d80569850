"""Tests of the benchmark's output checker and span arithmetic.

    python3 -m pytest perfbench/test_checker.py

The last test runs ``concorso report`` on the L corpus at seed 1 (about
30 s): its regression.json holds bare NaN (ROADMAP item 2), and the checker
must count that run as failed rather than let the benchmark hide it.
"""

from __future__ import annotations

import json
import sys

import checks
import compare
import run
import tracer

SPEC = json.loads(run.SPEC_PATH.read_text())


def test_strict_json_rejects_non_finite_numbers(tmp_path):
    for token in ("NaN", "Infinity", "-Infinity"):
        path = tmp_path / "t.json"
        path.write_text('{"b": %s}' % token)
        assert checks.strict_json_problems(path) == [
            f"t.json: invalid JSON (non-finite number {token})"]
    path = tmp_path / "ok.json"
    path.write_text(json.dumps({"b": 1.5e308, "s": "NaN"}))
    assert checks.strict_json_problems(path) == []


def test_strict_json_names_the_jsonl_line(tmp_path):
    path = tmp_path / "t.jsonl"
    path.write_text('{"a": 1}\n{"a": NaN}\n')
    assert checks.strict_json_problems(path) == [
        "t.jsonl:2: invalid JSON (non-finite number NaN)"]


def test_check_invocation_flags_exit_code_and_missing_files(tmp_path):
    for name in checks.GEN_OUTPUTS:
        (tmp_path / name).write_text("")
    problems, digests = checks.check_invocation(0, tmp_path, "gen")
    assert problems == [] and sorted(digests) == sorted(checks.GEN_OUTPUTS)
    (tmp_path / "taxonomy.csv").unlink()
    problems, _ = checks.check_invocation(3, tmp_path, "gen")
    assert problems == ["exit code 3", "taxonomy.csv missing"]


def test_self_time_subtracts_direct_children_only():
    spans = [["cli.main", 0.0, 10.0, None],
             ["synthgen.generate", 1.0, 7.0, 0],
             ["features.extract_features", 2.0, 3.0, 1],
             ["features.extract_features", 4.0, 6.0, 1]]
    assert tracer.self_times(spans) == {
        "cli.main": (4.0, 1),
        "synthgen.generate": (3.0, 1),
        "features.extract_features": (3.0, 2),
    }


def _record(workload, failed=0, **metrics):
    return {"workload": workload, "seed": 1, "seconds": 50, "trace": 0,
            "digests": {}, "result": {
                "correct": failed == 0, "attempted": 3, "failed": failed,
                "metrics": {k: {"value": v, "unit": "s"} for k, v in metrics.items()}}}


def _write_runs(path, records):
    path.write_text("".join(json.dumps(r) + "\n" for r in records))
    return path


def test_compare_flags_a_workload_or_metric_missing_from_head(tmp_path):
    base = _write_runs(tmp_path / "base.jsonl", [_record("gen-L", wall_s=10.0),
                                                 _record("report-M", wall_s=4.0)])
    assert compare.compare(base, base, SPEC) == 0
    head = _write_runs(tmp_path / "head.jsonl", [_record("gen-L", 1)])
    assert compare.compare(base, head, SPEC) == 1


def test_compare_refuses_runs_of_different_lengths(tmp_path):
    base = _write_runs(tmp_path / "base.jsonl", [_record("gen-L", wall_s=10.0)])
    head = dict(_record("gen-L", wall_s=10.0), seconds=10)
    assert compare.compare(base, _write_runs(tmp_path / "h.jsonl", [head]), SPEC) == 2


def test_failed_set_up_is_reported_as_a_failed_operation(monkeypatch):
    def broken_set_up(self):
        raise RuntimeError("set-up exited 1")
    monkeypatch.setattr(run.Session, "set_up", broken_set_up)
    result = run.run_workload("report-M", 1, 1.0, False, SPEC)["result"]
    assert result == {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}


def test_failed_gen_without_output_is_reported_not_raised(monkeypatch):
    monkeypatch.setattr(run, "CLI", "import sys; sys.exit(1)")
    record = run.run_workload("gen-L", 1, 0.1, False, SPEC)
    result = record["result"]
    assert not result["correct"] and result["failed"] == result["attempted"] >= 1
    assert "records_per_s" not in result["metrics"]
    assert "invocation 1: exit code 1" in record["problems"]


def test_report_on_l_corpus_fails_on_non_finite_regression(tmp_path):
    env = run.child_env()
    corpus, out = tmp_path / "corpus", tmp_path / "out"
    gen = run.run_child([sys.executable, "-c", run.CLI]
                        + run.gen_args(run.WORKLOADS["gen-L"], 1, corpus),
                        env, tmp_path)
    assert gen.code == 0, gen.stderr
    report = run.run_child([sys.executable, "-c", run.CLI, "report",
                            "--input-dir", str(corpus), "--out-dir", str(out)],
                           env, tmp_path)
    problems, _ = checks.check_invocation(report.code, out, "report")
    assert "regression.json: invalid JSON (non-finite number NaN)" in problems
