"""scripts/bench_report.py: perfbench result sets rendered as markdown
tables, with moves beyond the BENCHMARK.json bound flagged."""

import importlib.util
import json
import os

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.fixture(scope="module")
def report():
    spec = importlib.util.spec_from_file_location(
        "bench_report", os.path.join(ROOT, "scripts", "bench_report.py"))
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def _write_runs(directory, workload, runs, trace=0):
    """One result file per ``{metric: value}`` dict in ``runs``."""
    units = {"work_per_s": "1/s", "p50_ms": "ms", "peak_rss_mb": "MB"}
    os.makedirs(directory, exist_ok=True)
    for i, values in enumerate(runs):
        res = {"workload": workload, "trace": trace,
               "end_to_end": {k: {"unit": units[k], "value": v}
                              for k, v in values.items()},
               "named": {"rows_per_s": {"unit": "1/s",
                                        "value": values["work_per_s"]}}}
        with open(os.path.join(directory, f"{workload}-{trace}-{i}.json"),
                  "w") as fh:
            json.dump(res, fh)


def _sets(tmp_path, rss_b, rate_b):
    a, b = str(tmp_path / "parent"), str(tmp_path / "change")
    _write_runs(a, "edge_int8", [
        {"work_per_s": 5000 + d, "p50_ms": 50 - d / 100, "peak_rss_mb": 212}
        for d in (-20, 0, 20)])
    _write_runs(b, "edge_int8", [
        {"work_per_s": rate_b + d, "p50_ms": 50 - d / 100,
         "peak_rss_mb": rss_b} for d in (-20, 0, 20)])
    # traced runs are not compared, as in perfbench/compare.py
    _write_runs(b, "edge_int8", [{"work_per_s": 1, "p50_ms": 1e4,
                                  "peak_rss_mb": 1e4}], trace=1)
    return a, b


def _row(lines, metric):
    return next(line for line in lines if line.startswith(f"| `{metric}` |"))


def test_table_flags_moves_beyond_the_bound(report, tmp_path, capsys):
    a, b = _sets(tmp_path, rss_b=106, rate_b=5010)
    assert report.main([a, b, "--labels", "parent,change"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "### edge_int8"
    assert lines[2] == "Runs: parent 3, change 3."
    header = next(line for line in lines if line.startswith("| metric"))
    assert "parent median [q1, q3]" in header and "verdict" in header
    rss = _row(lines, "peak_rss_mb")
    assert "212 [212, 212]" in rss and "106 [106, 106]" in rss
    assert rss.endswith("| **better** |") and "-0.500 (bound 0.1)" in rss
    assert _row(lines, "work_per_s").endswith("| same |")
    assert _row(lines, "~rows_per_s").endswith("| same |")


def test_worse_move_sets_the_exit_status(report, tmp_path, capsys):
    a, b = _sets(tmp_path, rss_b=212, rate_b=3000)
    assert report.main([a, b]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert _row(lines, "work_per_s").endswith("| **worse** |")
    assert "| parent median [q1, q3] | spread | change median" in lines[4]


def test_single_set_has_no_verdicts(report, tmp_path, capsys):
    a, _ = _sets(tmp_path, rss_b=212, rate_b=5000)
    assert report.main([a]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[2] == "Runs: parent 3."
    assert "verdict" not in lines[4]
    assert _row(lines, "p50_ms").count("|") == 5


def test_labels_must_match_the_sets(report, tmp_path):
    a, b = _sets(tmp_path, rss_b=212, rate_b=5000)
    with pytest.raises(SystemExit):
        report.main([a, b, "--labels", "only-one"])
