"""CLI entry point and example-script integrity."""

import importlib.util
import os
import sys

import pytest


class TestCLI:
    def test_registry_covers_every_experiment_module(self):
        from repro.experiments.cli import _registry
        reg = _registry()
        for required in ("table1", "fig1", "fig2", "fig4", "fig6", "fig6d",
                         "table2", "fig7", "dssim", "sec54", "sec55", "fig8",
                         "fig10", "targeted", "ablation-bits", "distilled"):
            assert required in reg, required

    def test_unknown_experiment_rejected(self):
        from repro.experiments.cli import main
        with pytest.raises(SystemExit):
            main(["bogus-experiment"])

    def test_smoke_run_via_cli(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_RESULTS", str(tmp_path / "results"))
        monkeypatch.setenv("REPRO_ARTIFACTS", str(tmp_path / "artifacts"))
        # fresh store bound to the env var
        import repro.experiments.artifacts as artifacts
        monkeypatch.setattr(artifacts, "_STORE", None)
        monkeypatch.setattr(artifacts, "_DEFAULT_ROOT",
                            str(tmp_path / "artifacts"))
        from repro.experiments.cli import main
        assert main(["table1", "--smoke"]) == 0
        assert (tmp_path / "results" / "table1.json").exists()

    def test_report_command(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_RESULTS", str(tmp_path))
        from repro.experiments import report
        out = report.write_report(str(tmp_path / "EXPERIMENTS.md"))
        assert os.path.exists(out)

    def test_serve_replays_recorded_workload(self, tmp_path, capsys):
        """`repro-exp serve --workload <spec.json>` replays the recorded
        workload and asserts bit-parity against sequential runs."""
        from repro.experiments.cli import main
        from repro.serve import mixed_workload_spec, save_workload
        spec = mixed_workload_spec(scale=1)
        spec["steps"] = 2                      # keep the smoke fast
        path = str(tmp_path / "workload.json")
        save_workload(spec, path)
        assert main(["serve", "--workload", path, "--capacity", "32"]) == 0
        out = capsys.readouterr().out
        assert "parity OK" in out and "aggregate throughput" in out

    def test_serve_faults_reports_outcome_breakdown(self, tmp_path, capsys):
        """`repro-exp serve --faults` replays under the chaos injector
        and prints the per-outcome breakdown instead of wall-clock
        parity numbers."""
        from repro.experiments.cli import main
        from repro.serve import mixed_workload_spec, save_workload
        spec = mixed_workload_spec(scale=1)
        spec["steps"] = 2
        path = str(tmp_path / "workload.json")
        save_workload(spec, path)
        assert main(["serve", "--workload", path, "--capacity", "32",
                     "--faults", "--fault-seed", "0",
                     "--deadline-ms", "400"]) == 0
        out = capsys.readouterr().out
        assert "chaos OK" in out and "outcomes" in out
        assert "quarantine trips" in out

    def test_serve_net_loopback_breakdown(self, tmp_path, capsys):
        """`repro-exp serve --net` replays through the socket boundary
        and prints the networked per-outcome breakdown."""
        from repro.experiments.cli import main
        from repro.serve import mixed_workload_spec, save_workload
        spec = mixed_workload_spec(scale=1)
        spec["steps"] = 2
        path = str(tmp_path / "workload.json")
        save_workload(spec, path)
        assert main(["serve", "--workload", path, "--net",
                     "--journal", str(tmp_path / "serve.journal")]) == 0
        out = capsys.readouterr().out
        assert "parity OK" in out
        assert "retried=0" in out and "deduped=0" in out

    def test_serve_net_faults_breakdown(self, tmp_path, capsys):
        """`repro-exp serve --net --net-faults` survives seeded frame
        chaos and reports retried/deduped counts."""
        from repro.experiments.cli import main
        from repro.serve import mixed_workload_spec, save_workload
        spec = mixed_workload_spec(scale=1)
        spec["steps"] = 2
        path = str(tmp_path / "workload.json")
        save_workload(spec, path)
        assert main(["serve", "--workload", path, "--net", "--net-faults",
                     "--net-fault-seed", "0", "--rate", "20"]) == 0
        out = capsys.readouterr().out
        assert "chaos OK" in out and "frame faults" in out
        assert "ok=" in out and "retried=" in out and "deduped=" in out


class TestDocsCheck:
    """The CI docs gate: doctests run and links/anchors resolve."""

    def _load(self):
        import importlib.util
        path = os.path.join(os.path.dirname(os.path.dirname(
            os.path.abspath(__file__))), "scripts", "check_docs.py")
        spec = importlib.util.spec_from_file_location("check_docs", path)
        mod = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(mod)
        return mod

    def test_repo_docs_are_clean(self):
        mod = self._load()
        paths = []
        for pattern in mod.DOC_FILES:
            paths.extend(sorted(mod.ROOT.glob(pattern)))
        assert paths, "doc file globs matched nothing"
        assert mod.check_markdown(paths) == []

    def test_broken_link_and_anchor_detected(self, tmp_path):
        mod = self._load()
        good = tmp_path / "good.md"
        good.write_text("# Real Heading\nbody\n")
        bad = tmp_path / "bad.md"
        bad.write_text("[a](missing.md) [b](good.md#real-heading) "
                       "[c](good.md#no-such-anchor)\n")
        errors = mod.check_markdown([bad])
        assert len(errors) == 2
        assert any("missing.md" in e for e in errors)
        assert any("no-such-anchor" in e for e in errors)

    def test_slugs_match_github_style(self):
        mod = self._load()
        assert mod.github_slug("The `BENCH_<sha>.json` trajectory") == \
            "the-bench_shajson-trajectory"
        assert mod.github_slug("Trace/plan -> validate") == \
            "traceplan---validate"


EXAMPLES_DIR = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "examples")


class TestExamples:
    """Examples must at least import cleanly (full runs are minutes-long;
    the quickstart path is covered by the experiment smoke tests)."""

    @pytest.mark.parametrize("script", [
        "quickstart.py", "face_recognition_attack.py",
        "semi_blackbox_attack.py", "pruning_attack.py",
        "robust_training_defense.py", "edge_deployment.py",
    ])
    def test_example_imports(self, script):
        path = os.path.join(EXAMPLES_DIR, script)
        assert os.path.exists(path), script
        spec = importlib.util.spec_from_file_location(
            f"example_{script[:-3]}", path)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)      # runs top-level imports only
        assert hasattr(module, "main")
