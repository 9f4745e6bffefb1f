"""Extended experiments: ablations, distilled adaptation, multiseed
aggregation, report rendering."""

import dataclasses
import json
import os

import numpy as np
import pytest

from repro.experiments import ArtifactStore, ExperimentConfig, Pipeline


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    cfg = ExperimentConfig.smoke()
    store = ArtifactStore(str(tmp_path_factory.mktemp("artifacts")))
    return cfg, Pipeline(cfg, store=store)


class TestAblations:
    def test_bits_sweep(self, smoke, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_RESULTS", str(tmp_path))
        cfg, pipe = smoke
        from repro.experiments import exp_ablations
        res = exp_ablations.run_bits(cfg, pipeline=pipe, bit_widths=(8, 4),
                                     verbose=False)
        assert set(res["per_bits"]) == {8, 4}
        for bits, r in res["per_bits"].items():
            assert 0 <= r["instability"] <= 1
            assert 0 <= r["diva_top1"] <= 1

    def test_eps_sweep(self, smoke, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_RESULTS", str(tmp_path))
        cfg, pipe = smoke
        from repro.experiments import exp_ablations
        res = exp_ablations.run_eps(cfg, pipeline=pipe,
                                    eps_values=(8 / 255, 32 / 255),
                                    verbose=False)
        assert "8/255" in res["per_eps"] and "32/255" in res["per_eps"]
        # larger budget cannot reduce PGD's raw attack success
        assert res["per_eps"]["32/255"]["pgd_attack_only"] >= \
            res["per_eps"]["8/255"]["pgd_attack_only"] - 0.05

    def test_keep_best(self, smoke, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_RESULTS", str(tmp_path))
        cfg, pipe = smoke
        from repro.experiments import exp_ablations
        res = exp_ablations.run_keep_best(cfg, pipeline=pipe, verbose=False)
        v = res["variants"]
        assert v["keep-best"]["diva_top1"] >= \
            v["final-iterate"]["diva_top1"] - 1e-9

    def test_per_channel(self, smoke, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_RESULTS", str(tmp_path))
        cfg, pipe = smoke
        from repro.experiments import exp_ablations
        res = exp_ablations.run_per_channel(cfg, pipeline=pipe, verbose=False)
        assert set(res["variants"]) == {"per-tensor", "per-channel"}


class TestDistilledAdaptation:
    def test_runs_and_reports(self, smoke, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_RESULTS", str(tmp_path))
        cfg, pipe = smoke
        from repro.experiments import exp_distilled
        res = exp_distilled.run(cfg, pipeline=pipe, verbose=False)
        for arch, r in res["per_arch"].items():
            assert 0 <= r["student_accuracy"] <= 1
            assert 0 <= r["diva_top1"] <= 1
            # a half-width student diverges much more than quantization
            assert r["instability"] >= 0


class TestMultiseed:
    def test_aggregates_scalars(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_RESULTS", str(tmp_path))
        from repro.experiments.multiseed import run_across_seeds
        calls = []

        def fake_experiment(cfg, pipeline=None, verbose=True):
            calls.append(cfg.seed)
            return {"metric": {"a": cfg.seed + 1.0, "b": 2.0},
                    "table": "ignored"}
        res = run_across_seeds(fake_experiment, ExperimentConfig.smoke(),
                               seeds=(0, 1, 2), name="unit")
        assert calls == [0, 1, 2]
        assert np.isclose(res.mean["metric.a"], 2.0)
        assert np.isclose(res.std["metric.b"], 0.0)
        assert "metric.a" in res.table()

    def test_saves_results(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_RESULTS", str(tmp_path))
        import importlib
        from repro.experiments import multiseed, tables
        importlib.reload(tables)
        importlib.reload(multiseed)
        multiseed.run_across_seeds(
            lambda cfg, pipeline=None, verbose=True: {"x": 1.0},
            ExperimentConfig.smoke(), seeds=(0,), name="unit2")
        assert os.path.exists(os.path.join(str(tmp_path),
                                           "multiseed_unit2.json"))


def _per_arch(d):
    return {a: json.loads(json.dumps(d))
            for a in ("resnet", "mobilenet", "densenet")}


def _set(path, value):
    """Mutator that sets one nested key of a payload."""
    def mutate(payload):
        node = payload
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value
    return mutate


# one payload per report section in which every claim holds
_HOLDING = {
    "table1": lambda: {"architectures": _per_arch({
        "original_accuracy": 0.7, "quantized_accuracy": 0.68,
        "orig_correct_quant_incorrect": 10, "orig_incorrect_quant_correct": 5,
        "deviation_instability": 0.09, "accuracy_ratio": 0.97})},
    "fig1": lambda: {"quadrants": {
        "PGD": {"both_correct": 0.1, "orig_correct_quant_incorrect": 0.3,
                "both_incorrect": 0.6, "orig_incorrect_quant_correct": 0.0},
        "DIVA": {"both_correct": 0.1, "orig_correct_quant_incorrect": 0.8,
                 "both_incorrect": 0.1, "orig_incorrect_quant_correct": 0.0}}},
    "fig2": lambda: {"random_plane_disagreement": 0.1,
                     "diva_plane_disagreement": 0.4},
    "fig4": lambda: {
        "natural": {"quant": {"fraction_near_target": 0.1}},
        "attacked": {"quant": {"fraction_near_target": 0.6},
                     "orig": {"fraction_near_target": 0.2}}},
    "fig6": lambda: {"per_arch": _per_arch({
        "natural_confidence_delta": 0.05,
        "pgd": {"top1_success": 0.4, "confidence_delta": 0.2},
        "diva": {"top1_success": 0.9, "confidence_delta": 0.6},
        "semi_blackbox_diva": {"top1_success": 0.7},
        "blackbox_diva": {"top1_success": 0.5}})},
    "fig6d": lambda: {"curves": {"pgd": [0.3] * 10,
                                 "diva": [0.5 + 0.05 * i for i in range(10)]}},
    "table2": lambda: {t: _per_arch({
        "pgd_attack_only": 1.0, "diva_attack_only": 0.95,
        "diva_c10_attack_only": 0.98, "evasion_cost": 0.05})
        for t in ("quantized", "pruned", "pruned_quantized")},
    "fig7": lambda: {"c_values": [0.0, 0.1, 1.0, 10.0],
                     "per_arch": _per_arch({
                         "diva_top1": [0.0, 0.8, 0.9, 0.7],
                         "diva_attack_only": [0.0, 0.8, 0.95, 1.0],
                         "pgd_top1": 0.4, "best_c": 1.0})},
    "dssim": lambda: {"eps": 0.125, "per_attack": {
        "PGD": {"max_dssim": 0.01, "mean_dssim": 0.005, "max_linf": 0.125,
                "mean_psnr": 30.0},
        "DIVA": {"max_dssim": 0.01, "mean_dssim": 0.004, "max_linf": 0.125,
                 "mean_psnr": 31.0}}},
    "sec54": lambda: {"mean_top1": {"pgd": 0.4, "momentum_pgd": 0.45,
                                    "cw": 0.3}},
    "sec55": lambda: {"attacks": {
        "pgd": {"top1_success": 0.1, "attack_only_success": 0.9,
                "robust_accuracy": 0.2},
        "diva_c1.5": {"top1_success": 0.12, "attack_only_success": 0.85,
                      "robust_accuracy": 0.2}}},
    "fig8": lambda: {t: _per_arch({"instability": 0.2, "pgd": {"top1": 0.6},
                                   "diva": {"top1": 0.9}})
                     for t in ("pruned", "pruned_quantized")},
    "fig10": lambda: {
        "original_accuracy": 0.9, "edge_accuracy": 0.88,
        "pgd": {"top1": 0.3, "topk": 0.1, "confidence_delta": 0.1},
        "diva": {"top1": 0.9, "topk": 0.5, "confidence_delta": 0.5}},
    "targeted": lambda: {"targets_probed": 10, "targets_reachable": 8,
                         "mean_hit_rate": 0.5},
    "ablation_bits": lambda: {"table": "t", "per_bits": {
        "8": {"instability": 0.05, "diva_top1": 0.5},
        "4": {"instability": 0.1, "diva_top1": 0.9}}},
    "ablation_eps": lambda: {"table": "t", "per_eps": {
        "8/255": {"diva_top1": 0.5, "pgd_top1": 0.4, "pgd_attack_only": 0.9},
        "32/255": {"diva_top1": 0.9, "pgd_top1": 0.4, "pgd_attack_only": 1.0},
        "48/255": {"diva_top1": 0.95, "pgd_top1": 0.3,
                   "pgd_attack_only": 1.0}}},
    "ablation_keep_best": lambda: {"table": "t", "variants": {
        "keep-best": {"diva_top1": 0.9},
        "final-iterate": {"diva_top1": 0.7}}},
    "ablation_per_channel": lambda: {"table": "t", "variants": {
        "per-tensor": {"instability": 0.1},
        "per-channel": {"instability": 0.05}}},
    "distilled": lambda: {"table": "t", "per_arch": _per_arch(
        {"diva_top1": 0.9, "pgd_top1": 0.6})},
}

# (section, mutation breaking exactly one claim, that claim's text)
_ONE_CLAIM_FAILS = [
    ("table1", _set(("architectures", "densenet", "accuracy_ratio"), 0.8),
     "keeps >= 90% of the original's accuracy"),
    ("fig1", _set(("quadrants", "DIVA", "both_incorrect"), 0.7),
     "DIVA puts less mass than PGD in 'both incorrect'"),
    ("fig2", _set(("diva_plane_disagreement",), 0.05),
     "planes through DIVA's direction intersect"),
    ("fig4", _set(("attacked", "orig", "fraction_near_target"), 0.7),
     "move at least as far as the original's"),
    ("fig6", lambda p: [d["blackbox_diva"].update(top1_success=0.2)
                        for d in p["per_arch"].values()],
     "blackbox DIVA beats PGD on average (20% vs 40%)"),
    ("fig6", _set(("per_arch", "mobilenet", "pgd", "confidence_delta"), 0.01),
     "PGD's exceeds the natural one"),
    ("fig6d", _set(("curves", "diva"), [0.9] * 5 + [0.95] * 4 + [0.8]),
     "DIVA's final success is at least its midpoint success"),
    ("table2", _set(("pruned_quantized", "resnet", "diva_c10_attack_only"),
                    0.8),
     "at c=10 DIVA's attack-only success is within 12 points of PGD's"),
    ("fig7", _set(("per_arch", "densenet", "diva_top1"),
                  [0.9, 0.8, 0.9, 0.7]),
     "c=0 collapses below the best c"),
    ("dssim", _set(("per_attack", "DIVA", "max_linf"), 0.2),
     "both attacks stay inside the L-inf budget"),
    ("dssim", _set(("per_attack", "DIVA", "mean_dssim"), 0.006),
     "DIVA is no more perceptible than PGD"),
    ("sec54", _set(("mean_top1", "cw"), 0.6), "CW's mean top-1"),
    ("sec55", _set(("attacks", "diva_c1.5", "top1_success"), 0.05),
     "DIVA at its best c reaches at least PGD's"),
    ("fig8", lambda p: [d.update(instability=0.0)
                        for d in p["pruned"].values()],
     "pruning changes predictions"),
    ("fig10", _set(("edge_accuracy",), 0.5),
     "edge int accuracy is within 15 points of fp32"),
    ("targeted", _set(("targets_reachable",), 5),
     "a majority of probed identities are reachable"),
    ("ablation_bits", _set(("per_bits", "4", "diva_top1"), 0.4),
     "DIVA's top-1 at int4"),
    ("ablation_eps", _set(("per_eps", "32/255", "diva_top1"), 0.3),
     "DIVA beats PGD at the configured 32/255"),
    ("ablation_keep_best", _set(("variants", "final-iterate", "diva_top1"),
                                0.95),
     "keep-best DIVA's top-1"),
    ("ablation_per_channel", _set(("variants", "per-channel", "instability"),
                                  0.2),
     "per-tensor instability"),
    ("distilled", _set(("per_arch", "mobilenet", "diva_top1"), 0.5),
     "DIVA's top-1 is at least PGD's"),
]


def _render_one(tmp_path, monkeypatch, name, payload):
    """Render a report from one results file; return its one section."""
    monkeypatch.setenv("REPRO_RESULTS", str(tmp_path))
    with open(os.path.join(str(tmp_path), f"{name}.json"), "w") as f:
        json.dump(payload, f)
    from repro.experiments import report
    sections = report.render_report().split("\n## ")[1:]
    assert len(sections) == 1
    return sections[0]


def _verdict_line(section):
    return next(line for line in section.splitlines()
                if line.startswith("**Shape verdict:**"))


class TestReport:
    def test_renders_from_results(self, tmp_path, monkeypatch):
        payload = {"architectures": {"resnet": {
            "original_accuracy": 0.7, "quantized_accuracy": 0.68,
            "orig_correct_quant_incorrect": 10,
            "orig_incorrect_quant_correct": 5,
            "deviation_instability": 0.09, "total_instability": 0.1,
            "accuracy_ratio": 0.97, "n": 100}}}
        text = _render_one(tmp_path, monkeypatch, "table1", payload)
        assert "Table 1" in text
        assert "70.0%" in text
        assert _verdict_line(text) == "**Shape verdict:** REPRODUCED"

    def test_handles_missing_results(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_RESULTS", str(tmp_path / "empty"))
        from repro.experiments import report
        text = report.render_report()
        assert "EXPERIMENTS" in text   # header renders even with no data

    @pytest.mark.parametrize("name", sorted(_HOLDING))
    def test_every_claim_holding_is_not_partial(self, tmp_path, monkeypatch,
                                                name):
        section = _render_one(tmp_path, monkeypatch, name, _HOLDING[name]())
        assert "PARTIAL" not in _verdict_line(section)
        assert "- [x] " in section and "- [ ] " not in section

    @pytest.mark.parametrize("name,mutate,claim", _ONE_CLAIM_FAILS,
                             ids=[f"{n}-{i}" for i, (n, _, _)
                                  in enumerate(_ONE_CLAIM_FAILS)])
    def test_one_failed_claim_reads_partial_and_is_named(
            self, tmp_path, monkeypatch, name, mutate, claim):
        payload = _HOLDING[name]()
        mutate(payload)
        section = _render_one(tmp_path, monkeypatch, name, payload)
        verdict = _verdict_line(section)
        assert verdict.startswith("**Shape verdict:** PARTIAL — fails: ")
        assert claim in verdict
        assert section.count("- [ ] ") == 1

    def test_smoke_table2_with_zero_pruned_diva_is_partial(self, tmp_path,
                                                           monkeypatch):
        """The `all --smoke` shape: pruned densenet's DIVA attack-only
        rate is 0.0, so Table 2 cannot read REPRODUCED IN SHAPE."""
        payload = _HOLDING["table2"]()
        payload["pruned"]["densenet"].update(diva_attack_only=0.0,
                                             evasion_cost=1.0)
        section = _render_one(tmp_path, monkeypatch, "table2", payload)
        assert "REPRODUCED IN SHAPE" not in section
        assert ("PARTIAL — fails: pruned: DIVA's attack-only success is at "
                "least 50% on every architecture") in section
