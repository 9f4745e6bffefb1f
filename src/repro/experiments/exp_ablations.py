"""Ablations of the reproduction's design choices (the scale rationale is
in the :mod:`repro.experiments.config` docstring).

The paper-scale configuration makes three scale-compensating choices:
4-bit weights (vs the paper's int8 on 50-layer models), eps = 32/255
(vs 8/255 on 224x224 inputs), and best-iterate bookkeeping in the attack
loop.  Each ablation isolates one choice and shows how the headline
result (DIVA evasive success vs PGD) responds:

- ``bits``: weight width sweep — divergence (instability) and DIVA's
  advantage grow as the grid coarsens; int8 on tiny models leaves too
  little boundary offset for *any* attack to separate the models;
- ``eps``: budget sweep — PGD saturates its attack-only success early
  while its evasive success *decays* with budget (more transfer); DIVA's
  evasive success grows;
- ``keep_best``: disabling best-iterate return shows the overshoot
  effect (success found mid-trajectory, lost by step 20);
- ``per_channel``: per-channel weight grids halve the divergence, the
  reason the paper-scale config uses per-tensor at this model size.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from ..attacks import DIVA, PGD
from ..metrics import evaluate_attack, instability_report
from ..quantization import prepare_qat, qat_finetune
from .config import ExperimentConfig
from .pipeline import Pipeline
from .tables import format_table, save_results


def _adapt(pipe: Pipeline, arch: str, weight_bits: int, act_bits: int,
           per_channel: bool):
    """QAT-adapt the cached original with ablated quantization settings."""
    cfg = pipe.cfg

    def build():
        train, _, _ = pipe.datasets()
        q = prepare_qat(pipe.original(arch), weight_bits=weight_bits,
                        act_bits=act_bits, per_channel=per_channel)
        qat_finetune(q, train.x, train.y, epochs=cfg.qat_epochs,
                     batch_size=cfg.batch_size, lr=cfg.qat_lr,
                     rng=np.random.default_rng(cfg.seed + 2))
        q.freeze()
        return q
    key = cfg.cache_key("ablate_quant", arch, str(weight_bits),
                        str(act_bits), str(per_channel))
    return pipe.get_or_build(key, build)


def run_bits(cfg: Optional[ExperimentConfig] = None,
             pipeline: Optional[Pipeline] = None, arch: str = "resnet",
             bit_widths: Sequence[int] = (8, 6, 5, 4, 3),
             verbose: bool = True) -> Dict:
    """Weight-bit-width ablation."""
    cfg = cfg if cfg is not None else ExperimentConfig.paper_scale()
    pipe = pipeline if pipeline is not None else Pipeline(cfg)
    orig = pipe.original(arch)
    _, val, _ = pipe.datasets()

    rows = []
    results: Dict = {"arch": arch, "per_bits": {}}
    for bits in bit_widths:
        quant = _adapt(pipe, arch, bits, cfg.act_bits, cfg.per_channel)
        inst = instability_report(orig, quant, val.x, val.y)
        atk_set = pipe.attack_set([orig, quant], f"ablate-bits-{arch}-{bits}")
        kw = dict(eps=cfg.eps, alpha=cfg.alpha, steps=cfg.steps)
        rd = evaluate_attack(orig, quant, DIVA(orig, quant, c=cfg.c, **kw)
                             .generate(atk_set.x, atk_set.y),
                             atk_set.y, topk=cfg.topk)
        rp = evaluate_attack(orig, quant, PGD(quant, **kw)
                             .generate(atk_set.x, atk_set.y),
                             atk_set.y, topk=cfg.topk)
        results["per_bits"][bits] = {
            "quantized_accuracy": inst.adapted_accuracy,
            "instability": inst.deviation_instability,
            "diva_top1": rd.top1_success_rate,
            "pgd_top1": rp.top1_success_rate,
        }
        rows.append([f"int{bits}", f"{inst.adapted_accuracy:.1%}",
                     f"{inst.deviation_instability:.1%}",
                     f"{rd.top1_success_rate:.1%}", f"{rp.top1_success_rate:.1%}"])
    table = format_table(
        ["Weight width", "Quantized acc", "Instability", "DIVA top-1",
         "PGD top-1"], rows,
        title=f"Ablation — weight bit width ({arch})")
    results["table"] = table
    if verbose:
        print(table)
    save_results("ablation_bits", results)
    return results


def run_eps(cfg: Optional[ExperimentConfig] = None,
            pipeline: Optional[Pipeline] = None, arch: str = "resnet",
            eps_values: Sequence[float] = (8 / 255, 16 / 255, 32 / 255,
                                           48 / 255),
            verbose: bool = True) -> Dict:
    """Attack-budget ablation (alpha scales with eps, steps fixed)."""
    cfg = cfg if cfg is not None else ExperimentConfig.paper_scale()
    pipe = pipeline if pipeline is not None else Pipeline(cfg)
    orig = pipe.original(arch)
    quant = pipe.quantized(arch)
    atk_set = pipe.attack_set([orig, quant], f"ablate-eps-{arch}")

    rows = []
    results: Dict = {"arch": arch, "per_eps": {}}
    # the whole budget grid is two vectorized sweeps (one per attack),
    # each sharing its compiled programs across every eps point
    variants = [{"eps": float(e), "alpha": float(e / 8.0)} for e in eps_values]
    kw0 = dict(eps=eps_values[0], alpha=eps_values[0] / 8.0, steps=cfg.steps)
    diva_advs = DIVA(orig, quant, c=cfg.c, **kw0).generate_sweep(
        atk_set.x, atk_set.y, variants)
    pgd_advs = PGD(quant, **kw0).generate_sweep(atk_set.x, atk_set.y, variants)
    for eps, x_diva, x_pgd in zip(eps_values, diva_advs, pgd_advs):
        rd = evaluate_attack(orig, quant, x_diva, atk_set.y, topk=cfg.topk)
        rp = evaluate_attack(orig, quant, x_pgd, atk_set.y, topk=cfg.topk)
        key = f"{eps * 255:.0f}/255"
        results["per_eps"][key] = {
            "diva_top1": rd.top1_success_rate,
            "pgd_top1": rp.top1_success_rate,
            "pgd_attack_only": rp.attack_only_success_rate,
        }
        rows.append([key, f"{rd.top1_success_rate:.1%}",
                     f"{rp.top1_success_rate:.1%}",
                     f"{rp.attack_only_success_rate:.1%}"])
    table = format_table(
        ["eps", "DIVA top-1", "PGD top-1", "PGD attack-only"], rows,
        title=f"Ablation — attack budget ({arch})")
    results["table"] = table
    if verbose:
        print(table)
    save_results("ablation_eps", results)
    return results


def run_keep_best(cfg: Optional[ExperimentConfig] = None,
                  pipeline: Optional[Pipeline] = None, arch: str = "resnet",
                  verbose: bool = True) -> Dict:
    """Best-iterate bookkeeping ablation."""
    cfg = cfg if cfg is not None else ExperimentConfig.paper_scale()
    pipe = pipeline if pipeline is not None else Pipeline(cfg)
    orig = pipe.original(arch)
    quant = pipe.quantized(arch)
    atk_set = pipe.attack_set([orig, quant], f"ablate-kb-{arch}")
    kw = dict(eps=cfg.eps, alpha=cfg.alpha, steps=cfg.steps)

    rows = []
    results: Dict = {"arch": arch, "variants": {}}
    # keep_best is a scheduler flag, so both bookkeeping variants run in
    # one sweep per attack
    labels = [("keep-best", True), ("final-iterate", False)]
    sweep = [{"keep_best": keep} for _, keep in labels]
    diva_advs = DIVA(orig, quant, c=cfg.c, **kw).generate_sweep(
        atk_set.x, atk_set.y, sweep)
    pgd_advs = PGD(quant, **kw).generate_sweep(atk_set.x, atk_set.y, sweep)
    for (label, _), x_diva, x_pgd in zip(labels, diva_advs, pgd_advs):
        rd = evaluate_attack(orig, quant, x_diva, atk_set.y, topk=cfg.topk)
        rp = evaluate_attack(orig, quant, x_pgd, atk_set.y, topk=cfg.topk)
        results["variants"][label] = {"diva_top1": rd.top1_success_rate,
                                      "pgd_top1": rp.top1_success_rate}
        rows.append([label, f"{rd.top1_success_rate:.1%}",
                     f"{rp.top1_success_rate:.1%}"])
    table = format_table(["Variant", "DIVA top-1", "PGD top-1"], rows,
                         title=f"Ablation — best-iterate return ({arch})")
    results["table"] = table
    if verbose:
        print(table)
    save_results("ablation_keep_best", results)
    return results


def run_per_channel(cfg: Optional[ExperimentConfig] = None,
                    pipeline: Optional[Pipeline] = None,
                    arch: str = "resnet", verbose: bool = True) -> Dict:
    """Per-channel vs per-tensor weight quantization ablation."""
    cfg = cfg if cfg is not None else ExperimentConfig.paper_scale()
    pipe = pipeline if pipeline is not None else Pipeline(cfg)
    orig = pipe.original(arch)
    _, val, _ = pipe.datasets()

    rows = []
    results: Dict = {"arch": arch, "variants": {}}
    for label, per_ch in [("per-tensor", False), ("per-channel", True)]:
        quant = _adapt(pipe, arch, cfg.weight_bits, cfg.act_bits, per_ch)
        inst = instability_report(orig, quant, val.x, val.y)
        atk_set = pipe.attack_set([orig, quant], f"ablate-pc-{arch}-{per_ch}")
        kw = dict(eps=cfg.eps, alpha=cfg.alpha, steps=cfg.steps)
        rd = evaluate_attack(orig, quant, DIVA(orig, quant, c=cfg.c, **kw)
                             .generate(atk_set.x, atk_set.y),
                             atk_set.y, topk=cfg.topk)
        results["variants"][label] = {
            "quantized_accuracy": inst.adapted_accuracy,
            "instability": inst.deviation_instability,
            "diva_top1": rd.top1_success_rate,
        }
        rows.append([label, f"{inst.adapted_accuracy:.1%}",
                     f"{inst.deviation_instability:.1%}",
                     f"{rd.top1_success_rate:.1%}"])
    table = format_table(
        ["Weight grids", "Quantized acc", "Instability", "DIVA top-1"],
        rows, title=f"Ablation — weight grid granularity ({arch})")
    results["table"] = table
    if verbose:
        print(table)
    save_results("ablation_per_channel", results)
    return results
