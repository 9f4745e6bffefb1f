"""Semi-blackbox and blackbox DIVA pipelines (§4.3, §4.4).

Semi-blackbox (Fig 5): the attacker extracts the adapted model from an
edge device, reconstructs a differentiable copy
(:mod:`repro.quantization.extract`), distills a full-precision surrogate
of the *original* model from it, and runs whitebox DIVA on
(surrogate original, true adapted).

Blackbox: the attacker additionally lacks the adapted model's parameters
(prediction access only): a full-precision surrogate is distilled from
the adapted model's predictions, then re-adapted (QAT on the attacker's
data) into a surrogate adapted model; DIVA runs on the two surrogates and
transfers to the true pair.

Both pipelines finish training their surrogates *before* the returned
bundle's ``attack`` runs, so the DIVA instance compiles each (frozen)
surrogate's program on its first gradient batch, drives the pair
through one :class:`~repro.attacks.engine.PairedExecutor` step per
pass and steps at two fused model passes per iteration on the
active-slot scheduler; the bundle's ``attack`` also
exposes ``generate_sweep`` for (eps, c) grids over the surrogate pair.
``Attack.generate`` re-folds the compiled constants on every call, so
reusing a bundle after further finetuning stays correct.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from ..distillation import distill
from ..nn.module import Module
from ..quantization import (QATModel, extract_deployed_model, prepare_qat,
                            qat_finetune)
from ..training.evaluate import predict_labels
from .base import DEFAULT_ALPHA, DEFAULT_EPS, DEFAULT_STEPS
from .diva import DIVA


@dataclass
class SurrogateBundle:
    """Models an attacker reconstructs, plus the DIVA instance over them."""

    surrogate_original: Module
    surrogate_adapted: Optional[Module]
    attack: DIVA


def build_surrogate_original(adapted: Module, template: Module,
                             attacker_images: np.ndarray,
                             pretrained_init: Optional[Module] = None,
                             distill_epochs: int = 8, distill_lr: float = 1e-3,
                             temperature: float = 4.0, alpha: float = 0.7,
                             seed: int = 0,
                             log_fn: Optional[Callable[[str], None]] = None) -> Module:
    """Distill a full-precision surrogate of the original model.

    ``template`` supplies the architecture. Initialization follows §4.3:
    "initialized using the pretrained ImageNet parameters when possible
    or the parameters of the adapted model" — pass ``pretrained_init``
    for the former; otherwise, when the adapted model is a
    :class:`QATModel`, its extracted (dequantized) weights seed the
    student; else the template's fresh weights are used.
    """
    if pretrained_init is not None:
        student = pretrained_init.copy_structure()
    elif isinstance(adapted, QATModel):
        student = extract_deployed_model(adapted, template)
    else:
        student = template.copy_structure()
    return distill(adapted, student, attacker_images, epochs=distill_epochs,
                   lr=distill_lr, temperature=temperature, alpha=alpha,
                   seed=seed, log_fn=log_fn)


def semi_blackbox_diva(adapted: Module, template: Module,
                       attacker_images: np.ndarray, c: float = 1.0,
                       eps: float = DEFAULT_EPS, alpha: float = DEFAULT_ALPHA,
                       steps: int = DEFAULT_STEPS,
                       pretrained_init: Optional[Module] = None,
                       distill_epochs: int = 8, seed: int = 0,
                       log_fn: Optional[Callable[[str], None]] = None
                       ) -> SurrogateBundle:
    """Assemble the §4.3 pipeline; the returned bundle's ``attack``
    generates adversarial samples evaluated against the *true* models."""
    surrogate = build_surrogate_original(
        adapted, template, attacker_images, pretrained_init=pretrained_init,
        distill_epochs=distill_epochs, seed=seed, log_fn=log_fn)
    attack = DIVA(surrogate, adapted, c=c, eps=eps, alpha=alpha, steps=steps)
    return SurrogateBundle(surrogate, None, attack)


def blackbox_diva(adapted_predict_model: Module, template: Module,
                  attacker_images: np.ndarray, attacker_labels: Optional[np.ndarray] = None,
                  c: float = 1.0, eps: float = DEFAULT_EPS,
                  alpha: float = DEFAULT_ALPHA, steps: int = DEFAULT_STEPS,
                  pretrained_init: Optional[Module] = None,
                  distill_epochs: int = 8, qat_epochs: int = 1,
                  weight_bits: int = 8, per_channel: bool = False, seed: int = 0,
                  log_fn: Optional[Callable[[str], None]] = None
                  ) -> SurrogateBundle:
    """Assemble the §4.4 pipeline.

    ``adapted_predict_model`` is used *only* through its predictions
    (distillation queries); its parameters never reach the attack.  The
    surrogate adapted model is produced by re-adapting the surrogate
    original with QAT on the attacker's data, labeled by the deployed
    model's observable predictions.
    """
    if pretrained_init is not None:
        student = pretrained_init.copy_structure()
    else:
        student = template.copy_structure()
    surrogate_orig = distill(adapted_predict_model, student, attacker_images,
                             epochs=distill_epochs, seed=seed, log_fn=log_fn)
    labels = (attacker_labels if attacker_labels is not None else
              predict_labels(adapted_predict_model, attacker_images))
    surrogate_adapted = prepare_qat(surrogate_orig, weight_bits=weight_bits,
                                    per_channel=per_channel)
    qat_finetune(surrogate_adapted, attacker_images, labels,
                 epochs=qat_epochs, lr=0.001, log_fn=log_fn)
    surrogate_adapted.freeze()
    attack = DIVA(surrogate_orig, surrogate_adapted, c=c, eps=eps,
                  alpha=alpha, steps=steps)
    return SurrogateBundle(surrogate_orig, surrogate_adapted, attack)
