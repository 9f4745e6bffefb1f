"""Experiment configuration.

One frozen dataclass drives every experiment so the whole grid (Table 1
through Fig 10) is reproducible from a single seed, and the artifact
cache can key on the exact configuration.

Scale calibration vs the paper, with its rationale:

- dataset: 20 procedural classes at 16x16 (ImageNet: 1000 @ 224x224),
  difficulty tuned so original-model accuracy and fp32-vs-int8
  instability land in the paper's Table-1 regime;
- adaptation: 4-bit per-tensor weights + 8-bit activations.  The paper
  quantizes ResNet50-class models to int8; divergence accumulated over
  ~50 layers there corresponds to coarser grids on our 8-layer models —
  int4 restores the boundary-offset-to-attack-step ratio the attack
  exploits (int4 is also an edge-deployment width the paper names, §1);
- attack budget: eps=32/255, alpha=4/255 (paper: 8/255, 1/255).  Attack
  power grows with input dimension; 16x16x3 = 768 pixels vs ImageNet's
  150k needs a proportionally larger eps for the baseline PGD to reach
  its paper-level attack-only success (~99%), which it does at this
  setting.  Steps stay at the paper's t=20;
- top-k metric: k=2 of 20 classes (10% of label space) alongside the
  paper's k=5 of 1000 (0.5%); both are reported.
- dtype policy: the config defaults to float64 (the substrate's native
  precision — keeps results directly comparable to earlier runs), and
  ``repro-exp`` runs every experiment at ``cfg.dtype``:
  :class:`~repro.experiments.pipeline.Pipeline` pins the process dtype
  to ``cfg.dtype`` on construction and around every artifact build and
  attack set.  Only ``repro-exp serve``, which builds no pipeline, sets
  the process dtype itself (float32).  ``dtype`` is part of the config,
  flows through the pipeline into training and the attack sets, and
  keys the artifact cache, so mixed-precision artifacts never collide.
  Measured fig6 success-rate deltas between the two dtypes are recorded
  by ``exp_fig6.run_dtype_delta``.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from dataclasses import dataclass, field
from typing import List, Tuple

ARCHITECTURES: Tuple[str, ...] = ("resnet", "mobilenet", "densenet")


@dataclass(frozen=True)
class ExperimentConfig:
    """Full configuration for the reproduction experiment grid."""

    # dataset (ImageNet stand-in)
    num_classes: int = 20
    image_size: int = 16
    noise: float = 0.40
    jitter: float = 0.20
    train_per_class: int = 120
    val_per_class: int = 40
    surrogate_per_class: int = 60

    # models
    width: int = 8
    train_epochs: int = 8
    train_lr: float = 0.02
    batch_size: int = 64

    # quantization adaptation
    weight_bits: int = 4
    act_bits: int = 8
    per_channel: bool = False
    qat_epochs: int = 1
    qat_lr: float = 0.002

    # pruning adaptation
    sparsity: float = 0.67
    prune_epochs: int = 2
    prune_lr: float = 0.005

    # surrogates (semi-blackbox / blackbox)
    distill_epochs: int = 25
    distill_lr: float = 1e-3
    distill_temperature: float = 2.0
    distill_alpha: float = 0.5

    # attack budget
    eps: float = 32.0 / 255.0
    alpha: float = 4.0 / 255.0
    steps: int = 20
    c: float = 1.0
    attack_per_class: int = 6
    topk: int = 2

    # robust training (§5.5) — trained AND attacked at robust_eps (the
    # paper uses one budget throughout §5.5); 16/255 is where minimax
    # training is effective at this model scale (robust acc ~25% vs ~7%
    # undefended, matching the paper's ~22% regime)
    robust_epochs: int = 6
    robust_attack_steps: int = 7
    robust_eps: float = 16.0 / 255.0
    robust_lr: float = 0.01

    # face case study (§6) — the BN-free VGG trunk needs Adam to reach
    # the case study's high-accuracy regime
    face_identities: int = 40
    face_image_size: int = 32
    face_train_per_identity: int = 40
    face_val_per_identity: int = 8
    face_attack_per_identity: int = 3
    face_epochs: int = 18
    face_lr: float = 3e-3
    face_width: int = 8
    face_topk: int = 3
    # the face study quantizes at int8 (exactly the paper's TFLite
    # setting): the fine-grained identity task supplies tight margins,
    # so int8 divergence already carries the attack, and int4 per-tensor
    # would destroy the Adam-trained trunk's accuracy
    face_weight_bits: int = 8
    face_per_channel: bool = False
    face_qat_epochs: int = 2
    face_qat_lr: float = 5e-4

    # digits / Fig 4
    digit_image_size: int = 16
    digit_train_per_class: int = 150
    digit_analysis_per_class: int = 100
    digit_epochs: int = 6
    digit_lr: float = 0.03

    #: numpy dtype every pipeline artifact (training, attacks, eval)
    #: runs in: "float64" (default, reference precision) or "float32"
    #: (deployment precision)
    dtype: str = "float64"

    seed: int = 0

    def cache_key(self, *parts: str) -> str:
        """Stable hash of the config plus a label path (artifact cache key)."""
        payload = json.dumps(dataclasses.asdict(self), sort_keys=True)
        h = hashlib.sha1(payload.encode())
        for p in parts:
            h.update(b"/")
            h.update(str(p).encode())
        return h.hexdigest()[:16]

    @classmethod
    def paper_scale(cls) -> "ExperimentConfig":
        """Default configuration used for EXPERIMENTS.md numbers."""
        return cls()

    @classmethod
    def smoke(cls) -> "ExperimentConfig":
        """Tiny configuration for tests: minutes -> seconds."""
        return cls(
            num_classes=6, image_size=12, train_per_class=40,
            val_per_class=15, surrogate_per_class=15,
            width=4, train_epochs=3, distill_epochs=3,
            qat_epochs=1, prune_epochs=1, steps=10, attack_per_class=4,
            robust_epochs=1, robust_attack_steps=3,
            face_identities=8, face_image_size=16,
            face_train_per_identity=10, face_val_per_identity=4,
            face_attack_per_identity=2, face_epochs=12, face_width=4,
            digit_train_per_class=40, digit_analysis_per_class=20,
            digit_epochs=4,
        )
