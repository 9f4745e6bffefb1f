"""Surrogate-model construction by knowledge distillation (§4.3, §4.4).

The attacker holds the adapted model (extracted from an edge device) and
a modest unlabeled image pool disjoint from the operator's training data.
``distill`` trains a student to match the teacher's outputs on that pool.

Used twice by the attack pipelines:

- semi-blackbox: teacher = true adapted model, student = full-precision
  clone -> surrogate *original* model;
- blackbox: the distilled full-precision surrogate is additionally
  re-adapted (QAT) to produce a surrogate *adapted* model.
"""

from __future__ import annotations

from typing import Callable, Optional

import numpy as np

from ..nn.module import Module
from ..nn.optim import Adam, Optimizer
from ..nn.train_graph import train_step_fn
from ..training.evaluate import predict_logits
from .losses import distillation_loss


def distill(teacher: Module, student: Module, images: np.ndarray,
            epochs: int = 8, batch_size: int = 64, lr: float = 1e-3,
            temperature: float = 4.0, alpha: float = 0.7,
            optimizer: Optional[Optimizer] = None, seed: int = 0,
            log_fn: Optional[Callable[[str], None]] = None) -> Module:
    """Train ``student`` to imitate ``teacher`` on unlabeled ``images``.

    The teacher is queried once up front (labels + logits are all the
    attacker needs) through a compiled forward replay when the pool is
    large enough to amortize compilation; the student then minimizes the
    KD objective through :func:`repro.nn.train_graph.train_step_fn`: the
    inner loop's full-size batches replay a compiled train-step program
    (bit-identical to the eager tape, which still serves the ragged tail
    batch and any fallback).
    """
    teacher_logits = predict_logits(teacher, images)
    rng = np.random.default_rng(seed)
    opt = optimizer if optimizer is not None else Adam(student.parameters(), lr=lr)
    n = len(images)
    student.train()

    def kd_loss(logits, t_logits):
        return distillation_loss(logits, t_logits, temperature=temperature,
                                 alpha=alpha)

    nb = min(batch_size, n)
    step = train_step_fn(student, kd_loss, images[:nb], teacher_logits[:nb],
                         opt, log_fn)
    for epoch in range(epochs):
        order = rng.permutation(n)
        total = 0.0
        for start in range(0, n, batch_size):
            idx = order[start:start + batch_size]
            total += step(images[idx], teacher_logits[idx]) * len(idx)
        if log_fn:
            log_fn(f"distill epoch {epoch}: loss={total / n:.4f}")
    student.eval()
    return student


def agreement(model_a: Module, model_b: Module, images: np.ndarray,
              batch_size: int = 128) -> float:
    """Fraction of images on which two models predict the same label —
    the fidelity metric for judging surrogate quality."""
    pa = predict_logits(model_a, images, batch_size).argmax(axis=1)
    pb = predict_logits(model_b, images, batch_size).argmax(axis=1)
    return float((pa == pb).mean())
