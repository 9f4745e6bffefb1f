"""Generic supervised training loop used across the experiment harness."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional

import numpy as np

from ..nn import functional as F
from ..nn.module import Module
from ..nn.optim import Adam, CosineLR, Optimizer, SGD
from ..nn.train_graph import train_step_fn
from .evaluate import evaluate_accuracy


@dataclass
class FitResult:
    """Per-epoch training history."""

    train_loss: List[float] = field(default_factory=list)
    val_accuracy: List[float] = field(default_factory=list)

    @property
    def final_val_accuracy(self) -> Optional[float]:
        return self.val_accuracy[-1] if self.val_accuracy else None


def fit(model: Module, x_train: np.ndarray, y_train: np.ndarray,
        epochs: int = 10, batch_size: int = 64, lr: float = 0.01,
        momentum: float = 0.9, weight_decay: float = 1e-4,
        optimizer: Optional[Optimizer] = None,
        x_val: Optional[np.ndarray] = None, y_val: Optional[np.ndarray] = None,
        augment: Optional[Callable[[np.ndarray, np.random.Generator], np.ndarray]] = None,
        cosine: bool = True, seed: int = 0,
        log_fn: Optional[Callable[[str], None]] = None) -> FitResult:
    """Train ``model`` with softmax cross-entropy.

    Deterministic for a given ``seed``.  Pass an ``augment`` callable
    (e.g. :func:`repro.data.transforms.augment_batch`) to enable data
    augmentation; it receives (batch, rng).

    Full-size batches run through a compiled train-step program
    (:func:`repro.nn.train_graph.compile_train_step`) when the model
    supports it — validated at compile time to produce bit-identical
    parameters, so results do not depend on whether compilation
    succeeded.  The ragged tail batch (and everything, when compilation
    falls back) uses the eager tape
    (:func:`repro.nn.train_graph.train_step_fn`).
    """
    rng = np.random.default_rng(seed)
    opt = optimizer if optimizer is not None else SGD(
        model.parameters(), lr=lr, momentum=momentum, weight_decay=weight_decay)
    sched = CosineLR(opt, t_max=epochs) if cosine and optimizer is None else None
    n = len(x_train)
    model.train()
    nb = min(batch_size, n)
    step = train_step_fn(model, F.cross_entropy, x_train[:nb], y_train[:nb],
                         opt, log_fn)
    result = FitResult()
    for epoch in range(epochs):
        model.train()
        order = rng.permutation(n)
        total = 0.0
        for start in range(0, n, batch_size):
            idx = order[start:start + batch_size]
            xb = x_train[idx]
            if augment is not None:
                xb = augment(xb, rng)
            total += step(xb, y_train[idx]) * len(idx)
        result.train_loss.append(total / n)
        if x_val is not None:
            acc = evaluate_accuracy(model, x_val, y_val)
            result.val_accuracy.append(acc)
            if log_fn:
                log_fn(f"epoch {epoch}: loss={total / n:.4f} val_acc={acc:.3f}")
        elif log_fn:
            log_fn(f"epoch {epoch}: loss={total / n:.4f}")
        if sched is not None:
            sched.step()
        model.eval()
    return result
