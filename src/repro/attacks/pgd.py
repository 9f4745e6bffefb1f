"""PGD (Madry et al.) and Momentum PGD (Dong et al.) — the paper's
primary and secondary baselines.

The baseline configuration follows §5.1: the PGD attack targets *the
adapted model* (the attacker wants the edge device to mispredict);
evasiveness against the original model is whatever transfer happens to
give — which Fig 1 shows is poor, motivating DIVA.

Each class declares its model, the cross-entropy seed, the eager loss
and the success test; :class:`~repro.attacks.base.Attack` runs the
gradient through the compiled executor when the model traces (the eager
tape otherwise), and the logits it produces double as the keep-best
success check — one model pass per step instead of two.
"""

from __future__ import annotations

from typing import Any, Dict, Optional, Tuple

import numpy as np

from ..nn import functional as F
from ..nn.module import Module
from .base import (Attack, DEFAULT_ALPHA, DEFAULT_EPS, DEFAULT_STEPS,
                   softmax_np)


def _ce_sum_seed(logits: np.ndarray, y: np.ndarray) -> np.ndarray:
    """d(sum cross-entropy)/d(logits) = softmax - onehot."""
    seed = softmax_np(logits)
    seed[np.arange(len(y)), y] -= 1.0
    return seed


class PGD(Attack):
    """Projected gradient descent on cross-entropy of the target model."""

    def __init__(self, model: Module, eps: float = DEFAULT_EPS,
                 alpha: float = DEFAULT_ALPHA, steps: int = DEFAULT_STEPS,
                 random_start: bool = False, keep_best: bool = True,
                 seed: int = 0):
        super().__init__(eps, alpha, steps, random_start, keep_best, seed)
        self.model = model
        self.model.eval()

    def serve_signature(self):
        """Merge PGD jobs targeting the same model with the same step
        count (eps/alpha/keep_best are per-item in the scheduler)."""
        return (type(self).__qualname__, id(self.model), self.steps)

    def _models(self):
        return (self.model,)

    def _seeds(self, zs, y, variant):
        return (_ce_sum_seed(zs[0], y),)

    def _eager_loss(self, zs, y, variant):
        return F.cross_entropy(zs[0], y, reduction="sum")

    def success_from_logits(self, zs, y) -> np.ndarray:
        """PGD's own goal: the target model mispredicts."""
        return zs[0].argmax(axis=1) != np.asarray(y)


class MomentumPGD(PGD):
    """PGD with gradient momentum (MI-FGSM).

    Accumulates an L1-normalized gradient moving average; §5.4 evaluates
    it with ``mu = 0.5``.  The velocity is full-batch loop state
    (:meth:`_carry`), so the loop must not shrink the batch as samples
    succeed.
    """

    shrink_done = False

    def __init__(self, model: Module, eps: float = DEFAULT_EPS,
                 alpha: float = DEFAULT_ALPHA, steps: int = DEFAULT_STEPS,
                 mu: float = 0.5, random_start: bool = False,
                 keep_best: bool = True, seed: int = 0):
        super().__init__(model, eps, alpha, steps, random_start, keep_best, seed)
        self.mu = float(mu)

    def gradient_with_logits(self, x_adv: np.ndarray, y: np.ndarray,
                             variant: Optional[Dict[str, np.ndarray]] = None,
                             ) -> Tuple[np.ndarray, Any]:
        """The L1-normalized gradient: one velocity update from rest."""
        g, aux = super().gradient_with_logits(x_adv, y, variant)
        norm = np.abs(g).reshape(len(g), -1).mean(axis=1)
        norm = np.maximum(norm, 1e-12).reshape(-1, *([1] * (g.ndim - 1)))
        return g / norm, aux

    def _carry(self, g: np.ndarray, velocity: Any) -> Tuple[np.ndarray, Any]:
        velocity = self.mu * (0.0 if velocity is None else velocity) + g
        return velocity, velocity
