"""PGD (Madry et al.) and Momentum PGD (Dong et al.) — the paper's
primary and secondary baselines.

The baseline configuration follows §5.1: the PGD attack targets *the
adapted model* (the attacker wants the edge device to mispredict);
evasiveness against the original model is whatever transfer happens to
give — which Fig 1 shows is poor, motivating DIVA.

The gradient runs through the compiled executor when the model is
traceable (falling back to the eager tape otherwise), and the logits it
produces double as the keep-best success check — one model pass per
step instead of two.
"""

from __future__ import annotations

from typing import Any, Dict, Optional, Tuple

import numpy as np

from ..nn import functional as F
from ..nn.module import Module
from ..nn.tensor import Tensor
from .base import (Attack, DEFAULT_ALPHA, DEFAULT_EPS, DEFAULT_STEPS,
                   input_gradient, softmax_np)


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

    def gradient(self, x_adv: np.ndarray, y: np.ndarray) -> np.ndarray:
        return self.gradient_with_logits(x_adv, y)[0]

    def gradient_with_logits(self, x_adv: np.ndarray, y: np.ndarray,
                             variant: Optional[Dict[str, np.ndarray]] = None,
                             ) -> Tuple[np.ndarray, Any]:
        y = np.asarray(y)
        ex = self._compiled(self.model, x_adv)
        if ex is not None:
            logits, g = ex.value_and_input_grad(
                x_adv, lambda z: _ce_sum_seed(z, y))
            return g, logits
        cap = {}

        def loss(xt: Tensor) -> Tensor:
            z = self.model(xt)
            cap["logits"] = z.data
            return F.cross_entropy(z, y, reduction="sum")
        return input_gradient(loss, x_adv), cap["logits"]

    def success_logits(self, x_adv: np.ndarray, y: np.ndarray) -> Any:
        ex = self._compiled(self.model, x_adv)
        if ex is not None:
            return ex.replay(x_adv, copy=False)
        return self.model(Tensor(x_adv)).data

    def success_from_logits(self, aux: Any, y: np.ndarray) -> Optional[np.ndarray]:
        """PGD's own goal: the target model mispredicts."""
        if aux is None:
            return None
        return aux.argmax(axis=1) != np.asarray(y)

    def is_success(self, x_adv: np.ndarray, y: np.ndarray) -> np.ndarray:
        from ..training.evaluate import predict_labels
        return predict_labels(self.model, x_adv, batch_size=len(x_adv)) != y


class MomentumPGD(PGD):
    """PGD with gradient momentum (MI-FGSM).

    Accumulates an L1-normalized gradient moving average; §5.4 evaluates
    it with ``mu = 0.5``.  The velocity is full-batch state, so the loop
    must not shrink the batch as samples succeed.
    """

    shrink_done = False

    def __init__(self, model: Module, eps: float = DEFAULT_EPS,
                 alpha: float = DEFAULT_ALPHA, steps: int = DEFAULT_STEPS,
                 mu: float = 0.5, random_start: bool = False,
                 keep_best: bool = True, seed: int = 0):
        super().__init__(model, eps, alpha, steps, random_start, keep_best, seed)
        self.mu = float(mu)
        self._velocity = None

    def _init(self, x: np.ndarray) -> np.ndarray:
        self._velocity = np.zeros_like(x)   # reset per batch
        return super()._init(x)

    def gradient_with_logits(self, x_adv: np.ndarray, y: np.ndarray,
                             variant: Optional[Dict[str, np.ndarray]] = None,
                             ) -> Tuple[np.ndarray, Any]:
        g, aux = super().gradient_with_logits(x_adv, y, variant)
        norm = np.abs(g).reshape(len(g), -1).mean(axis=1)
        norm = np.maximum(norm, 1e-12).reshape(-1, *([1] * (g.ndim - 1)))
        self._velocity = self.mu * self._velocity + g / norm
        return self._velocity, aux
