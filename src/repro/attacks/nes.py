"""Gradient-free DIVA via NES gradient estimation (extension).

The paper's blackbox variant (§4.4) assumes the attacker can *train
surrogates*.  A stricter threat model allows only prediction-probability
queries to the two models (e.g., a scoring API plus a captured device
with no extractable weights).  Natural Evolution Strategies (Ilyas et
al. 2018) estimates the DIVA gradient from antithetic query pairs:

    g ~= 1/(2 n sigma) * sum_i  [L(x + sigma u_i) - L(x - sigma u_i)] u_i

and plugs straight into the same sign-step PGD loop, so the only change
versus whitebox DIVA is where the gradient comes from: the class keeps
only its query estimator (``gradient_with_logits`` returns no logits)
and reads both models' probabilities from one forward-only
:meth:`~repro.attacks.base.Attack.success_logits` pass, compiled when
the pair traces.  Query cost is ``2 * n_samples`` model-pair
evaluations per step.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

import numpy as np

from ..nn.module import Module
from .base import (Attack, DEFAULT_ALPHA, DEFAULT_EPS, DEFAULT_STEPS,
                   softmax_np)


class NESDiva(Attack):
    """Query-only DIVA: NES-estimated gradients of Eq. 5.

    Parameters
    ----------
    original, adapted:
        Models reachable only through probability queries.
    n_samples:
        Antithetic direction pairs per step (queries/step = 2x this).
    sigma:
        Smoothing radius of the NES estimator.
    """

    # the estimator draws noise shaped like the whole batch; shrinking
    # the batch as samples succeed would change the RNG stream and break
    # seeded reproducibility, so NES always steps the full batch
    shrink_done = False

    def __init__(self, original: Module, adapted: Module, c: float = 1.0,
                 n_samples: int = 32, sigma: float = 2.0 / 255.0,
                 eps: float = DEFAULT_EPS, alpha: float = DEFAULT_ALPHA,
                 steps: int = DEFAULT_STEPS, random_start: bool = False,
                 keep_best: bool = True, seed: int = 0):
        super().__init__(eps, alpha, steps, random_start, keep_best, seed)
        self.original = original
        self.adapted = adapted
        self.c = float(c)
        self.n_samples = int(n_samples)
        self.sigma = float(sigma)
        self._rng = np.random.default_rng(seed)
        self.queries = 0          # running query counter (pairs of models)

    def _models(self):
        return (self.original, self.adapted)

    def _loss(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """Per-sample Eq. 5 values from one probability query per model."""
        rows = np.arange(len(x))
        zo, za = self.success_logits(x)
        self.queries += len(x)
        return softmax_np(zo)[rows, y] - self.c * softmax_np(za)[rows, y]

    def gradient_with_logits(self, x_adv: np.ndarray, y: np.ndarray,
                             variant: Optional[Dict[str, np.ndarray]] = None,
                             ) -> Tuple[np.ndarray, None]:
        """The NES estimate; no logits, so success checks pay a forward."""
        n, shape = len(x_adv), x_adv.shape[1:]
        grad = np.zeros_like(x_adv, dtype=np.float64)
        for _ in range(self.n_samples):
            u = self._rng.standard_normal((n,) + shape).astype(x_adv.dtype)
            plus = np.clip(x_adv + self.sigma * u, 0, 1)
            minus = np.clip(x_adv - self.sigma * u, 0, 1)
            delta = self._loss(plus, y) - self._loss(minus, y)
            grad += delta.reshape(-1, *([1] * len(shape))) * u
        grad /= 2 * self.n_samples * self.sigma
        return grad.astype(x_adv.dtype), None

    def success_from_logits(self, zs, y) -> np.ndarray:
        """DIVA's goal: original stays correct AND adapted flips."""
        zo, za = zs
        y = np.asarray(y)
        return (zo.argmax(axis=1) == y) & (za.argmax(axis=1) != y)
