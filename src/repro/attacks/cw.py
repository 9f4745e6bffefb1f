"""Carlini-Wagner L-inf attack (the §5.4 baseline).

Uses the CW margin loss

    f(x) = max(Z(x)_y - max_{i != y} Z(x)_i, -kappa)

inside the PGD projection loop, the formulation Madry et al. (2018)
adopt for apples-to-apples L-inf comparison (and the hyper-parameter
setup the paper says it follows).  The class declares an analytic
margin-loss seed (tie gradients split evenly, matching the eager
``Tensor.max`` subgradient) next to the eager loss it reproduces;
:class:`~repro.attacks.base.Attack` picks the compiled or eager path and
reuses the pass's logits for the keep-best success check.
"""

from __future__ import annotations

import numpy as np

from ..nn.module import Module
from ..nn.tensor import Tensor
from .base import Attack, DEFAULT_ALPHA, DEFAULT_EPS, DEFAULT_STEPS


def cw_margin_loss(logits: Tensor, y: np.ndarray, kappa: float = 0.0) -> Tensor:
    """Summed CW f6 loss (to be *descended*, i.e. we ascend its negation).

    Positive while the true class still wins; minimized at ``-kappa``
    once the runner-up overtakes by margin ``kappa``.
    """
    y = np.asarray(y)
    true_logit = logits.gather_rows(y)
    # mask out the true class with -inf before taking the runner-up max
    mask = np.zeros(logits.shape, dtype=logits.data.dtype)
    mask[np.arange(len(y)), y] = -np.inf
    other_best = (logits + Tensor(np.nan_to_num(mask, neginf=-1e9))).max(axis=1)
    margin = true_logit - other_best
    return margin.maximum(-kappa).sum()


def _cw_seed(logits: np.ndarray, y: np.ndarray, kappa: float) -> np.ndarray:
    """d(-sum f6)/d(logits), mirroring the eager tape's subgradients."""
    y = np.asarray(y)
    rows = np.arange(len(y))
    masked = logits.copy()
    masked[rows, y] += -1e9
    best = masked.max(axis=1, keepdims=True)
    ties = masked == best
    counts = ties.sum(axis=1, keepdims=True)
    margin = logits[rows, y] - best[:, 0]
    live = (margin >= -kappa).astype(logits.dtype)   # hinge subgradient
    seed = ties * (live[:, None] / counts)           # d(other_best) term
    seed[rows, y] -= live                            # d(true_logit) term
    return seed                                      # = -(e_y - d other)/dz


class CWLinf(Attack):
    """CW margin loss under an L-inf budget via iterated sign steps."""

    def __init__(self, model: Module, eps: float = DEFAULT_EPS,
                 alpha: float = DEFAULT_ALPHA, steps: int = DEFAULT_STEPS,
                 kappa: float = 0.0, random_start: bool = False,
                 keep_best: bool = True, seed: int = 0):
        super().__init__(eps, alpha, steps, random_start, keep_best, seed)
        self.model = model
        self.model.eval()
        self.kappa = float(kappa)

    def serve_signature(self):
        """Merge CW jobs on the same model, step count and margin (the
        kappa hinge shapes every gradient seed, so it must match)."""
        return (type(self).__qualname__, id(self.model), self.steps,
                self.kappa)

    def _models(self):
        return (self.model,)

    def _seeds(self, zs, y, variant):
        return (_cw_seed(zs[0], y, self.kappa),)

    def _eager_loss(self, zs, y, variant):
        # ascend -f: push the true-class margin down
        return -cw_margin_loss(zs[0], y, self.kappa)

    def success_from_logits(self, zs, y) -> np.ndarray:
        """CW's goal: the target model mispredicts."""
        return zs[0].argmax(axis=1) != np.asarray(y)
