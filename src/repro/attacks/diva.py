"""DIVA — the paper's DIfferential eVasive Attack (§4).

The attack ascends

    L_DIVA(x, y) = p_orig(x)[y] - c * p_adapted(x)[y]           (Eq. 5)

under an L-inf budget.  Raising ``p_orig[y]`` keeps the authoritative
full-precision model confidently correct (evasion); lowering
``p_adapted[y]`` flips the edge model (attack).  ``c`` trades the two
goals (§5.3); the paper's default is ``c = 1``.

The same class powers every threat model: whitebox passes the true
(original, adapted) pair; semi-blackbox passes (surrogate original,
true adapted); blackbox passes (surrogate original, surrogate adapted)
— see :mod:`repro.attacks.surrogate` for the pipelines.

The class declares its (original, adapted) models, the Eq. 5 logit
seeds, the eager loss and the success test; the base class drives both
models as one fused unit through the paired executor
(:mod:`repro.attacks.engine`): the original model's program replays on
the calling thread and the adapted model's on the lane thread, each
with its own scratch arena.  Once both forwards join, their logits are
seeded by a *single* stacked-softmax gradient; once both backwards
join, the adapted model's input gradient is added into the original's —
two model passes per step instead of four, with the logits doubling as
the keep-best success check.  ``c`` may be a per-row vector (sweep
variants, §5.3).  Untraceable models fall back to the eager tape (still
reusing the gradient-pass logits).
"""

from __future__ import annotations

import numpy as np

from ..nn import functional as F
from ..nn.module import Module
from ..nn.tensor import Tensor
from .base import (Attack, DEFAULT_ALPHA, DEFAULT_EPS, DEFAULT_STEPS,
                   softmax_np, softmax_vjp)


def diva_loss(orig_probs: Tensor, adapted_probs: Tensor, y: np.ndarray,
              c=1.0) -> Tensor:
    """Summed Eq. 5 over a batch (``c`` scalar or per-row vector).

    ``c`` is the right operand: with a vector ``c``, ``c * tensor``
    would be numpy's multiply, which cannot take a Tensor.
    """
    y = np.asarray(y)
    return (orig_probs.gather_rows(y) - adapted_probs.gather_rows(y) * c).sum()


class DIVA(Attack):
    """Whitebox DIVA (§4.2): joint ascent over both models' probabilities.

    Parameters
    ----------
    original: the model whose prediction must *not* change (evasion).
    adapted: the model to flip (attack).
    c: Eq. 5 balance hyper-parameter (sweepable per item).
    """

    sweep_params = frozenset({"c"})

    def __init__(self, original: Module, adapted: Module, c: float = 1.0,
                 eps: float = DEFAULT_EPS, alpha: float = DEFAULT_ALPHA,
                 steps: int = DEFAULT_STEPS, random_start: bool = False,
                 keep_best: bool = True, seed: int = 0):
        super().__init__(eps, alpha, steps, random_start, keep_best, seed)
        self.original = original
        self.adapted = adapted
        self.c = float(c)
        self.original.eval()
        self.adapted.eval()

    def serve_signature(self):
        """Merge DIVA jobs over the same (original, adapted) pair and
        step count; ``c`` is a declared sweep param, so it rides the
        per-item parameter vectors and never blocks coalescing."""
        return (type(self).__qualname__, id(self.original),
                id(self.adapted), self.steps)

    def _models(self):
        return (self.original, self.adapted)

    def _seed_vectors(self, p: np.ndarray, n: int, y: np.ndarray,
                      c) -> np.ndarray:
        """Upstream probability-gradient for the stacked (2n, k) softmax:
        rows [0, n) are the original model's block (+1 at the label),
        rows [n, 2n) the adapted model's (-c at the label)."""
        v = np.zeros_like(p)
        rows = np.arange(n)
        v[rows, y] = 1.0
        v[n + rows, y] = -np.asarray(c, dtype=p.dtype)
        return v

    def _seeds(self, zs, y, variant):
        """One combined softmax-seeded backward: a single stacked softmax
        over both logit blocks, one vjp, split per program.  Row-wise
        identical to seeding the two models separately."""
        zo, za = zs
        n = len(zo)
        p = softmax_np(np.concatenate([zo, za], axis=0))
        seeds = softmax_vjp(
            p, self._seed_vectors(p, n, y, variant.get("c", self.c)))
        return seeds[:n], seeds[n:]

    def _eager_loss(self, zs, y, variant):
        p_orig, p_adapt = (F.softmax(z, axis=-1) for z in zs)
        return diva_loss(p_orig, p_adapt, y, variant.get("c", self.c))

    def success_from_logits(self, zs, y) -> np.ndarray:
        """DIVA's goal: original stays correct AND adapted flips."""
        zo, za = zs
        y = np.asarray(y)
        return (zo.argmax(axis=1) == y) & (za.argmax(axis=1) != y)


class TargetedDIVA(DIVA):
    """Targeted variant (§6): steer the adapted model toward a chosen
    class while evading the original model.

    Adds to Eq. 5 a term pulling the adapted model's distribution toward
    the one-hot target — "increases the loss based on its distance away
    from a one-hot vector with the value of 1 being at the position of
    the target class".
    """

    def __init__(self, original: Module, adapted: Module, target_class: int,
                 c: float = 1.0, target_weight: float = 1.0,
                 eps: float = DEFAULT_EPS, alpha: float = DEFAULT_ALPHA,
                 steps: int = DEFAULT_STEPS, random_start: bool = False,
                 keep_best: bool = True, seed: int = 0):
        super().__init__(original, adapted, c, eps, alpha, steps,
                         random_start, keep_best, seed)
        self.target_class = int(target_class)
        self.target_weight = float(target_weight)

    def serve_signature(self):
        """Targeted jobs additionally pin the target class/weight (both
        read by the gradient seed, neither expressible per item)."""
        return super().serve_signature() + (self.target_class,
                                            self.target_weight)

    def _seed_vectors(self, p: np.ndarray, n: int, y: np.ndarray,
                      c) -> np.ndarray:
        v = np.zeros_like(p)
        rows = np.arange(n)
        v[rows, y] = 1.0
        v[n + rows, y] = -np.asarray(c, dtype=p.dtype)
        # negative squared distance to the one-hot target, ascended
        # (adapted block only)
        pa = p[n:]
        onehot = np.zeros_like(pa)
        onehot[rows, self.target_class] = 1.0
        v[n:] -= 2.0 * self.target_weight * (pa - onehot)
        return v

    def _eager_loss(self, zs, y, variant):
        p_orig, p_adapt = (F.softmax(z, axis=-1) for z in zs)
        base = diva_loss(p_orig, p_adapt, y, variant.get("c", self.c))
        onehot = np.zeros(p_adapt.shape, dtype=p_adapt.data.dtype)
        onehot[np.arange(len(y)), self.target_class] = 1.0
        d = p_adapt - Tensor(onehot)
        return base - self.target_weight * (d * d).sum()

    def success_from_logits(self, zs, y) -> np.ndarray:
        """Targeted goal: original stays correct AND adapted says target."""
        zo, za = zs
        y = np.asarray(y)
        return ((zo.argmax(axis=1) == y) & (za.argmax(axis=1) == self.target_class)
                & (y != self.target_class))
