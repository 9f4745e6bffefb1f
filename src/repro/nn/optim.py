"""Optimizers (SGD with momentum/Nesterov, Adam) and LR schedules."""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

import numpy as np

from .module import Parameter


class Optimizer:
    """Base optimizer over a flat list of parameters."""

    def __init__(self, params: Sequence[Parameter], lr: float):
        self.params: List[Parameter] = list(params)
        if not self.params:
            raise ValueError("optimizer got an empty parameter list")
        self.lr = float(lr)

    def zero_grad(self) -> None:
        for p in self.params:
            p.grad = None

    def step(self) -> None:
        """Apply the gradients the tape left in ``p.grad``."""
        self.apply_gradients([(p, p.grad) for p in self.params])

    def apply_gradients(self, pairs) -> None:  # pragma: no cover - abstract
        """Update each parameter from its gradient, in place: the one
        update of eager steps (:meth:`step`) and compiled training steps,
        which hand their gradients over directly.  ``pairs`` is a
        sequence of ``(parameter, gradient-or-None)``."""
        raise NotImplementedError


class SGD(Optimizer):
    """Stochastic gradient descent with momentum, weight decay, Nesterov."""

    def __init__(self, params: Sequence[Parameter], lr: float = 0.01,
                 momentum: float = 0.0, weight_decay: float = 0.0,
                 nesterov: bool = False):
        super().__init__(params, lr)
        self.momentum = momentum
        self.weight_decay = weight_decay
        self.nesterov = nesterov
        self._velocity: Dict[int, np.ndarray] = {}

    def apply_gradients(self, pairs) -> None:
        """The velocity recurrence runs in place: ``v *= m; v += g``
        evaluates ``fl(fl(m*v) + g)`` per element exactly as ``m*v + g``
        does, without a fresh velocity per step."""
        lr, mom, wd = self.lr, self.momentum, self.weight_decay
        vel = self._velocity
        for p, g in pairs:
            if g is None:
                continue
            if wd:
                g = g + wd * p.data
            if mom:
                v = vel.get(id(p))
                if v is None:
                    v = g.copy()
                    vel[id(p)] = v
                else:
                    v *= mom
                    v += g
                g = g + mom * v if self.nesterov else v
            p.data -= lr * g


class Adam(Optimizer):
    """Adam (Kingma & Ba) with optional decoupled weight decay (AdamW)."""

    def __init__(self, params: Sequence[Parameter], lr: float = 1e-3,
                 betas=(0.9, 0.999), eps: float = 1e-8,
                 weight_decay: float = 0.0, decoupled: bool = True):
        super().__init__(params, lr)
        self.b1, self.b2 = betas
        self.eps = eps
        self.weight_decay = weight_decay
        self.decoupled = decoupled
        self._m: Dict[int, np.ndarray] = {}
        self._v: Dict[int, np.ndarray] = {}
        self._t = 0

    def apply_gradients(self, pairs) -> None:
        """The moment recurrences run in place: ``m *= b1; m +=
        (1-b1)*g`` is element-wise ``fl(fl(b1*m) + fl((1-b1)*g))``,
        exactly the fresh-array ``b1*m + (1-b1)*g``, without fresh
        moments per step."""
        self._t += 1
        b1t = 1.0 - self.b1 ** self._t
        b2t = 1.0 - self.b2 ** self._t
        for p, g in pairs:
            if g is None:
                continue
            if self.weight_decay and not self.decoupled:
                g = g + self.weight_decay * p.data
            gm = (1 - self.b1) * g
            gv = (1 - self.b2) * g * g
            m = self._m.get(id(p))
            if m is None:
                self._m[id(p)], self._v[id(p)] = gm, gv
                m, v = gm, gv
            else:
                v = self._v[id(p)]
                m *= self.b1
                m += gm
                v *= self.b2
                v += gv
            update = (m / b1t) / (np.sqrt(v / b2t) + self.eps)
            if self.weight_decay and self.decoupled:
                update = update + self.weight_decay * p.data
            p.data -= self.lr * update


class LRScheduler:
    """Base learning-rate schedule wrapping an optimizer."""

    def __init__(self, optimizer: Optimizer):
        self.optimizer = optimizer
        self.base_lr = optimizer.lr
        self.epoch = 0

    def step(self) -> None:
        self.epoch += 1
        self.optimizer.lr = self.get_lr()

    def get_lr(self) -> float:  # pragma: no cover - abstract
        raise NotImplementedError


class StepLR(LRScheduler):
    """Multiply LR by ``gamma`` every ``step_size`` epochs."""

    def __init__(self, optimizer: Optimizer, step_size: int, gamma: float = 0.1):
        super().__init__(optimizer)
        self.step_size = step_size
        self.gamma = gamma

    def get_lr(self) -> float:
        return self.base_lr * (self.gamma ** (self.epoch // self.step_size))


class CosineLR(LRScheduler):
    """Cosine annealing from base LR to ``min_lr`` over ``t_max`` epochs."""

    def __init__(self, optimizer: Optimizer, t_max: int, min_lr: float = 0.0):
        super().__init__(optimizer)
        self.t_max = max(1, t_max)
        self.min_lr = min_lr

    def get_lr(self) -> float:
        t = min(self.epoch, self.t_max)
        cos = 0.5 * (1 + np.cos(np.pi * t / self.t_max))
        return self.min_lr + (self.base_lr - self.min_lr) * cos
