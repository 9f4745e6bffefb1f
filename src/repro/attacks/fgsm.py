"""Single-step attacks: FGSM (Goodfellow et al.) and R+FGSM (Tramer et al.).

Included as the historical baselines the paper's background (§2.2) builds
from; PGD (the paper's main baseline) is their iterated form — literally,
here: both functions run as single-step PGD configurations on the
scheduled engine, so they ride the compiled executor when the model
traces, and fall back to the eager tape (bit-identical to the historic
per-batch implementation) when it does not.  A single-step keep-best-off
run pays
exactly one gradient pass per row either way — the engine's done-mask
semantics for rows succeeding on step 0 match ``generate``'s
(no trailing success forward; see ``Attack._run_keep_best``).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..nn.module import Module
from .base import DEFAULT_EPS, project_linf
from .engine import run_scheduled
from .pgd import PGD


def fgsm(model: Module, x: np.ndarray, y: np.ndarray,
         eps: float = DEFAULT_EPS, batch_size: int = 128) -> np.ndarray:
    """Fast Gradient Sign Method: one eps-sized sign step (Eq. 2).

    Equivalent to ``PGD(model, eps=eps, alpha=eps, steps=1,
    keep_best=False)`` — the step of size ``eps`` saturates the budget,
    and the projection clamps to ``[x ± eps] ∩ [0, 1]`` exactly as
    Eq. 2's clip does.
    """
    atk = PGD(model, eps=eps, alpha=eps, steps=1, keep_best=False)
    return atk.generate(x, np.asarray(y), batch_size=batch_size)


def r_fgsm(model: Module, x: np.ndarray, y: np.ndarray,
           eps: float = DEFAULT_EPS, alpha: Optional[float] = None,
           seed: int = 0, batch_size: int = 128) -> np.ndarray:
    """R+FGSM: random step of size ``alpha`` then an FGSM step of the
    remaining budget ``eps - alpha``.

    The random start is drawn per ``batch_size`` chunk (the historic
    rng stream, so results are reproducible across batch sizes); the
    gradient step then runs as a scheduled single-step PGD with the
    random iterates as the starting point and the *full* ``eps`` ball
    around the natural samples as the projection target.
    """
    alpha = eps / 2 if alpha is None else alpha
    if not 0 < alpha < eps:
        raise ValueError("alpha must satisfy 0 < alpha < eps")
    rng = np.random.default_rng(seed)
    y = np.asarray(y)
    x0 = np.empty_like(x)
    for start in range(0, len(x), batch_size):
        xb = x[start:start + batch_size]
        x0[start:start + len(xb)] = project_linf(
            xb + alpha * np.sign(rng.normal(size=xb.shape)), xb, eps
        ).astype(xb.dtype)
    atk = PGD(model, eps=eps, alpha=eps - alpha, steps=1, keep_best=False)
    n = len(x)
    eps_v = np.full(n, eps, dtype=x.dtype)
    alpha_v = np.full(n, eps - alpha, dtype=x.dtype)
    check = np.zeros(n, dtype=bool)
    return run_scheduled(atk, x, y, x0, eps_v, alpha_v, check, None,
                         capacity=batch_size)
