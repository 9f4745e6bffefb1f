"""Batched inference and accuracy evaluation.

All predictors accept an optional pre-compiled executor
(:func:`repro.nn.graph.compile_forward`) so repeated evaluation of a
frozen model can skip tape construction entirely.  Without an executor,
behaviour is unchanged.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from ..nn import functional as F
from ..nn.module import Module
from ..nn.tensor import Tensor, no_grad


#: minimum batches of work before ``predict_logits`` self-compiles: the
#: compile (trace + parity validation) costs roughly five batch passes
#: and a warm replay saves ~0.4 of one, so break-even sits near a dozen
#: batches — below that, small evaluations stay on the eager tape
_AUTO_COMPILE_MIN_BATCHES = 12


def predict_logits(model: Module, x: np.ndarray, batch_size: int = 128,
                   executor=None) -> np.ndarray:
    """Forward the whole array in eval mode; returns (N, classes) logits.

    When no ``executor`` is given and the workload is large enough to
    amortize compilation (distillation teacher queries, big evaluation
    sets), a compiled forward replay is built best-effort and used for
    every batch; the eager tape remains the fallback.  The replay is
    the model's own program (:func:`repro.nn.graph.
    compile_forward_cached`, shared with any attack on the model and
    gone with the model), refreshed once per call so mutated parameters
    are re-folded, which turns repeated large evaluations of the same
    frozen model into pure replays.
    """
    was_training = getattr(model, "training", False)
    model.eval()
    try:
        if executor is None and isinstance(model, Module) \
                and len(x) >= _AUTO_COMPILE_MIN_BATCHES * batch_size:
            from ..nn.graph import compile_forward_cached
            executor = compile_forward_cached(model, x[:batch_size])
            if executor is not None:
                executor.refresh()
        outs = []
        # an empty batch still runs one forward, for its (0, K) shape
        for start in range(0, max(len(x), 1), batch_size):
            xb = x[start:start + batch_size]
            if executor is not None:
                outs.append(executor.replay(xb))
            else:
                with no_grad():
                    outs.append(model(Tensor(xb)).data.copy())
    finally:
        if was_training:
            model.train()
    return np.concatenate(outs, axis=0)


def predict_probs(model: Module, x: np.ndarray, batch_size: int = 128,
                  executor=None) -> np.ndarray:
    """Softmax probabilities, batched."""
    logits = predict_logits(model, x, batch_size, executor=executor)
    shifted = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)


def predict_labels(model: Module, x: np.ndarray, batch_size: int = 128,
                   executor=None) -> np.ndarray:
    return predict_logits(model, x, batch_size, executor=executor).argmax(axis=1)


def evaluate_accuracy(model: Module, x: np.ndarray, y: np.ndarray,
                      batch_size: int = 128, executor=None) -> float:
    """Top-1 accuracy in [0, 1]."""
    return float((predict_labels(model, x, batch_size, executor=executor)
                  == np.asarray(y)).mean())


def evaluate_topk_accuracy(model: Module, x: np.ndarray, y: np.ndarray, k: int = 5,
                           batch_size: int = 128, executor=None) -> float:
    """Top-k accuracy in [0, 1]."""
    logits = predict_logits(model, x, batch_size, executor=executor)
    topk = np.argsort(-logits, axis=1)[:, :k]
    return float((topk == np.asarray(y)[:, None]).any(axis=1).mean())


def evaluate_loss(model: Module, x: np.ndarray, y: np.ndarray,
                  batch_size: int = 128) -> float:
    """Mean cross-entropy loss."""
    if len(x) == 0:
        raise ValueError("evaluate_loss: x is empty (0 rows)")
    was_training = getattr(model, "training", False)
    total = 0.0
    model.eval()
    try:
        with no_grad():
            for start in range(0, len(x), batch_size):
                xb = Tensor(x[start:start + batch_size])
                loss = F.cross_entropy(model(xb), y[start:start + batch_size],
                                       reduction="sum")
                total += float(loss.data)
    finally:
        if was_training:
            model.train()
    return total / len(x)
