"""Quantization-aware training (QAT).

``prepare_qat`` clones a float model and instruments it the way tfmot's
``quantize_model`` does:

- every Conv2d / Linear gets a symmetric per-channel weight fake-quant;
- every Conv2d / Linear / ReLU output gets an asymmetric per-tensor
  activation fake-quant;
- the network input is quantized by the wrapper's input quantizer.

Training the prepared model with the usual loop *is* QAT: forward passes
see quantization error, backward passes flow through the straight-through
estimator, so the float weights adapt to the grid (§2.1 of the paper).
"""

from __future__ import annotations

from typing import Callable, Iterable, Optional, Tuple

import numpy as np

from ..nn import functional as F
from ..nn.layers import Conv2d, Linear, ReLU
from ..nn.module import Module
from ..nn.optim import Optimizer, SGD
from ..nn.tensor import Tensor, no_grad
from ..nn.train_graph import train_step_fn
from .fake_quant import FakeQuantize


class QATModel(Module):
    """A float model instrumented with fake quantization.

    The wrapped model is reachable as ``.model``; its class is unchanged,
    so architecture-specific helpers (feature extractors etc.) still work.
    """

    def __init__(self, model: Module, weight_bits: int = 8, act_bits: int = 8,
                 quantize_input: bool = True, per_channel: bool = True):
        super().__init__()
        self.weight_bits = weight_bits
        self.act_bits = act_bits
        self.input_fake_quant = (FakeQuantize.for_activations(bits=act_bits)
                                 if quantize_input else None)
        self.model = model
        self._instrument(per_channel)

    def _instrument(self, per_channel: bool) -> None:
        for _, mod in self.model.named_modules():
            if isinstance(mod, (Conv2d, Linear)):
                mod.weight_fake_quant = FakeQuantize.for_weights(
                    bits=self.weight_bits, per_channel=per_channel)
                mod.activation_post_process = FakeQuantize.for_activations(
                    bits=self.act_bits)
            elif isinstance(mod, ReLU):
                mod.activation_post_process = FakeQuantize.for_activations(
                    bits=self.act_bits)

    def fake_quant_modules(self) -> Iterable[Tuple[str, FakeQuantize]]:
        for name, mod in self.named_modules():
            if isinstance(mod, FakeQuantize):
                yield name, mod

    def freeze(self) -> "QATModel":
        """Pin every quantization grid (deployment conversion)."""
        for _, fq in self.fake_quant_modules():
            if fq.observer.initialized:
                fq.freeze()
        return self

    def forward(self, x: Tensor) -> Tensor:
        if self.input_fake_quant is not None:
            x = self.input_fake_quant(x)
        return self.model(x)

    # convenience passthroughs used by analysis / attacks
    def features(self, x: Tensor) -> Tensor:
        """Penultimate-layer representation, if the inner model exposes one."""
        if self.input_fake_quant is not None:
            x = self.input_fake_quant(x)
        return self.model.features(x)


def prepare_qat(model: Module, weight_bits: int = 8, act_bits: int = 8,
                quantize_input: bool = True, per_channel: bool = True) -> QATModel:
    """Clone ``model`` and wrap it for quantization-aware training.

    The original float model is left untouched — the paper's threat model
    requires *both* the original and adapted models to exist side by side.
    """
    clone = model.copy_structure()
    return QATModel(clone, weight_bits=weight_bits, act_bits=act_bits,
                    quantize_input=quantize_input, per_channel=per_channel)


def calibrate(qat_model: QATModel, inputs: np.ndarray, batch_size: int = 64) -> QATModel:
    """Run forward passes in train mode so observers see the data ranges.

    Nothing backpropagates through these passes, so they run under
    ``no_grad``: each batch's activations are freed as the next layer
    consumes them instead of being pinned by a tape.
    """
    n = len(inputs)
    if n == 0:
        # observers that saw no data would freeze to a meaningless grid
        raise ValueError("calibrate: inputs is empty (0 rows)")
    qat_model.train()
    with no_grad():
        for start in range(0, n, batch_size):
            qat_model(Tensor(inputs[start:start + batch_size]))
    qat_model.eval()
    return qat_model


def qat_finetune(qat_model: QATModel, x_train: np.ndarray, y_train: np.ndarray,
                 epochs: int = 2, batch_size: int = 64, lr: float = 0.005,
                 momentum: float = 0.9, weight_decay: float = 0.0,
                 optimizer: Optional[Optimizer] = None,
                 rng: Optional[np.random.Generator] = None,
                 log_fn: Optional[Callable[[str], None]] = None) -> QATModel:
    """Finetune with fake quantization in the loop (QAT proper).

    Mirrors the paper's recipe (§5.1): a couple of epochs of QAT after
    instrumenting the pretrained float model; more epochs stop helping
    accuracy but increase instability.

    Full-size batches run through a compiled train-step program whose
    replays re-read the moving quantization grids and replay the
    observer updates, so compiled QAT is bit-identical to eager QAT
    (validated at compile time; the eager tape serves the tail batch
    and any fallback).
    """
    rng = rng if rng is not None else np.random.default_rng(0)
    opt = optimizer if optimizer is not None else SGD(
        qat_model.parameters(), lr=lr, momentum=momentum, weight_decay=weight_decay)
    n = len(x_train)
    qat_model.train()
    nb = min(batch_size, n)
    step = train_step_fn(qat_model, F.cross_entropy, x_train[:nb],
                         y_train[:nb], opt, log_fn)
    for epoch in range(epochs):
        order = rng.permutation(n)
        total_loss = 0.0
        for start in range(0, n, batch_size):
            idx = order[start:start + batch_size]
            total_loss += step(x_train[idx], y_train[idx]) * len(idx)
        if log_fn:
            log_fn(f"qat epoch {epoch}: loss={total_loss / n:.4f}")
    qat_model.eval()
    return qat_model
