"""Fake quantization with a straight-through estimator.

The forward pass snaps values to the integer grid (quantize-dequantize);
the backward pass passes gradients straight through inside the
representable range and zeroes them outside (the clamped STE of Bengio et
al. 2013, used by QAT).  This is the mechanism that makes the adapted
model differentiable — the property §6 of the paper relies on ("Tflite
supports only inference ... we use QAT's gradients").
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..nn import tensor as _tensor
from ..nn.module import Module
from ..nn.tensor import Tensor
from .affine import QuantParams, fake_quantize_array
from .observers import (MinMaxObserver, MovingAverageMinMaxObserver, Observer,
                        PerChannelMinMaxObserver)


def fake_quant_ste(x: Tensor, qp: QuantParams,
                   module: Optional["FakeQuantize"] = None) -> Tensor:
    """Differentiable fake-quantize of ``x`` under params ``qp``.

    ``module`` — when the call comes from a :class:`FakeQuantize` —
    travels with the traced op so the training-step compiler can re-read
    a moving quantization grid on every replay; the forward executor
    keeps folding the snapshot ``qp``.
    """
    data = fake_quantize_array(x.data, qp)
    req = x.requires_grad and _tensor.is_grad_enabled()
    out = Tensor(data, requires_grad=req, _parents=(x,) if req else ())
    if req:
        s = qp.scale_for(x.data.ndim)
        z = qp.zero_point_for(x.data.ndim)
        lo = (qp.qmin - z) * s
        hi = (qp.qmax - z) * s
        mask = (x.data >= lo) & (x.data <= hi)

        def _bw(g, x=x, m=mask):
            if x.requires_grad:
                x._accumulate(g * m, owned=True)
        out._backward = _bw
    if _tensor._GRAPH_TRACER is not None:
        _tensor._GRAPH_TRACER.emit("fake_quant", (x,), out,
                                   {"qp": qp, "fq": module})
    return out


class FakeQuantize(Module):
    """Observer + fake-quant op as a module.

    While ``training`` and ``observer_enabled``, each forward updates the
    observer with the incoming statistics; the quantization grid is then
    recomputed from the observer. Calling :meth:`freeze` pins the grid
    (equivalent to converting for deployment).
    """

    def __init__(self, observer: Optional[Observer] = None):
        super().__init__()
        self.observer = observer if observer is not None else \
            MovingAverageMinMaxObserver(bits=8, signed=True, symmetric=False)
        self.observer_enabled = True
        self.fake_quant_enabled = True
        self._frozen_qparams: Optional[QuantParams] = None

    # -- construction helpers ------------------------------------------- #
    @classmethod
    def for_weights(cls, bits: int = 8, per_channel: bool = True) -> "FakeQuantize":
        """Symmetric signed quantizer, per-channel by default (axis 0)."""
        if per_channel:
            obs = PerChannelMinMaxObserver(bits=bits, signed=True, symmetric=True, axis=0)
        else:
            obs = MinMaxObserver(bits=bits, signed=True, symmetric=True)
        return cls(obs)

    @classmethod
    def for_activations(cls, bits: int = 8, momentum: float = 0.1) -> "FakeQuantize":
        """Asymmetric signed per-tensor quantizer with EMA observer."""
        return cls(MovingAverageMinMaxObserver(bits=bits, signed=True,
                                               symmetric=False, momentum=momentum))

    # -- control --------------------------------------------------------- #
    def freeze(self) -> None:
        """Pin the current grid; observers stop mattering afterwards."""
        self._frozen_qparams = self.observer.compute_qparams()
        self.observer_enabled = False

    def unfreeze(self) -> None:
        self._frozen_qparams = None
        self.observer_enabled = True

    @property
    def frozen(self) -> bool:
        return self._frozen_qparams is not None

    def qparams(self) -> QuantParams:
        if self._frozen_qparams is not None:
            return self._frozen_qparams
        return self.observer.compute_qparams()

    # -- forward ---------------------------------------------------------- #
    def _observe(self, xd: np.ndarray) -> None:
        """Observer update as a replayable effect: the training-step
        compiler records this exact callable so compiled steps move the
        grid precisely the way eager steps do."""
        self.observer.observe(xd)

    def forward(self, x: Tensor) -> Tensor:
        if self.observer_enabled and self.training and not self.frozen:
            self._observe(x.data)
            if _tensor._GRAPH_TRACER is not None:
                _tensor._GRAPH_TRACER.emit_effect(self._observe, x)
        if not self.fake_quant_enabled:
            return x
        if not self.frozen and not self.observer.initialized:
            # first ever call in eval mode before any observation: identity
            if not self.training:
                return x
        return fake_quant_ste(x, self.qparams(), module=self)

    def __repr__(self):
        kind = type(self.observer).__name__
        return f"FakeQuantize({kind}, bits={self.observer.bits}, frozen={self.frozen})"
