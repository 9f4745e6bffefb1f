"""Integer-only inference engine — the reproduction's TFLite runtime.

The paper's face-recognition case study (§6) converts the QAT model with
TFLite and runs int8 inference on an ARM edge device; attacks are built
with QAT gradients but *evaluated* on the deployed integer artifact.
This engine reproduces that split: it executes feed-forward networks
using int8 weights/activations, exact integer accumulation and
TFLite-style fixed-point requantization (multiplier + right shift).
Between the pixel quantizer and the logit dequantizer every value is an
integer.  The conv and linear GEMMs carry their integer operands in
float64, which is exact: each layer refuses at construction any weights
whose accumulator could overflow the int64 requantization, which keeps
every product and partial sum below ``2**33``, far inside float64's
``2**53`` (see :class:`QConv2d`).  Bias add, requantization and clamps
run in int64.

Numerical relationship to the fake-quant (QAT) path: identical up to the
31-bit quantization of the requantization multiplier, i.e. results on the
integer grid match within 1 LSB (asserted by the test suite).  The ops in
this module are the *reference semantics*: :meth:`EdgeModel.predict`
routes batches through per-shape compiled programs
(:mod:`repro.edge.program` — zero-point folding, fused/LUT activations,
planned buffers) that are bit-validated against this eager op loop at
build time and fall back to it, loudly, whenever lowering or validation
fails.  ``predict(..., compiled=False)`` forces the eager loop.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..quantization.affine import QuantParams, quantize_multiplier


def _prep_requant(m0, shift, ndim: Optional[int] = None,
                  axis: Optional[int] = None):
    """Broadcast-shaped ``(m0, rounding, total_shift)`` int64 triple.

    Built once per op/program instead of reshaped on every call; the
    rounding constant ``1 << (total - 1)`` is precomputed alongside.
    """
    m0 = np.atleast_1d(np.asarray(m0, dtype=np.int64))
    shift = np.atleast_1d(np.asarray(shift, dtype=np.int64))
    if ndim is not None and axis is not None:
        shape = [1] * ndim
        shape[axis] = m0.size
        m0 = m0.reshape(shape)
        shift = shift.reshape(shape)
    total = 31 + shift
    rounding = np.int64(1) << (total - 1)
    return m0, rounding, total


def _requantize_prepped(acc: np.ndarray, m0: np.ndarray, rounding: np.ndarray,
                        total: np.ndarray) -> np.ndarray:
    """Multiply-round-shift with precomputed broadcast operands.

    Allocates one int64 product buffer and runs the rounding add and the
    arithmetic right shift in place on it (round half away from zero:
    ``prod + rounding - (prod < 0)``, bit-equal to the historical
    ``where(prod >= 0, r, r - 1)`` formulation).
    """
    prod = np.multiply(acc, m0, dtype=np.int64)
    neg = prod < 0
    prod += rounding
    np.subtract(prod, neg, out=prod)
    np.right_shift(prod, total, out=prod)
    return prod


class EdgeOp:
    """Base class for integer ops; maps int tensors to int tensors."""

    def __call__(self, q: np.ndarray) -> np.ndarray:  # pragma: no cover
        raise NotImplementedError


@dataclass
class QuantizeInput(EdgeOp):
    """Float pixels -> integer grid (the only non-integer boundary op).

    Quantization runs in the input's *native* float dtype (the PR 2
    dtype policy: float64 experiments, float32 benches) — python-float
    scale/zero-point scalars do not upcast the array — so benches never
    pay a float64 round trip on the pixel tensor.  Non-float inputs are
    promoted to float64.
    """

    qp: QuantParams

    def __call__(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x)
        if not np.issubdtype(x.dtype, np.floating):
            x = x.astype(np.float64)
        s = float(self.qp.scale)
        z = float(self.qp.zero_point)
        q = np.round(x / s) + z
        return np.clip(q, self.qp.qmin, self.qp.qmax).astype(np.int32)


class _QMatmul(EdgeOp):
    """Shared state of the integer conv and linear layers: int8 weights
    (kept as int64, plus one float64 copy for the GEMM), int64 bias,
    per-tensor or per-channel requantization multipliers.

    Construction refuses a layer whose requantization could overflow
    int64.  An input on the ``in_qp`` grid has ``|q - z_in| <= qabs``, so
    every accumulator, bias included, is at most the per-filter
    ``Σ|w|·qabs + |bias|``; that bound times ``m0`` plus the rounding
    constant must stay inside int64, or ``acc * m0`` would silently
    wrap.  Because ``m0 >= 2**30``, the same check keeps every
    accumulator below ``2**33``.
    """

    def __init__(self, q_weight: np.ndarray, bias_q: np.ndarray,
                 in_qp: QuantParams, w_qp: QuantParams, out_qp: QuantParams,
                 ndim: int):
        self.q_weight = q_weight.astype(np.int64)
        self.bias_q = bias_q.astype(np.int64)
        self.in_qp = in_qp
        self.w_qp = w_qp
        self.out_qp = out_qp
        w_scales = np.atleast_1d(np.asarray(w_qp.scale, dtype=np.float64))
        real_mult = (float(in_qp.scale) * w_scales) / float(out_qp.scale)
        pairs = [quantize_multiplier(m) for m in real_mult]
        self.m0 = np.array([p[0] for p in pairs], dtype=np.int64)
        self.shift = np.array([p[1] for p in pairs], dtype=np.int64)
        self.per_channel = w_qp.axis is not None
        self._m0_b, self._round_b, self._total_b = _prep_requant(
            self.m0, self.shift, ndim, 1 if self.per_channel else None)
        z = int(in_qp.zero_point)
        qabs = max(int(in_qp.qmax) - z, z - int(in_qp.qmin))
        w = self.q_weight.reshape(len(self.q_weight), -1)
        bound = np.abs(w).sum(axis=1) * qabs + np.abs(self.bias_q)
        headroom = ((np.iinfo(np.int64).max - self._round_b.ravel())
                    // self._m0_b.ravel())
        if np.any(bound > headroom):
            raise ValueError(
                f"{type(self).__name__}: accumulator bound {bound.max()} "
                "times the requantization multiplier overflows int64")

    def _requantize(self, acc: np.ndarray, bias: np.ndarray) -> np.ndarray:
        """Integer accumulator (int64, overwritten) plus bias -> int32
        output grid."""
        acc += bias
        out = _requantize_prepped(acc, self._m0_b, self._round_b, self._total_b)
        out += int(self.out_qp.zero_point)
        return np.clip(out, self.out_qp.qmin, self.out_qp.qmax).astype(np.int32)


class QConv2d(_QMatmul):
    """Integer convolution: int8 weights, exact integer accumulate,
    requantize.

    The input zero-point is subtracted before the convolution (weights
    are symmetric, so no weight zero-point), making zero padding exact.
    The GEMM is tap-major, as in the compiled program: the window view
    of the centered input is copied once into an ``(N, G, Kg, P)``
    float64 buffer (``Kg = Cg·kh·kw`` taps, ``P = OH·OW`` positions, no
    transpose) and contracted as ``(G, Fg, Kg) @ (N, G, Kg, P)``, so
    the accumulator lands in NCHW order.  float64 carries it exactly:
    every product and partial sum is an integer below ``2**33`` (see
    :class:`_QMatmul`), well inside float64's ``2**53``, so BLAS
    returns the int64 accumulator bit for bit in any summation order.
    """

    def __init__(self, q_weight: np.ndarray, bias_q: np.ndarray,
                 in_qp: QuantParams, w_qp: QuantParams, out_qp: QuantParams,
                 stride: int = 1, padding: int = 0, groups: int = 1):
        super().__init__(q_weight, bias_q, in_qp, w_qp, out_qp, 4)
        self.stride = stride
        self.padding = padding
        self.groups = groups
        F_out = len(self.q_weight)
        self._wf = self.q_weight.reshape(groups, F_out // groups, -1).astype(
            np.float64)

    def __call__(self, q: np.ndarray) -> np.ndarray:
        from ..nn.functional import _im2col
        centered = q.astype(np.int64) - int(self.in_qp.zero_point)
        F_out, _, kh, kw = self.q_weight.shape
        view, (oh, ow) = _im2col(centered, kh, kw, self.stride, self.stride,
                                 self.padding, self.padding)
        N = len(q)
        # one gather + exact cast; (N, C, kh, kw, OH, OW) is
        # (N, G, Kg, P) in memory order
        cols = np.ascontiguousarray(view, dtype=np.float64)
        accf = self._wf @ cols.reshape(N, self.groups, -1, oh * ow)
        del centered, view, cols    # free the gather before requantizing
        return self._requantize(accf.astype(np.int64).reshape(N, F_out, oh, ow),
                                self.bias_q.reshape(1, F_out, 1, 1))


class QLinear(_QMatmul):
    """Integer fully-connected layer (same scheme as QConv2d)."""

    def __init__(self, q_weight: np.ndarray, bias_q: np.ndarray,
                 in_qp: QuantParams, w_qp: QuantParams, out_qp: QuantParams):
        super().__init__(q_weight, bias_q, in_qp, w_qp, out_qp, 2)
        self._wf = self.q_weight.T.astype(np.float64)

    def __call__(self, q: np.ndarray) -> np.ndarray:
        centered = q.astype(np.int64) - int(self.in_qp.zero_point)
        acc = centered.astype(np.float64) @ self._wf
        return self._requantize(acc.astype(np.int64), self.bias_q)


class QReLU(EdgeOp):
    """Integer ReLU with rescale between input and output grids."""

    def __init__(self, in_qp: QuantParams, out_qp: QuantParams):
        self.in_qp = in_qp
        self.out_qp = out_qp
        m0, shift = quantize_multiplier(float(in_qp.scale) / float(out_qp.scale))
        self.m0, self.shift = m0, shift
        self._m0_b, self._round_b, self._total_b = _prep_requant(m0, shift)

    def __call__(self, q: np.ndarray) -> np.ndarray:
        centered = np.maximum(q.astype(np.int64) - int(self.in_qp.zero_point), 0)
        out = _requantize_prepped(centered, self._m0_b, self._round_b,
                                  self._total_b)
        out = out + int(self.out_qp.zero_point)
        return np.clip(out, self.out_qp.qmin, self.out_qp.qmax).astype(np.int32)


def _max_pool_taps(src: np.ndarray, kernel: int, stride: int,
                   out: np.ndarray) -> np.ndarray:
    """Max over the ``kernel**2`` strided tap views of padded NCHW ``src``.

    Each tap ``src[:, :, i::stride, j::stride]`` (cropped to ``out``'s
    spatial shape) is one elementwise ``np.maximum`` into ``out`` — the
    same values as a reduction over window axes, without the strided
    per-window reduce.  The one pooling routine of the eager op and the
    compiled program.
    """
    oh, ow = out.shape[2], out.shape[3]
    hs = stride * (oh - 1) + 1
    ws = stride * (ow - 1) + 1
    for i in range(kernel):
        for j in range(kernel):
            tap = src[:, :, i:i + hs:stride, j:j + ws:stride]
            if i == 0 and j == 0:
                np.copyto(out, tap)
            else:
                np.maximum(out, tap, out=out)
    return out


@dataclass
class QMaxPool2d(EdgeOp):
    """Max pooling commutes with monotone quantization: pool the ints.

    The reference semantics.  Because requantization with a
    non-negative multiplier, ``QReLU`` and the output clamp are all
    monotone non-decreasing, the compiled program may run an unpadded
    pool that follows a conv on the conv's integer accumulator, before
    requantization, with the same bytes (:mod:`repro.edge.program`).
    Padding fills with the int32 minimum, which never wins a max.
    """

    kernel: int
    stride: Optional[int] = None
    padding: int = 0

    def __call__(self, q: np.ndarray) -> np.ndarray:
        stride = self.stride if self.stride is not None else self.kernel
        qq = q
        if self.padding:
            qq = np.pad(q, ((0, 0), (0, 0), (self.padding,) * 2,
                            (self.padding,) * 2),
                        constant_values=np.iinfo(np.int32).min)
        N, C, H, W = qq.shape
        oh = (H - self.kernel) // stride + 1
        ow = (W - self.kernel) // stride + 1
        out = np.empty((N, C, oh, ow), dtype=np.int32)
        return _max_pool_taps(qq, self.kernel, stride, out)


class QFlatten(EdgeOp):
    def __call__(self, q: np.ndarray) -> np.ndarray:
        return q.reshape(len(q), -1)


@dataclass
class Dequantize(EdgeOp):
    """Integer grid -> float (applied once, to the logits)."""

    qp: QuantParams

    def __call__(self, q: np.ndarray) -> np.ndarray:
        return (q.astype(np.float64) - float(self.qp.zero_point)) * float(self.qp.scale)


class EdgeModel:
    """A compiled, inference-only integer network.

    Behaves like a model for evaluation purposes (``__call__`` on float
    pixel arrays returning float logits) but executes entirely on the
    integer path in between.  Batches route through per-(shape, dtype)
    :class:`~repro.edge.program.EdgeProgram` plans that are
    bit-validated against the eager op loop when first built; lowering
    or validation failure warns and pins the eager loop for that shape.
    The plans live where a float model's programs do
    (:func:`repro.serve.cache.model_program`): in the session cache the
    model was adopted into, else in a store of its own that pins nothing
    and dies with the model.

    The programs share the model's two lane pools, so one lock per model
    serializes their builds and runs: threads may share a model, and
    each compiled chunk runs as if alone.
    """

    def __init__(self, ops: Sequence[EdgeOp], num_classes: int):
        self.ops = list(ops)
        self.num_classes = num_classes
        self.training = False
        self._pools = None     # the lanes' ScratchPools, made on first build
        self._lock = threading.Lock()

    def __getstate__(self) -> dict:
        # a copy builds its own programs into its own lane pools
        state = dict(self.__dict__)
        state["_pools"] = state["_lock"] = None
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._lock = threading.Lock()

    def eval(self) -> "EdgeModel":
        return self

    @property
    def _programs(self) -> Dict[tuple, object]:
        """Introspection view of this model's plans in its store, keyed
        by ``(shape, dtype.str)``; a shape pinned to the eager loop maps
        to None."""
        from ..serve.cache import model_programs
        return model_programs(self, "edge")

    def _eager_forward(self, q: np.ndarray) -> np.ndarray:
        """The reference per-op loop (also the compiled path's oracle)."""
        for op in self.ops:
            q = op(q)
        return np.asarray(q)

    def _build_program(self, q: np.ndarray):
        """One compile + eager-validation attempt: ``(program, its
        validated logits for q)``, or None after
        :func:`~repro.nn.graph.fallback_to_eager`'s warning, which pins
        the eager loop for this shape (loud, once)."""
        from ..nn.graph import ScratchPool, fallback_to_eager
        from .program import EdgeProgram
        if self._pools is None:
            self._pools = (ScratchPool(), ScratchPool())

        def build():
            prog = EdgeProgram(self, q, pools=self._pools)
            return prog, prog.validate(self, q)
        return fallback_to_eager(
            build, f"edge program lowering failed for input {q.shape} "
            f"{q.dtype}", "the eager integer op loop", stacklevel=6)

    def _program_for(self, q: np.ndarray):
        """``(program, logits)`` for ``q``'s shape: the cached program
        (None when this shape fell back), and, when this call built it,
        the program's validated logits for ``q`` (else None).

        A new (shape, dtype) costs one compile, one compiled run of the
        batch and one eager run to check it against; that compiled run
        answers ``q`` itself, so the first predict of a shape runs the
        program once, not twice.  The cost amortizes only on repeated
        shapes — callers scoring many distinct batch sizes should bucket
        them (as ``predict`` batching does) or pass ``compiled=False``.
        The program comes from the model's store
        (:func:`repro.serve.cache.model_program`), keyed by the full
        batch shape and dtype; under a budgeted session cache, cold
        shapes age out LRU and rebuild (re-validating) on their next
        use.
        """
        from ..serve.cache import model_program
        first = None

        def build():
            nonlocal first
            prog, first = self._build_program(q) or (None, None)
            return prog
        prog = model_program(self, ("edge", q.shape, q.dtype.str), build)
        return prog, first

    def predict(self, x: np.ndarray, batch_size: int = 256,
                compiled: bool = True) -> np.ndarray:
        """Float pixels in, float logits out (integer path inside)."""
        x = np.asarray(x)
        if len(x) == 0:
            return np.empty((0, self.num_classes), dtype=np.float64)
        outs = []
        for start in range(0, len(x), batch_size):
            chunk = x[start:start + batch_size]
            if compiled:
                with self._lock:
                    prog, out = self._program_for(chunk)
                    if prog is not None:
                        outs.append(prog.run(chunk) if out is None else out)
                        continue
            outs.append(self._eager_forward(chunk))
        return np.concatenate(outs, axis=0)

    def __call__(self, x) -> "EdgeLogits":
        data = x.data if hasattr(x, "data") else np.asarray(x)
        return EdgeLogits(self.predict(data))

    def footprint_bytes(self) -> int:
        """int8-weight + int32-bias storage (the deployed artifact size)."""
        total = 0
        for op in self.ops:
            if isinstance(op, (QConv2d, QLinear)):
                total += op.q_weight.size            # 1 byte per int8 weight
                total += op.bias_q.size * 4
        return total


@dataclass
class EdgeLogits:
    """Minimal Tensor-like wrapper so evaluation helpers work unchanged."""

    data: np.ndarray
