"""Compiled integer inference programs — the edge engine's planned,
fused execution path.

:class:`EdgeProgram` lowers an :class:`~repro.edge.engine.EdgeModel`'s
op list into a pipeline planned for one (batch, input shape, dtype), the
fourth and final leg of the compiled-executor architecture
(``nn/graph.py`` forward replay, ``attacks/engine.py`` paired attacks,
``nn/train_graph.py`` training).  Six lowerings do the work:

**Zero-point folding.**  The eager ``QConv2d``/``QLinear`` center the
whole activation tensor before the matmul (``q - z_in``, an
O(N·C·H·W) int64 subtract-and-copy).  The program uses the identity
``W @ (q - z) = W @ q - z · rowsum(W)`` and folds ``z_in · Σw`` into the
quantized bias at plan time, so the centering pass disappears.  Padded
convolutions pad with ``z_in`` instead of 0 (the centered image's zero
*is* ``z_in`` on the raw grid), which keeps the identity exact on border
windows; the pad border is written once at plan time since it never
changes.

**Fused / LUT activations.**  A ``QReLU`` whose input and output grids
share one scale is absorbed into the preceding conv/linear's
requantization, TFLite-style, as a clamped output range: with conv
output grid ``(s, z1)`` and relu output grid ``(s, z2)`` the exact
composition of the two eager ops is ``clamp(t + z2, max(qmin, z2),
min(qmax, qmax - z1 + z2))`` where ``t`` is the requantized accumulator
— the relu's identity multiplier requantization is lossless on
non-negative inputs, so fusion is bit-exact and one full requantize
pass plus its intermediate tensor vanish.  When the grids differ the op
stays standalone but is lowered to a 256-entry lookup table built *by
the eager op itself* over its input grid, replacing the
multiply-round-shift arithmetic with one gather (bit-exact by
construction).

**Planned buffers.**  All scratch (pad images, im2col gathers,
accumulators, sign masks, activations) is pre-sized per row tile (see
"Row tiles") from a :class:`~repro.nn.graph.ScratchPool` shared across
the model's per-shape programs, with activation buffers ping-ponged so
producers and consumers never alias.  Convolutions are tap-major: the
window view is copied straight into an ``(N, G, Kg, P)`` scratch and
contracted as ``(G, Fg, Kg) @ (N, G, Kg, P)``, so the accumulator is
already NCHW and requantization writes each activation contiguously.
Max pooling is a tap-wise ``np.maximum`` of the ``k*k`` strided tap
views into the planned output (shared with the eager op), not a
reduction over window axes.

**Pool before requantize.**  An unpadded ``QMaxPool2d`` that follows a
conv (directly, after a fused relu, or after a standalone LUT relu) is
hoisted onto the conv's exact float accumulator: the conv step pools
the NCHW accumulator, adds the folded bias and requantizes only the
pooled values, a standalone relu's gather then runs on the pooled
tensor, and no pool step remains.  This is exact, not approximate:
requantization with non-negative multipliers, the relu and the clamps
are monotone non-decreasing per channel and so commute with ``max``,
and the accumulator holds integers below the exactness bound, so
``max(a) + b == max(a + b)``.  For a 2x2 pool three of every four
requantizations, relu gathers and int64 scratch entries disappear.
Padded pools and pools after any other op stay a pool step.

**Narrowest exact GEMM width.**  The integer matmul runs as a float
GEMM whose every product and partial sum is an integer bounded by the
per-filter ``Σ|w|·max|q| + |bias|``, checked at plan time.  Below 2**24
float32 holds all of them exactly, so the layer runs sgemm; below 2**53
it runs dgemm; either way BLAS returns the exact integer accumulator
whatever its summation order.  Bounds past the int64 requantization
headroom (2**31) refuse to lower.  The requantization
multiply-round-shift then runs in place on one int64 buffer with
broadcast-shaped ``m0``/``shift``/rounding constants built at plan time,
and the final clamp writes straight into the next int32 activation
buffer.

**Row tiles.**  The steps are planned for a tile of ``T`` rows, not for
the batch, and :meth:`EdgeProgram.run` walks the batch tile by tile,
writing each tile's logits into one freshly owned output.  ``T`` is the
largest row count whose biggest per-step scratch (a step's planned
buffers plus the activations it reads and writes) fits
:data:`TILE_BYTES`, about one L2, so each step's working set stays in
cache and the pool holds a tile's scratch however large the batch.  A
ragged last tile gets one extra plan over the same pool keys.  Bytes
cannot move: every step is row-independent and the GEMMs are exact
integer arithmetic, so a row's logits do not depend on its tile.

Safety mirrors ``graph.py``/``train_graph.py``: a freshly planned
program replays the whole build batch and must match the eager op loop
(run tile by tile) **bit for bit**, else it raises and
:meth:`EdgeModel.predict` warns and pins the eager loop for that shape —
a fallback run is exactly the run that was never compiled.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from ..nn.graph import ScratchPool
from ..serve import faults
from .engine import (Dequantize, EdgeModel, QConv2d, QFlatten, QLinear,
                     QMaxPool2d, QReLU, QuantizeInput, _max_pool_taps,
                     _prep_requant)

#: float32 GEMM exactness limit: integer sums must stay below 2**24
_F32_EXACT = np.int64(1) << 24
#: float64 GEMM exactness limit: integer sums must stay below 2**53
_F64_EXACT = np.int64(1) << 53
#: requantize headroom: |acc| * m0 (< 2**31) must stay inside int64
_REQUANT_SAFE = np.int64(1) << 31
#: per-step scratch budget of one row tile, about one L2
TILE_BYTES = 1 << 21


class EdgeLoweringError(Exception):
    """An op sequence this planner cannot lower bit-exactly."""


def _window_view(x: np.ndarray, kh: int, kw: int, sh: int, sw: int):
    """Sliding (N, C, kh, kw, OH, OW) window view over NCHW ``x``."""
    N, C, H, W = x.shape
    oh = (H - kh) // sh + 1
    ow = (W - kw) // sw + 1
    s0, s1, s2, s3 = x.strides
    view = np.lib.stride_tricks.as_strided(
        x, shape=(N, C, kh, kw, oh, ow),
        strides=(s0, s1, s2, s3, s2 * sh, s3 * sw), writeable=False)
    return view, oh, ow


def _fill_border(pad: np.ndarray, p: int, value: int) -> None:
    """Write a constant ``p``-wide border frame (plan-time, once)."""
    pad[:, :, :p, :].fill(value)
    pad[:, :, -p:, :].fill(value)
    pad[:, :, p:-p, :p].fill(value)
    pad[:, :, p:-p, -p:].fill(value)


def _scalar_qp(qp) -> Tuple[float, int, int, int]:
    if qp.axis is not None:
        raise EdgeLoweringError("activation grids must be per-tensor")
    return (float(qp.scale), int(qp.zero_point), int(qp.qmin), int(qp.qmax))


def _can_fuse_relu(prev, relu: QReLU) -> bool:
    """True when the relu is an exact clamp on the grid ``prev`` wrote."""
    try:
        s_in, z_in, lo_in, hi_in = _scalar_qp(relu.in_qp)
        s_out, _, _, _ = _scalar_qp(relu.out_qp)
        s_prev, z_prev, lo_prev, hi_prev = _scalar_qp(prev.out_qp)
    except EdgeLoweringError:
        return False
    return (s_in == s_out and s_in == s_prev and z_in == z_prev
            and lo_in == lo_prev and hi_in == hi_prev)


def _pool_stride(op: QMaxPool2d) -> int:
    return op.stride if op.stride is not None else op.kernel


def _pooled_hw(op: QMaxPool2d, h: int, w: int) -> Tuple[int, int]:
    """``op``'s output height and width over an ``h x w`` input."""
    st = _pool_stride(op)
    return ((h + 2 * op.padding - op.kernel) // st + 1,
            (w + 2 * op.padding - op.kernel) // st + 1)


def _hoistable_pool(conv: QConv2d, ops, j: int, hw) -> Optional[int]:
    """Index of a max pool that can run on ``conv``'s accumulator.

    ``ops[j:]`` must start with an optional standalone ``QReLU`` and
    then an unpadded ``QMaxPool2d`` whose windows fit the conv's
    ``hw`` output.  The max commutes with every map between the
    accumulator and the pool only if each is monotone non-decreasing
    per channel: the clamps and the integer-exact bias add always are,
    and a requantization is when its multipliers ``m0`` are
    non-negative.  None when any of this fails.
    """
    if np.any(np.asarray(conv.m0) < 0):
        return None
    if j < len(ops) and isinstance(ops[j], QReLU):
        if np.any(np.asarray(ops[j].m0) < 0):
            return None
        j += 1
    if (j < len(ops) and isinstance(ops[j], QMaxPool2d)
            and not ops[j].padding and min(_pooled_hw(ops[j], *hw)) >= 1):
        return j
    return None


class _Step:
    """One planned pipeline stage: int/float buffers in, buffer out."""

    def run(self, q: np.ndarray) -> np.ndarray:  # pragma: no cover
        raise NotImplementedError


class _QuantizeStep(_Step):
    """Float pixels -> int32 grid, in the input's native float dtype."""

    def __init__(self, op: QuantizeInput, shape, dtype, scratch,
                 out: np.ndarray):
        self.s = float(op.qp.scale)
        self.z = float(op.qp.zero_point)
        self.qmin, self.qmax = op.qp.qmin, op.qp.qmax
        fdtype = dtype if np.issubdtype(dtype, np.floating) else np.float64
        self.cast = None if np.issubdtype(dtype, np.floating) else np.float64
        self.fbuf = scratch(("edge-qf",), shape[1:], fdtype)
        self.out = out

    def run(self, x: np.ndarray) -> np.ndarray:
        if self.cast is not None:
            x = x.astype(self.cast)
        np.divide(x, self.s, out=self.fbuf)
        np.round(self.fbuf, out=self.fbuf)
        self.fbuf += self.z
        np.clip(self.fbuf, self.qmin, self.qmax, out=self.fbuf)
        np.copyto(self.out, self.fbuf, casting="unsafe")
        return self.out


class _MatmulMixin:
    """Shared conv/linear lowering: folded bias, exactness gate, fused
    or plain requantization bounds."""

    def _plan_requant(self, op, fused_relu: Optional[QReLU],
                      chan_shape: Optional[Tuple[int, ...]] = None):
        """(z_out, lo, hi, m0, rounding, total) for the output clamp.

        ``chan_shape`` reshapes per-channel multipliers to broadcast
        against the accumulator layout (convs: ``(G, Fg, 1)``);
        per-tensor multipliers stay size-1 and broadcast untouched.
        """
        _, z1, lo1, hi1 = _scalar_qp(op.out_qp)
        if fused_relu is None:
            z_out, lo, hi = z1, lo1, hi1
        else:
            _, z2, lo2, hi2 = _scalar_qp(fused_relu.out_qp)
            z_out = z2
            lo = max(lo2, z2)
            hi = min(hi2, hi1 - z1 + z2)
        m0, rounding, total = _prep_requant(op.m0, op.shift)
        if op.per_channel and chan_shape is not None:
            m0 = m0.reshape(chan_shape)
            rounding = rounding.reshape(chan_shape)
            total = total.reshape(chan_shape)
        return z_out, lo, hi, m0, rounding, total

    @staticmethod
    def _fold_bias(op) -> np.ndarray:
        w = op.q_weight.reshape(op.q_weight.shape[0], -1)
        z_in = int(op.in_qp.zero_point)
        return op.bias_q - z_in * w.sum(axis=1)

    @staticmethod
    def _check_bounds(op, eff_bias: np.ndarray) -> type:
        """The narrowest float dtype whose GEMM is exact for ``op``.

        Every partial sum of ``W @ q + bias`` is an integer bounded by
        the per-filter ``Σ|w|·max|q| + |bias|``; float32 represents all
        of them exactly below 2**24, float64 below 2**53.  Bounds past
        the requantization headroom refuse to lower.
        """
        w = op.q_weight.reshape(op.q_weight.shape[0], -1)
        qabs = max(abs(int(op.in_qp.qmin)), abs(int(op.in_qp.qmax)))
        bound = (np.abs(w).sum(axis=1) * qabs + np.abs(eff_bias)).max()
        if bound >= min(_F64_EXACT, _REQUANT_SAFE):
            raise EdgeLoweringError(
                f"accumulator bound {bound} exceeds the exact-GEMM / "
                "requantization headroom")
        return np.float32 if bound < _F32_EXACT else np.float64

    def _requant_clamp_store(self, accf: np.ndarray,
                             out_view: np.ndarray) -> None:
        """Exact-int float accumulator -> requantized int32 output.

        The multiply-round-shift runs in place on the planned int64
        buffer; the final clamp writes straight into ``out_view``.  The
        one home of this sequence for both conv and linear steps — it
        must stay bit-equal to ``engine._requantize_prepped``.
        """
        acc = self.acci
        np.copyto(acc, accf, casting="unsafe")  # exact: integer values
        np.multiply(acc, self.m0, out=acc)
        np.less(acc, 0, out=self.neg)
        acc += self.rounding
        np.subtract(acc, self.neg, out=acc)
        np.right_shift(acc, self.total, out=acc)
        acc += self.z_out
        np.clip(acc, self.lo, self.hi, out=out_view)


class _ConvStep(_Step, _MatmulMixin):
    """Zero-point-folded integer convolution via a tap-major exact GEMM,
    optionally max-pooled on its accumulator before requantization.

    ``N`` is the row tile's rows.  The window view is copied straight
    into an ``(N, G, Kg, P)`` scratch (``Kg = Cg·kh·kw`` taps,
    ``P = OH·OW`` positions, no transpose) and
    contracted as ``(G, Fg, Kg) @ (N, G, Kg, P)``, the layout of
    ``nn/graph.py``'s float conv: the accumulator lands in NCHW order,
    so requantization writes the activation contiguously.  The GEMM runs
    in the narrowest float width :meth:`_check_bounds` proves exact.

    With a hoisted ``maxpool`` (unpadded, planned by
    :func:`_hoistable_pool`) the step runs GEMM -> tap-wise max over the
    NCHW accumulator into a pooled-size accumulator -> folded bias add
    -> requantize and clamp into the pooled activation, so only one in
    ``k*k`` (for ``stride == k``) accumulator values is ever
    requantized — exact by the monotonicity argument in the module
    docstring ("Pool before requantize").
    """

    def __init__(self, op: QConv2d, shape, scratch,
                 fused_relu: Optional[QReLU], out: np.ndarray,
                 maxpool: Optional[QMaxPool2d] = None):
        N, C, H, W = shape
        F_out, _, kh, kw = op.q_weight.shape
        G = op.groups
        Cg, Fg = C // G, F_out // G
        st, p = op.stride, op.padding
        oh = (H + 2 * p - kh) // st + 1
        ow = (W + 2 * p - kw) // st + 1
        self.kh, self.kw, self.st = kh, kw, st
        Kg = Cg * kh * kw
        P = oh * ow
        eff_bias = self._fold_bias(op)
        self.gemm_dtype = self._check_bounds(op, eff_bias)
        self.biasf = eff_bias.astype(self.gemm_dtype).reshape(G, Fg, 1)
        # (G, Fg, Kg) weight panels, broadcast over the batch
        self.wf = np.ascontiguousarray(
            op.q_weight.reshape(G, Fg, Kg).astype(self.gemm_dtype))
        (self.z_out, self.lo, self.hi, self.m0, self.rounding,
         self.total) = self._plan_requant(op, fused_relu, (G, Fg, 1))
        if p:
            z_in = int(op.in_qp.zero_point)
            # padding width keys the buffer too: same padded shape with a
            # different border width must not share plan-time border fills
            pad = scratch(("edge-pad", z_in, p), (C, H + 2 * p, W + 2 * p),
                          np.int32)
            # the border is the folded zero-point, constant across runs
            _fill_border(pad, p, z_in)
            self.pad = pad
            self.pad_interior = pad[:, :, p:-p, p:-p]
            self.src, _, _ = _window_view(pad, kh, kw, st, st)
        else:
            self.pad = None
        # (N, C, kh, kw, OH, OW) is (N, G, Kg, P) in memory order
        self.cols = scratch(("edge-cols",), (G, Kg, P), self.gemm_dtype)
        self.cols_view = self.cols.reshape(N, C, kh, kw, oh, ow)
        self.accf = scratch(("edge-accf",), (G, Fg, P), self.gemm_dtype)
        self.pool_k = None
        self.accq = self.accf           # the accumulator that requantizes
        if maxpool is not None:
            self.pool_k = maxpool.kernel
            self.pool_st = _pool_stride(maxpool)
            poh, pow_ = _pooled_hw(maxpool, oh, ow)
            P = poh * pow_
            self.accf_nchw = self.accf.reshape(N, F_out, oh, ow)
            self.accq = scratch(("edge-accp",), (G, Fg, P), self.gemm_dtype)
            self.accq_nchw = self.accq.reshape(N, F_out, poh, pow_)
        self.acci = scratch(("edge-acci",), (G, Fg, P), np.int64)
        self.neg = scratch(("edge-neg",), (G, Fg, P), np.bool_)
        self.out = out
        self.out_view = out.reshape(N, G, Fg, P)

    def run(self, q: np.ndarray) -> np.ndarray:
        if self.pad is not None:
            np.copyto(self.pad_interior, q)
            src = self.src
        else:
            src, _, _ = _window_view(q, self.kh, self.kw, self.st, self.st)
        np.copyto(self.cols_view, src)          # gather + int->float cast
        np.matmul(self.wf, self.cols, out=self.accf)
        if self.pool_k is not None:
            _max_pool_taps(self.accf_nchw, self.pool_k, self.pool_st,
                           self.accq_nchw)
        self.accq += self.biasf
        self._requant_clamp_store(self.accq, self.out_view)
        return self.out


class _LinearStep(_Step, _MatmulMixin):
    """Zero-point-folded integer linear layer via an exact float GEMM,
    in the narrowest width :meth:`_check_bounds` proves exact."""

    def __init__(self, op: QLinear, shape, scratch,
                 fused_relu: Optional[QReLU], out: np.ndarray):
        _, K = shape
        if K != op.q_weight.shape[1]:
            raise EdgeLoweringError(
                f"linear expects {op.q_weight.shape[1]} features, got {K}")
        eff_bias = self._fold_bias(op)
        self.gemm_dtype = self._check_bounds(op, eff_bias)
        self.biasf = eff_bias.astype(self.gemm_dtype)
        self.wf = np.ascontiguousarray(op.q_weight.T.astype(self.gemm_dtype))
        # per-channel multipliers broadcast along the (N, F) feature axis
        (self.z_out, self.lo, self.hi, self.m0, self.rounding,
         self.total) = self._plan_requant(op, fused_relu)
        F_out = op.q_weight.shape[0]
        self.xf = scratch(("edge-cols",), (K,), self.gemm_dtype)
        self.accf = scratch(("edge-accf",), (F_out,), self.gemm_dtype)
        self.acci = scratch(("edge-acci",), (F_out,), np.int64)
        self.neg = scratch(("edge-neg",), (F_out,), np.bool_)
        self.out = out

    def run(self, q: np.ndarray) -> np.ndarray:
        np.copyto(self.xf, q)
        np.matmul(self.xf, self.wf, out=self.accf)
        self.accf += self.biasf
        self._requant_clamp_store(self.accf, self.out)
        return self.out


class _ReLUStep(_Step):
    """Standalone QReLU as a grid-sized lookup table (one gather)."""

    def __init__(self, op: QReLU, out: np.ndarray):
        self.qmin = int(op.in_qp.qmin)
        grid = np.arange(self.qmin, int(op.in_qp.qmax) + 1, dtype=np.int32)
        self.lut = np.ascontiguousarray(op(grid).astype(np.int32))
        self.out = out

    def run(self, q: np.ndarray) -> np.ndarray:
        np.subtract(q, self.qmin, out=q)   # q is a dead pooled buffer
        np.take(self.lut, q, out=self.out, mode="clip")
        return self.out


class _PoolStep(_Step):
    """Integer max pooling as a tap-wise maximum into the planned output."""

    def __init__(self, op: QMaxPool2d, shape, scratch, out: np.ndarray):
        N, C, H, W = shape
        self.k = op.kernel
        self.st = _pool_stride(op)
        p = op.padding
        if p:
            fill = int(np.iinfo(np.int32).min)
            pad = scratch(("edge-pad", fill, p), (C, H + 2 * p, W + 2 * p),
                          np.int32)
            _fill_border(pad, p, fill)
            self.pad = pad
            self.pad_interior = pad[:, :, p:-p, p:-p]
        else:
            self.pad = None
        self.out = out

    def run(self, q: np.ndarray) -> np.ndarray:
        if self.pad is not None:
            np.copyto(self.pad_interior, q)
            q = self.pad
        return _max_pool_taps(q, self.k, self.st, self.out)


class _FlattenStep(_Step):
    def run(self, q: np.ndarray) -> np.ndarray:
        return q.reshape(len(q), -1)


class _DequantStep(_Step):
    """Integer grid -> float64 logits in the planned output buffer."""

    def __init__(self, op: Dequantize, out: np.ndarray):
        self.s = float(op.qp.scale)
        self.z = float(op.qp.zero_point)
        self.out = out

    def run(self, q: np.ndarray) -> np.ndarray:
        np.copyto(self.out, q)
        self.out -= self.z
        self.out *= self.s
        return self.out


def _plan(ops, rows: int, example: np.ndarray, pool: ScratchPool
          ) -> Tuple[List[_Step], int, int]:
    """Lower ``ops`` into steps for a ``rows``-row tile of ``example``.

    Returns ``(steps, fused_relus, peak)``.  ``peak`` is the largest
    per-step scratch in bytes: a step's planned buffers plus the
    activations it reads and writes.  Every buffer is ``rows`` rows, so
    a one-row plan prices each step per row.
    """
    shape: Tuple[int, ...] = (rows,) + example.shape[1:]
    steps: List[_Step] = []
    fused_relus = 0
    parity = 0
    owns_current = False   # does the running value live in our buffers?
    live = rows * example[:1].nbytes    # bytes of the running value
    used = peak = 0

    def scratch(key, per_row, dtype) -> np.ndarray:
        nonlocal used
        buf = pool.acquire(key, rows, tuple(per_row), dtype, None)[:rows]
        used += buf.nbytes
        return buf

    def act(new_shape, dtype=np.int32) -> np.ndarray:
        nonlocal parity, owns_current, live
        buf = scratch(("edge-act", parity), new_shape[1:], dtype)
        parity ^= 1
        owns_current = True
        live = buf.nbytes
        return buf

    ops = list(ops)
    i = 0
    while i < len(ops):
        op = ops[i]
        used = live
        if isinstance(op, QuantizeInput):
            out = act(shape)
            steps.append(_QuantizeStep(op, shape, example.dtype, scratch, out))
        elif isinstance(op, (QConv2d, QLinear)):
            fused = None
            if (i + 1 < len(ops) and isinstance(ops[i + 1], QReLU)
                    and _can_fuse_relu(op, ops[i + 1])):
                fused = ops[i + 1]
                fused_relus += 1
                i += 1
            if isinstance(op, QConv2d):
                if len(shape) != 4:
                    raise EdgeLoweringError("conv input must be NCHW")
                N, C, H, W = shape
                kh, kw = op.q_weight.shape[2:]
                oh = (H + 2 * op.padding - kh) // op.stride + 1
                ow = (W + 2 * op.padding - kw) // op.stride + 1
                if oh < 1 or ow < 1 or C % op.groups:
                    raise EdgeLoweringError("conv geometry is invalid")
                # an unpadded max pool after the conv (and its relu)
                # runs on the conv's accumulator instead
                j = _hoistable_pool(op, ops, i + 1, (oh, ow))
                maxpool = ops.pop(j) if j is not None else None
                if maxpool is not None:
                    oh, ow = _pooled_hw(maxpool, oh, ow)
                shape = (N, op.q_weight.shape[0], oh, ow)
                out = act(shape)
                steps.append(_ConvStep(op, (N, C, H, W), scratch, fused, out,
                                       maxpool))
            else:
                if len(shape) != 2:
                    raise EdgeLoweringError("linear input must be 2-D")
                in_shape = shape
                shape = (shape[0], op.q_weight.shape[0])
                out = act(shape)
                steps.append(_LinearStep(op, in_shape, scratch, fused, out))
        elif isinstance(op, QReLU):
            if not owns_current:
                # the LUT step reclaims its input buffer in place,
                # which must never be the caller's array
                raise EdgeLoweringError("relu on the raw program input")
            out = act(shape)
            steps.append(_ReLUStep(op, out))
        elif isinstance(op, QMaxPool2d):
            if len(shape) != 4:
                raise EdgeLoweringError("maxpool input must be NCHW")
            N, C, H, W = shape
            oh, ow = _pooled_hw(op, H, W)
            if oh < 1 or ow < 1:
                raise EdgeLoweringError("maxpool geometry is invalid")
            shape = (N, C, oh, ow)
            out = act(shape)
            steps.append(_PoolStep(op, (N, C, H, W), scratch, out))
        elif isinstance(op, QFlatten):
            shape = (shape[0], int(np.prod(shape[1:])))
            steps.append(_FlattenStep())
        elif isinstance(op, Dequantize):
            steps.append(_DequantStep(op, act(shape, np.float64)))
        else:
            raise EdgeLoweringError(f"cannot lower op {type(op).__name__}")
        peak = max(peak, used)
        i += 1
    return steps, fused_relus, peak


def _tile_rows(ops, example: np.ndarray) -> int:
    """Rows of the largest tile whose biggest per-step scratch fits
    :data:`TILE_BYTES` (at least one)."""
    # a one-row plan on a throwaway pool prices the scratch per row
    row_peak = _plan(ops, 1, example, ScratchPool())[2]
    return max(1, TILE_BYTES // row_peak)


class EdgeProgram:
    """A planned, fused integer pipeline for one (batch shape, dtype),
    run one row tile at a time.

    Build with the :class:`EdgeModel` whose ops to lower and an example
    batch; construction validates the program bit-for-bit against the
    model's eager op loop on the whole batch and raises
    :class:`EdgeLoweringError` on any mismatch or unloweable op.
    ``tile_rows`` is the row tile ``T`` the steps are planned for
    (:data:`TILE_BYTES`); ``tail_steps`` is the plan for the ragged
    last tile, over the same pooled buffers (``steps`` itself when
    ``T`` divides the batch).
    """

    def __init__(self, model: EdgeModel, example: np.ndarray,
                 pool: Optional[ScratchPool] = None, validate: bool = True):
        # chaos-harness injection point: an error fault here is a failed
        # plan build, caught by EdgeModel's loud eager-fallback path
        faults.fire("edge.plan.build")
        x = np.asarray(example)
        if x.ndim < 2 or len(x) == 0:
            raise EdgeLoweringError("example batch must be non-empty")
        pool = pool if pool is not None else ScratchPool()
        n = len(x)
        self.tile_rows = min(n, _tile_rows(model.ops, x))
        self.steps, self.fused_relus, _ = _plan(model.ops, self.tile_rows,
                                                x, pool)
        ragged = n % self.tile_rows
        self.tail_steps = (_plan(model.ops, ragged, x, pool)[0] if ragged
                           else self.steps)
        if validate:
            self._validate(model, x)

    def run(self, x: np.ndarray) -> np.ndarray:
        """Execute the pipeline tile by tile; returns freshly-owned
        logits for the whole batch."""
        # kernel-dispatch injection point (error faults model a kernel
        # failing at dispatch time; the serving ladder degrades to eager)
        faults.fire("edge.dispatch")
        x = np.asarray(x)
        n, t = len(x), self.tile_rows
        out = None
        for lo in range(0, n, t):
            q = x[lo:lo + t]
            rows = len(q)
            for step in self.steps if rows == t else self.tail_steps:
                q = step.run(q)
            if out is None:
                out = np.empty((n,) + q.shape[1:], dtype=q.dtype)
            out[lo:lo + rows] = q
        return out

    # -- validation ----------------------------------------------------- #
    def _validate(self, model: EdgeModel, example: np.ndarray) -> None:
        """Every row of the build batch must match the eager op loop.

        The eager loop replays the batch one row tile at a time: its ops
        are row-independent integer arithmetic, so this is the
        whole-batch check without the eager loop's whole-batch int64
        temporaries.
        """
        faults.fire("edge.plan.validate")
        got = self.run(example)
        # corruption injection point: flips one element of the *compiled*
        # output — validation is the defense against silent corruption,
        # so the flip must be caught right here, never downstream
        faults.corrupt("edge.plan.validate", got)
        t = self.tile_rows
        for lo in range(0, len(example), t):
            ref = model._eager_forward(example[lo:lo + t])
            tile = got[lo:lo + t]
            if (tile.shape != ref.shape or tile.dtype != ref.dtype
                    or not np.array_equal(tile, ref)):
                raise EdgeLoweringError(
                    "compiled edge program does not match the eager op loop")
