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
"Row tiles") in one of the model's two lane
:class:`~repro.nn.graph.ScratchPool` objects, shared by the model's
per-shape programs.  Everything but the pads is packed into the pool's
one byte slab (its arena): a step's running input sits at one end, its
scratch stacks on after it, and its output goes at the other end, where
the next step reads it.  Producers and consumers never alias, and a
slab costs the largest step's buffers, not the sum of every step's.
Padded images get one pool buffer per padded op, outside the slab, so
their constant borders are written once, at plan time; the step that
feeds a padded conv or pool writes its output straight into the pad's
interior.
Convolutions are tap-major: the window view is copied straight into an
``(N, G, Kg, P)`` scratch and contracted as
``(G, Fg, Kg) @ (N, G, Kg, P)``, so the accumulator is already NCHW and
requantization writes each activation contiguously (or into the next
pad's interior).
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
whatever its summation order; bounds past 2**53 refuse to lower.  The
int64 requantization cannot overflow: the eager layer refused at
construction any weights whose accumulator times ``m0`` could, and the
program's accumulator is the eager one.  The
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
cache and a lane holds a tile's scratch however large the batch.  A
ragged last tile gets one extra plan in the same slab and pads.  A
batch with at least two full tiles runs on both lanes
(:mod:`repro.nn.lanes`): the first half of its full tiles and the
ragged tail on the calling thread, the second half on the lane thread,
each lane in its own pool.  Bytes
cannot move: every step is row-independent and the GEMMs are exact
integer arithmetic, so a row's logits do not depend on its tile or its
lane.

Safety mirrors ``graph.py``/``train_graph.py``: a freshly planned
program replays the whole build batch through the same split and must
match the eager op loop (run tile by tile) **bit for bit**, else it
raises and
:meth:`EdgeModel.predict` warns and pins the eager loop for that shape —
a fallback run is exactly the run that was never compiled.  The
checked output answers the predict that built the program.
"""

from __future__ import annotations

from functools import partial
from typing import List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from ..nn import lanes
from ..nn.graph import _ARENA_ALIGN, ScratchPool
from ..serve import faults
from .engine import (Dequantize, EdgeModel, QConv2d, QFlatten, QLinear,
                     QMaxPool2d, QReLU, QuantizeInput, _max_pool_taps,
                     _prep_requant)

#: float32 GEMM exactness limit: integer sums must stay below 2**24
_F32_EXACT = np.int64(1) << 24
#: float64 GEMM exactness limit: integer sums must stay below 2**53
_F64_EXACT = np.int64(1) << 53
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
        self.fbuf = scratch(shape[1:], fdtype)
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
        of them exactly below 2**24, float64 below 2**53, and bounds
        past that refuse to lower.  The int64 requantization needs no
        check of its own: the finished accumulator ``W @ q + eff_bias``
        equals the eager layer's ``W @ (q - z_in) + bias`` (a hoisted
        pool keeps a subset of those values), and ``_QMatmul``
        construction already refused any layer whose bound on that
        value times ``m0``, plus the rounding constant, leaves int64.
        """
        w = op.q_weight.reshape(op.q_weight.shape[0], -1)
        qabs = max(abs(int(op.in_qp.qmin)), abs(int(op.in_qp.qmax)))
        bound = (np.abs(w).sum(axis=1) * qabs + np.abs(eff_bias)).max()
        if bound >= _F64_EXACT:
            raise EdgeLoweringError(
                f"accumulator bound {bound} exceeds the exact-GEMM "
                "headroom")
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

    A padded conv reads ``pad``, its padded input image; with
    ``copy_in`` the step copies its input into the interior, otherwise
    the previous step already wrote it there.
    """

    def __init__(self, op: QConv2d, shape, scratch,
                 fused_relu: Optional[QReLU], out: np.ndarray,
                 maxpool: Optional[QMaxPool2d] = None,
                 pad: Optional[np.ndarray] = None, copy_in: bool = False):
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
         self.total) = self._plan_requant(op, fused_relu, (G, Fg, 1, 1))
        self.pad, self.copy_in = pad, copy_in
        if p:
            self.pad_interior = pad[:, :, p:-p, p:-p]
            self.src, _, _ = _window_view(pad, kh, kw, st, st)
        # (N, C, kh, kw, OH, OW) is (N, G, Kg, P) in memory order
        self.cols = scratch((G, Kg, P), self.gemm_dtype)
        self.cols_view = self.cols.reshape(N, C, kh, kw, oh, ow)
        self.accf = scratch((G, Fg, P), self.gemm_dtype)
        self.pool_k = None
        self.accq = self.accf           # the accumulator that requantizes
        if maxpool is not None:
            self.pool_k = maxpool.kernel
            self.pool_st = _pool_stride(maxpool)
            poh, pow_ = _pooled_hw(maxpool, oh, ow)
            P = poh * pow_
            self.accf_nchw = self.accf.reshape(N, F_out, oh, ow)
            self.accq = scratch((G, Fg, P), self.gemm_dtype)
            self.accq_nchw = self.accq.reshape(N, F_out, poh, pow_)
            oh, ow = poh, pow_
        # requantization runs on (N, G, Fg, OH, OW) views, so it can
        # write an output that is the interior of the next step's pad
        self.acc5 = self.accq.reshape(N, G, Fg, oh, ow)
        self.acci = scratch((G, Fg, oh, ow), np.int64)
        self.neg = scratch((G, Fg, oh, ow), np.bool_)
        self.out = out
        self.out_view = out.reshape(N, G, Fg, oh, ow)

    def run(self, q: np.ndarray) -> np.ndarray:
        if self.pad is None:
            src, _, _ = _window_view(q, self.kh, self.kw, self.st, self.st)
        else:
            if self.copy_in:
                np.copyto(self.pad_interior, q)
            src = self.src
        np.copyto(self.cols_view, src)          # gather + int->float cast
        np.matmul(self.wf, self.cols, out=self.accf)
        if self.pool_k is not None:
            _max_pool_taps(self.accf_nchw, self.pool_k, self.pool_st,
                           self.accq_nchw)
        self.accq += self.biasf
        self._requant_clamp_store(self.acc5, self.out_view)
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
        self.xf = scratch((K,), self.gemm_dtype)
        self.accf = scratch((F_out,), self.gemm_dtype)
        self.acci = scratch((F_out,), np.int64)
        self.neg = scratch((F_out,), np.bool_)
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
    """Integer max pooling as a tap-wise maximum into the planned output;
    a padded pool reads ``pad`` as :class:`_ConvStep` does."""

    def __init__(self, op: QMaxPool2d, out: np.ndarray,
                 pad: Optional[np.ndarray] = None, copy_in: bool = False):
        self.k = op.kernel
        self.st = _pool_stride(op)
        self.pad, self.copy_in = pad, copy_in
        if pad is not None:
            p = op.padding
            self.pad_interior = pad[:, :, p:-p, p:-p]
        self.out = out

    def run(self, q: np.ndarray) -> np.ndarray:
        if self.pad is not None:
            if self.copy_in:
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


def _aligned(nbytes: int) -> int:
    return -(-nbytes // _ARENA_ALIGN) * _ARENA_ALIGN


class _Plan(NamedTuple):
    """One lowering of an op list for a row tile.

    ``peak`` is the largest per-step scratch in bytes: a step's planned
    buffers plus the activations it reads and writes.  ``sizes`` lists,
    per step, the bytes of every slab buffer the step touches (its
    running input first, when that lives in the slab).  ``row_shape``
    and ``dtype`` describe one row of the program's output.
    """

    steps: List[_Step]
    fused_relus: int
    peak: int
    sizes: List[List[int]]
    row_shape: Tuple[int, ...]
    dtype: np.dtype


def _plan(ops, rows: int, example: np.ndarray,
          pool: Optional[ScratchPool] = None, nbytes: int = 0) -> _Plan:
    """Lower ``ops`` into steps for a ``rows``-row tile of ``example``.

    With a ``pool`` (one lane's) every buffer but the pads is a view of
    its ``nbytes`` slab (at least :func:`_slab_bytes`); without one each
    buffer is its own array, which is how a one-row plan prices the
    steps.  The running value sits at one end of the slab; a step stacks
    its scratch on after it and writes its output at the other end,
    where the next step reads it.  So a step needs only the sum of the
    buffers it touches, and no step's scratch or output overlaps its
    input.  Padded images sit outside the slab, one pool buffer per
    padded op, so their borders are written once; a step whose output
    feeds a padded conv or pool writes straight into the pad's
    interior.
    """
    slab = None if pool is None else pool.arena(nbytes)[:nbytes]
    shape: Tuple[int, ...] = (rows,) + example.shape[1:]
    dtype = example.dtype
    steps: List[_Step] = []
    sizes: List[List[int]] = []
    fused_relus = 0
    at = None       # slab end of the running value: 0 low, 1 high, or
                    # None while it is outside the slab
    owned = False   # is the running value in our buffers (slab or pad)?
    ready = None    # the pad whose interior holds the running value
    live = rows * example[:1].nbytes    # bytes of the running value
    peak = 0

    def place(per_row, kind, end: int) -> np.ndarray:
        """A buffer of ``rows`` x ``per_row`` ``kind`` at slab ``end``."""
        nonlocal used
        full = (rows,) + tuple(per_row)
        nbytes = int(np.prod(full)) * np.dtype(kind).itemsize
        used += nbytes
        sizes[-1].append(nbytes)
        if slab is None:
            return np.empty(full, dtype=kind)
        taken[end] += _aligned(nbytes)
        if taken[0] + taken[1] > len(slab):
            raise EdgeLoweringError("a step overflows its lane's slab")
        off = (taken[0] - _aligned(nbytes) if end == 0
               else len(slab) - taken[1])
        return slab[off:off + nbytes].view(kind).reshape(full)

    def scratch(per_row, kind) -> np.ndarray:
        return place(per_row, kind, 0 if at is None else at)

    def pad_for(padded, per_row) -> np.ndarray:
        """``padded``'s (a conv or pool) padded input image: a pool
        buffer of its own, its constant border written here.  One per
        op, so a step never writes the pad it reads."""
        nonlocal used
        p = padded.padding
        fill = (int(padded.in_qp.zero_point) if isinstance(padded, QConv2d)
                else int(np.iinfo(np.int32).min))
        C, H, W = per_row
        per_row = (C, H + 2 * p, W + 2 * p)
        if pool is None:
            buf = np.empty((rows,) + per_row, dtype=np.int32)
        else:
            buf = pool.acquire(("edge-pad", id(padded)), rows, per_row,
                               np.int32, None)[:rows]
        _fill_border(buf, p, fill)
        used += buf.nbytes
        return buf

    def act(new_shape, kind=np.int32) -> np.ndarray:
        nonlocal out_end, live, dtype, owned, ready
        owned = True
        nxt = ops[i + 1] if i + 1 < len(ops) else None
        if (len(new_shape) == 4 and kind == np.int32
                and isinstance(nxt, (QConv2d, QMaxPool2d)) and nxt.padding):
            # the consumer reads a padded image: write its interior
            ready = pad_for(nxt, new_shape[1:])
            out_end, live, dtype = None, ready.nbytes, ready.dtype
            p = nxt.padding
            return ready[:, :, p:-p, p:-p]
        out_end = 1 if at in (None, 0) else 0
        buf = place(new_shape[1:], kind, out_end)
        live, dtype = buf.nbytes, buf.dtype
        return buf

    def padded_input(padded, per_row) -> Tuple[Optional[np.ndarray], bool]:
        """``(pad, copy_in)`` of a conv or pool: no pad when unpadded,
        the pad the previous step wrote, or one to copy the input into."""
        if not padded.padding:
            return None, False
        if in_pad is not None:
            return in_pad, False
        return pad_for(padded, per_row), True

    ops = list(ops)
    i = 0
    while i < len(ops):
        op = ops[i]
        used = live
        taken = [0, 0]
        sizes.append([])
        if at is not None:
            taken[at] = _aligned(live)
            sizes[-1].append(live)
        out_end = at
        in_pad, ready = ready, None
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
                pad, copy_in = padded_input(op, shape[1:])
                # an unpadded max pool after the conv (and its relu)
                # runs on the conv's accumulator instead
                j = _hoistable_pool(op, ops, i + 1, (oh, ow))
                maxpool = ops.pop(j) if j is not None else None
                if maxpool is not None:
                    oh, ow = _pooled_hw(maxpool, oh, ow)
                shape = (N, op.q_weight.shape[0], oh, ow)
                out = act(shape)
                steps.append(_ConvStep(op, (N, C, H, W), scratch, fused, out,
                                       maxpool, pad, copy_in))
            else:
                if len(shape) != 2:
                    raise EdgeLoweringError("linear input must be 2-D")
                in_shape = shape
                shape = (shape[0], op.q_weight.shape[0])
                out = act(shape)
                steps.append(_LinearStep(op, in_shape, scratch, fused, out))
        elif isinstance(op, QReLU):
            if not owned:
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
            pad, copy_in = padded_input(op, shape[1:])
            shape = (N, C, oh, ow)
            out = act(shape)
            steps.append(_PoolStep(op, out, pad, copy_in))
        elif isinstance(op, QFlatten):
            shape = (shape[0], int(np.prod(shape[1:])))
            steps.append(_FlattenStep())
        elif isinstance(op, Dequantize):
            steps.append(_DequantStep(op, act(shape, np.float64)))
        else:
            raise EdgeLoweringError(f"cannot lower op {type(op).__name__}")
        at = out_end
        peak = max(peak, used)
        i += 1
    return _Plan(steps, fused_relus, peak, sizes, shape[1:], np.dtype(dtype))


def _slab_bytes(sizes: List[List[int]], rows: int) -> int:
    """Bytes of a lane slab that holds every step of a ``rows``-row
    plan, from a one-row plan's :attr:`_Plan.sizes`."""
    return max((sum(_aligned(rows * b) for b in step) for step in sizes),
               default=0)


def _tile_rows(ops, example: np.ndarray) -> int:
    """Rows of the largest tile whose biggest per-step scratch fits
    :data:`TILE_BYTES` (at least one)."""
    return max(1, TILE_BYTES // _plan(ops, 1, example).peak)


class EdgeProgram:
    """A planned, fused integer pipeline for one (batch shape, dtype),
    run one row tile at a time on up to two lanes.

    Build with the :class:`EdgeModel` whose ops to lower, an example
    batch and the model's two lane pools (fresh
    :class:`~repro.nn.graph.ScratchPool` objects when not given);
    construction raises :class:`EdgeLoweringError` on an unlowerable
    op.  :meth:`validate` then checks the program bit-for-bit against
    the model's eager op loop on the build batch, raising
    :class:`EdgeLoweringError` on any mismatch, and returns the checked
    logits; :meth:`EdgeModel._build_program` validates every program
    before it serves.
    ``tile_rows`` is the row tile ``T`` the steps are planned for
    (:data:`TILE_BYTES`); ``tail_steps`` is the plan for the ragged
    last tile (``steps`` itself when ``T`` divides the batch).  Both
    run on the calling thread in lane 0's pool.  ``lane_steps`` is the
    full-tile plan in lane 1's pool, built when the batch has at least
    two full tiles (None otherwise).
    """

    def __init__(self, model: EdgeModel, example: np.ndarray,
                 pools: Optional[Sequence[ScratchPool]] = None):
        # chaos-harness injection point: an error fault here is a failed
        # plan build, caught by EdgeModel's loud eager-fallback path
        faults.fire("edge.plan.build")
        x = np.asarray(example)
        if x.ndim < 2 or len(x) == 0:
            raise EdgeLoweringError("example batch must be non-empty")
        if pools is None:
            pools = (ScratchPool(), ScratchPool())
        n = len(x)
        row = _plan(model.ops, 1, x)
        t = max(1, TILE_BYTES // row.peak)
        self.tile_rows = min(n, t)
        # sized for a full tile, so every later program of this input
        # shape plans into the same slab
        nbytes = _slab_bytes(row.sizes, t)

        def plan(rows: int, lane: int) -> _Plan:
            return _plan(model.ops, rows, x, pools[lane], nbytes)

        head = plan(self.tile_rows, 0)
        self.steps, self.fused_relus = head.steps, head.fused_relus
        self.row_shape, self.dtype = head.row_shape, head.dtype
        ragged = n % self.tile_rows
        self.tail_steps = plan(ragged, 0).steps if ragged else self.steps
        self.lane_steps = (plan(self.tile_rows, 1).steps
                           if n >= 2 * self.tile_rows else None)

    def run(self, x: np.ndarray) -> np.ndarray:
        """Execute the pipeline tile by tile; returns freshly-owned
        logits for the whole batch.

        With two or more full tiles, the first half of the full tiles
        and the ragged tail run here and the second half on the lane
        thread (:mod:`repro.nn.lanes`), each lane in its own pool.  The
        caller must hold the model's lock: the lane pools are shared by
        the model's programs.
        """
        # kernel-dispatch injection point (error faults model a kernel
        # failing at dispatch time; the serving ladder degrades to eager)
        faults.fire("edge.dispatch")
        x = np.asarray(x)
        n, t = len(x), self.tile_rows
        out = np.empty((n,) + self.row_shape, dtype=self.dtype)
        if self.lane_steps is None:
            self._walk(x, out, 0, n, self.steps)
            return out
        end = n - n % t
        mid = end // t // 2 * t

        def here() -> None:
            self._walk(x, out, 0, mid, self.steps)
            self._walk(x, out, end, n, self.steps)

        lanes._on_lanes([here, partial(self._walk, x, out, mid, end,
                                       self.lane_steps)])
        return out

    def _walk(self, x: np.ndarray, out: np.ndarray, lo: int, hi: int,
              steps: List[_Step]) -> None:
        """Rows ``[lo, hi)`` of ``x``, tile by tile through ``steps`` (a
        ragged last tile through :attr:`tail_steps`), into ``out``."""
        t = self.tile_rows
        for start in range(lo, hi, t):
            q = x[start:min(start + t, hi)]
            rows = len(q)
            for step in steps if rows == t else self.tail_steps:
                q = step.run(q)
            out[start:start + rows] = q

    # -- validation ----------------------------------------------------- #
    def validate(self, model: EdgeModel, example: np.ndarray) -> np.ndarray:
        """Every row of the build batch must match the eager op loop;
        returns the checked logits, which answer ``example`` itself.

        The eager loop replays the batch one row tile at a time: its ops
        are row-independent integer arithmetic, so this is the
        whole-batch check without the eager loop's whole-batch
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
        return got
