"""Affine (uniform) quantization arithmetic.

Implements the int8/int4 quantization scheme of Jacob et al. (CVPR'18),
the scheme behind TensorFlow Model Optimization / TFLite that the paper's
adapted models use: real values are mapped to integers via

    q = clamp(round(x / scale) + zero_point, qmin, qmax)
    x_hat = (q - zero_point) * scale

Weights use symmetric per-channel quantization (zero_point = 0), while
activations use asymmetric per-tensor quantization.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np


@dataclass(frozen=True)
class QuantParams:
    """Quantization parameters for one tensor.

    Attributes
    ----------
    scale:
        Positive real step size; scalar array, or per-channel vector when
        ``axis`` is not None.
    zero_point:
        Integer offset mapping real 0.0 onto the grid; same shape as scale.
    qmin, qmax:
        Inclusive integer range, e.g. (-128, 127) for int8 symmetric
        weights or (0, 255) for uint8 activations.
    axis:
        Channel axis for per-channel quantization, or None for per-tensor.
    """

    scale: np.ndarray
    zero_point: np.ndarray
    qmin: int
    qmax: int
    axis: Optional[int] = None

    def broadcast_shape(self, ndim: int) -> Tuple[int, ...]:
        """Shape that broadcasts scale/zp against an ndim-dim tensor."""
        if self.axis is None:
            return ()
        shape = [1] * ndim
        shape[self.axis] = int(np.asarray(self.scale).size)
        return tuple(shape)

    def scale_for(self, ndim: int) -> np.ndarray:
        s = np.asarray(self.scale, dtype=np.float64)
        if self.axis is None:
            return s
        return s.reshape(self.broadcast_shape(ndim))

    def zero_point_for(self, ndim: int) -> np.ndarray:
        z = np.asarray(self.zero_point, dtype=np.float64)
        if self.axis is None:
            return z
        return z.reshape(self.broadcast_shape(ndim))


def int_range(bits: int, signed: bool) -> Tuple[int, int]:
    """Inclusive integer range of a ``bits``-wide type."""
    if bits < 2 or bits > 32:
        raise ValueError(f"unsupported bit width: {bits}")
    if signed:
        return -(2 ** (bits - 1)), 2 ** (bits - 1) - 1
    return 0, 2 ** bits - 1


def choose_qparams(min_val: np.ndarray, max_val: np.ndarray, qmin: int, qmax: int,
                   symmetric: bool = False, axis: Optional[int] = None,
                   eps: float = 1e-9) -> QuantParams:
    """Compute scale/zero-point covering the observed [min, max] range.

    ``min_val``/``max_val`` are scalars for per-tensor, or per-channel
    vectors. The range is always widened to include 0 so that zero is
    exactly representable (required for zero padding to be exact).
    """
    mn = np.minimum(np.asarray(min_val, dtype=np.float64), 0.0)
    mx = np.maximum(np.asarray(max_val, dtype=np.float64), 0.0)
    if symmetric:
        bound = np.maximum(np.abs(mn), np.abs(mx))
        # symmetric grids center on 0; scale = bound/qmax makes +bound
        # exactly representable (restricted-range convention, as TFLite
        # symmetric int8 weights), so round-trip error <= scale/2 inside
        # [-bound, bound].
        scale = np.maximum(bound / qmax, eps)
        zero_point = np.zeros_like(scale)
    else:
        scale = np.maximum((mx - mn) / (qmax - qmin), eps)
        zero_point = np.round(qmin - mn / scale)
        zero_point = np.clip(zero_point, qmin, qmax)
    return QuantParams(scale=np.asarray(scale), zero_point=np.asarray(zero_point),
                       qmin=qmin, qmax=qmax, axis=axis)


def quantize(x: np.ndarray, qp: QuantParams) -> np.ndarray:
    """Real -> integer grid (returns an integer-valued int32 array)."""
    s = qp.scale_for(x.ndim)
    z = qp.zero_point_for(x.ndim)
    q = np.round(x / s) + z
    return np.clip(q, qp.qmin, qp.qmax).astype(np.int32)


def dequantize(q: np.ndarray, qp: QuantParams) -> np.ndarray:
    """Integer grid -> real."""
    s = qp.scale_for(q.ndim)
    z = qp.zero_point_for(q.ndim)
    return (q.astype(np.float64) - z) * s


def fake_quantize_array(x: np.ndarray, qp: QuantParams,
                        scratch: Optional[np.ndarray] = None) -> np.ndarray:
    """Quantize-dequantize round trip (the QAT forward simulation), in
    float64, written into ``scratch`` (allocated when omitted).

    Fused in place: round + clip already leave exactly integral float64
    values, so skipping :func:`quantize`'s int32 cast gives the same
    values as ``dequantize(quantize(x, qp), qp)`` for finite inputs, with
    one buffer instead of eight temporaries.
    """
    s = qp.scale_for(x.ndim)
    z = qp.zero_point_for(x.ndim)
    t = np.asarray(np.divide(x, s, out=scratch))    # 0-d stays an array
    np.round(t, out=t)
    t += z
    np.clip(t, qp.qmin, qp.qmax, out=t)
    t -= z
    t *= s
    return t


def ste_mask(x: np.ndarray, qp: QuantParams) -> np.ndarray:
    """Where the clamped straight-through estimator passes gradient: the
    inputs inside the grid's representable range."""
    s = qp.scale_for(x.ndim)
    z = qp.zero_point_for(x.ndim)
    return (x >= (qp.qmin - z) * s) & (x <= (qp.qmax - z) * s)


def quantization_error(x: np.ndarray, qp: QuantParams) -> float:
    """Max absolute round-trip error; bounded by scale/2 inside the range."""
    return float(np.abs(x - fake_quantize_array(x, qp)).max())


def quantize_multiplier(real_multiplier: float) -> Tuple[int, int]:
    """Decompose a positive real multiplier as M0 * 2^-shift.

    Returns (M0, shift) with M0 an int32 in [2^30, 2^31) so integer-only
    requantization can be done as ``(acc * M0) >> (31 + shift)`` — the
    TFLite fixed-point scheme our edge engine uses.
    """
    if real_multiplier <= 0:
        raise ValueError("multiplier must be positive")
    shift = 0
    m = float(real_multiplier)
    while m < 0.5:
        m *= 2.0
        shift += 1
    while m >= 1.0:
        m /= 2.0
        shift -= 1
    m0 = int(round(m * (1 << 31)))
    if m0 == (1 << 31):  # rounding edge: 0.99999... -> 1.0
        m0 //= 2
        shift -= 1
    return m0, shift


def requantize(acc: np.ndarray, m0: int, shift: int) -> np.ndarray:
    """Apply the fixed-point multiplier with round-half-away rounding."""
    total_shift = 31 + shift
    prod = acc.astype(np.int64) * np.int64(m0)
    rounding = np.int64(1) << (total_shift - 1)
    return ((prod + np.where(prod >= 0, rounding, rounding - 1)) >> total_shift).astype(np.int64)
