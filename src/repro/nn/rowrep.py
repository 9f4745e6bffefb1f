"""Row-reproducible float GEMMs: fixed-order blocked accumulation.

numpy's float ``matmul`` is not *row-reproducible*: the BLAS backend
picks kernels, blocking and accumulation order by the full matrix
shape, so row ``i`` of ``(M, K) @ (K, F)`` can change in the last ulp
when ``M`` changes — the same sample's logits would depend on which
other rows happened to share the batch.

This module closes the gap with a fixed-order blocked GEMM, and
:func:`matmul` routes every 2-D float matmul through it — the eager
``Tensor.__matmul__`` and the compiled matmul lowering alike, in
training, attacks and serving:

- the left operand is processed in fixed :data:`ROW_BLOCK`-row blocks,
  every block presented to BLAS as the *same* ``(ROW_BLOCK, K) @
  (K, F)`` call (full blocks ride one batched 3D ``matmul``, which
  runs the identical per-slice GEMM);
- a ragged tail is zero-padded to exactly ``ROW_BLOCK`` rows in a
  cached scratch buffer, never sub-divided — per-row results from
  differently-shaped calls differ bitwise, so the tail must use the
  one true call shape too.

Row ``i``'s bits therefore depend only on row ``i`` and the right
operand — never on ``M``, the row's position, or its co-batched rows —
which is exactly the property that makes cross-request float
coalescing value-neutral:
any partition of any merged batch produces identical per-row bytes.

The tail-padding scratch buffers are *per thread*: the paired attack
step (:func:`repro.attacks.engine.lane_step`) replays the original and
adapted programs at the same time, one on the caller's thread and one
on the lane, so two lanes padding ragged tails of the same
``(K, dtype)`` geometry must not share bytes.

The overhead is bounded and tracked: full-block batches pay ~1-2% over
raw ``np.matmul`` (CI's "Row-reproducible GEMM budget" step gates it
at 15%); ragged tails pay for the zero-padding, which coalescing itself
amortizes away (merged batches fill blocks).
"""

from __future__ import annotations

import threading
from typing import Dict, Optional, Tuple

import numpy as np

#: the one true GEMM row-block: every row of every batch is computed by
#: a ``(ROW_BLOCK, K) @ (K, F)`` BLAS call.  Different block sizes
#: produce different — individually reproducible — bits.
ROW_BLOCK = 256

#: per-thread tail scratch; the paired step's lane thread pads tails
#: concurrently with the caller, so it may not live at module scope
_tls = threading.local()


def _pad_cache() -> Dict[Tuple[int, str], np.ndarray]:
    cache = getattr(_tls, "pad_scratch", None)
    if cache is None:
        cache = _tls.pad_scratch = {}
    return cache


def _pad_buffer(k: int, dtype: np.dtype) -> np.ndarray:
    scratch = _pad_cache()
    key = (k, np.dtype(dtype).str)
    buf = scratch.get(key)
    if buf is None:
        buf = scratch[key] = np.zeros((ROW_BLOCK, k), dtype=dtype)
    return buf


def rr_matmul(a: np.ndarray, b: np.ndarray,
              out: Optional[np.ndarray] = None) -> np.ndarray:
    """``a @ b`` for 2D operands with row-reproducible per-row bits.

    Row ``i`` of the result is bit-identical for every batch ``a``
    containing that row, at any position, alongside any co-rows —
    because every row is computed by the same-shaped
    ``(ROW_BLOCK, K) @ (K, F)`` BLAS call (full blocks via one batched
    3D matmul, the tail zero-padded to the full block in cached
    scratch).  Unlike raw ``np.matmul``, whose kernel choice — and
    last-ulp accumulation order — varies with ``len(a)``.
    """
    m, k = a.shape
    f = b.shape[1]
    if out is None:
        out = np.empty((m, f), dtype=np.result_type(a, b))
    r = ROW_BLOCK
    nfull = (m // r) * r
    if nfull:
        dst = out[:nfull]
        if dst.flags.c_contiguous:
            np.matmul(a[:nfull].reshape(-1, r, k), b,
                      out=dst.reshape(-1, r, f))
        else:
            # rare non-contiguous destination: per-block 2D calls are
            # bit-identical to the batched form (same per-slice GEMM)
            for s in range(0, nfull, r):
                np.matmul(a[s:s + r], b, out=out[s:s + r])
    tail = m - nfull
    if tail:
        pad = _pad_buffer(k, a.dtype)
        pad[:tail] = a[nfull:]
        pad[tail:] = 0
        out[nfull:] = np.matmul(pad, b)[:tail]
    return out


def matmul(a: np.ndarray, b: np.ndarray,
           out: Optional[np.ndarray] = None) -> np.ndarray:
    """The kernel seam: the fixed-order blocked GEMM for 2D float
    matmuls, raw ``np.matmul`` otherwise.

    Non-2D matmuls (the conv kernels' per-sample batched forms, whose
    per-slice call shapes are already composition-independent) and
    integer operands (exact) take the raw path.
    """
    if a.ndim == 2 and b.ndim == 2 and a.dtype.kind == "f":
        return rr_matmul(a, b, out=out)
    if out is None:
        return a @ b
    return np.matmul(a, b, out=out)

