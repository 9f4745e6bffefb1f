"""Row-reproducible float GEMMs: fixed-order blocked accumulation.

numpy's float ``matmul`` is not *row-reproducible*: the BLAS backend
picks kernels, blocking and accumulation order by the full matrix
shape, so row ``i`` of ``(M, K) @ (K, F)`` can change in the last ulp
when ``M`` changes — the same sample's logits depend on which other
rows happened to share the batch.  That composition-dependence is why
the serving layer historically coalesced only the integer edge path
(exact by construction) and ran every float inference job on its own
pass.

This module closes the gap with a fixed-order blocked GEMM:

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

The mode is a *per-thread* flag (:func:`row_reproducible` context
manager).  Compiled programs capture the mode at *plan build time* (the
kernel closures bake it in), so every plan-cache key that can hold a
float GEMM plan must include :func:`mode_key`; replaying a plan under
the other mode is a cache-keying bug, not a runtime dispatch.
Thread-locality matters for the paired attack step's lane thread
(:func:`repro.attacks.engine.lane_step`): the original and adapted
programs replay at the same time, one on the caller's thread and one on
the lane, so the tail-padding scratch buffers are thread-local — two
lanes padding ragged tails of the same ``(K, dtype)`` geometry must not
share bytes.  The mode flag is per-thread too, so a region entered on
one thread never changes what another thread's matmuls compute.

The overhead is bounded and tracked: full-block batches pay ~1-2% over
raw ``np.matmul`` (CI's "Row-reproducible GEMM budget" step gates it
at 15%); ragged tails pay for the zero-padding, which coalescing itself
amortizes away (merged batches fill blocks).
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from typing import Dict, Optional, Tuple

import numpy as np

#: the one true GEMM row-block: every row of every batch is computed by
#: a ``(ROW_BLOCK, K) @ (K, F)`` BLAS call.  Part of :func:`mode_key`
#: (and thereby of every plan-cache key), because different block sizes
#: produce different — individually reproducible — bits.
ROW_BLOCK = 256

#: per-thread mode flag + tail scratch; the paired step's lane thread
#: pads tails concurrently with the caller, so neither may live at
#: module scope
_tls = threading.local()


def _state_enabled() -> bool:
    return getattr(_tls, "enabled", False)


def _pad_cache() -> Dict[Tuple[int, str], np.ndarray]:
    cache = getattr(_tls, "pad_scratch", None)
    if cache is None:
        cache = _tls.pad_scratch = {}
    return cache


def enabled() -> bool:
    """Whether 2D float matmuls currently route through the fixed-order
    blocked kernel (on the calling thread)."""
    return _state_enabled()


def mode_key() -> Tuple[str, int]:
    """The cache-key component for the current mode.

    ``("rr", ROW_BLOCK)`` when row-reproducible execution is on,
    ``("rr", 0)`` otherwise.  Compiled plans bake the mode into their
    kernel closures at build time, so any plan cache that can hold a
    float GEMM must key on this — a legacy plan replayed inside a
    row-reproducible region (or vice versa) would silently produce the
    other mode's bits.
    """
    return ("rr", ROW_BLOCK if _state_enabled() else 0)


@contextmanager
def row_reproducible(on: bool = True):
    """Context manager switching the fixed-order GEMM on (or off).

    Nestable and exception-safe; the previous mode is restored on exit.
    The serving layer wraps every float-inference dispatch — coalesced,
    solo and eager alike — in this, so degradation down the ladder can
    change latency but never bytes.  The flag is per-thread: a region
    on one thread never leaks into (or gets torn down by) another's,
    such as the paired step's lane thread.
    """
    prev = _state_enabled()
    _tls.enabled = bool(on)
    try:
        yield
    finally:
        _tls.enabled = prev


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
    """The kernel seam: fixed-order blocked GEMM for 2D float matmuls
    when the mode is on, raw ``np.matmul`` otherwise.

    Non-2D matmuls (the conv kernels' per-sample batched forms, whose
    per-slice call shapes are already composition-independent) and
    integer operands always take the raw path.
    """
    if (_state_enabled() and a.ndim == 2 and b.ndim == 2
            and a.dtype.kind == "f"):
        return rr_matmul(a, b, out=out)
    if out is None:
        return a @ b
    return np.matmul(a, b, out=out)


def validate_per_row(run, x: np.ndarray, rows: Optional[Tuple[int, ...]] = None
                     ) -> bool:
    """Bit-validate that ``run`` is composition-independent on ``x``.

    Replays probe rows of ``x`` alone through ``run`` and compares them
    bitwise against the full-batch result — the compile-time gate the
    row-reproducible contract promises: a plan that passes serves
    coalesced float traffic; one that fails falls back loudly.
    Probe rows default to the first, middle and last row (every block
    position a row can occupy: full-block interior and padded tail).
    """
    full = np.asarray(run(x))
    n = len(x)
    if rows is None:
        rows = tuple(sorted({0, n // 2, n - 1}))
    for i in rows:
        solo = np.asarray(run(x[i:i + 1]))
        if not (solo.shape[1:] == full.shape[1:]
                and np.array_equal(solo[0], full[i])):
            return False
    return True
