"""Stateless differentiable operations: convolution, pooling, losses.

Convolution uses im2col (stride-tricks window extraction + one matmul),
which is the standard way to keep numpy convs fast; the col2im backward is
a small loop over kernel taps only (kh*kw iterations), never over pixels.
All tensors follow the NCHW layout.
"""

from __future__ import annotations

from typing import Optional, Tuple, Union

import numpy as np

from . import tensor as _tensor
from .tensor import Tensor, _unbroadcast

IntPair = Union[int, Tuple[int, int]]


def _pair(v: IntPair) -> Tuple[int, int]:
    return (v, v) if isinstance(v, int) else (int(v[0]), int(v[1]))


def conv_output_size(size: int, kernel: int, stride: int, pad: int) -> int:
    """Spatial output size of a convolution/pooling along one axis."""
    return (size + 2 * pad - kernel) // stride + 1


def _im2col(x: np.ndarray, kh: int, kw: int, sh: int, sw: int,
            ph: int, pw: int) -> Tuple[np.ndarray, Tuple[int, int]]:
    """Extract sliding windows from NCHW ``x``.

    Returns ``cols`` of shape (N, C, kh, kw, OH, OW) (a view when possible)
    and the output spatial size.
    """
    if ph or pw:
        x = np.pad(x, ((0, 0), (0, 0), (ph, ph), (pw, pw)))
    N, C, H, W = x.shape
    oh = (H - kh) // sh + 1
    ow = (W - kw) // sw + 1
    s0, s1, s2, s3 = x.strides
    cols = np.lib.stride_tricks.as_strided(
        x,
        shape=(N, C, kh, kw, oh, ow),
        strides=(s0, s1, s2, s3, s2 * sh, s3 * sw),
        writeable=False,
    )
    return cols, (oh, ow)


def _col2im(dcols: np.ndarray, x_shape: Tuple[int, ...], kh: int, kw: int,
            sh: int, sw: int, ph: int, pw: int) -> np.ndarray:
    """Scatter-add window gradients back to input layout (inverse of im2col)."""
    N, C, H, W = x_shape
    Hp, Wp = H + 2 * ph, W + 2 * pw
    oh = (Hp - kh) // sh + 1
    ow = (Wp - kw) // sw + 1
    dx = np.zeros((N, C, Hp, Wp), dtype=dcols.dtype)
    for i in range(kh):
        i_max = i + sh * oh
        for j in range(kw):
            j_max = j + sw * ow
            dx[:, :, i:i_max:sh, j:j_max:sw] += dcols[:, :, i, j]
    if ph or pw:
        dx = dx[:, :, ph:Hp - ph if ph else Hp, pw:Wp - pw if pw else Wp]
    return dx


def _col2im_xpad(W: int, pw: int, sw: int) -> int:
    """Row length the conv backward must X-pad its gradient to so that
    :func:`_col2im_flat` rows tile the phase image seamlessly.  For
    stride 1 this is the padded input width itself."""
    return -(-(W + 2 * pw) // sw)


def _col2im_flat(dcolsp: np.ndarray, x_shape: Tuple[int, ...], kh: int,
                 kw: int, sh: int, sw: int, ph: int, pw: int,
                 oh: int, ow: int,
                 out: Optional[np.ndarray] = None,
                 dx_out: Optional[np.ndarray] = None) -> np.ndarray:
    """Phase-major flat col2im from X-padded tap-major window gradients.

    ``dcolsp`` has shape (N, C, kh, kw, OH * XP) with ``XP =
    _col2im_xpad(W, pw, sw)``, where columns beyond OW of each window row
    are exact zeros (they come from zero-padded logits in the producing
    matmul).  Tap (i, j) only ever touches input pixels whose row is
    ``i (mod sh)`` and column ``j (mod sw)`` — one of ``sh * sw``
    disjoint *phase* sub-images, each of pitch XP.  Because every tap
    row then has its phase image's own row pitch, each tap lands with
    ONE contiguous shifted-slice add over the flattened phase image
    instead of the classic per-tap strided scatter — same additions,
    same (i, j) order per destination element, plus interleaved exact
    ``+0.0`` terms, so values match :func:`_col2im` bit-for-bit (modulo
    the sign of negative zeros).  For stride 1 there is a single phase
    and the flat buffer *is* the padded image.

    ``out`` is an optional (N, C, sh * sw, Hq * XP) scratch with
    ``Hq = ceil(Hp / sh)``; ``dx_out`` an optional (N, C, Hp, Wp)
    interleave target (unused when stride is 1).  Fresh arrays are
    allocated when omitted.  Returns the (N, C, H, W) crop (a view).
    """
    N, C, H, W = x_shape
    Hp, Wp = H + 2 * ph, W + 2 * pw
    Hq, Wq = -(-Hp // sh), -(-Wp // sw)
    phases = sh * sw
    flat = Hq * Wq
    full = oh * Wq
    if out is None:
        out = np.empty((N, C, phases, flat), dtype=dcolsp.dtype)
    # the first tap landing on a phase image ASSIGNS (plus zero-fills the
    # complement of its span) instead of accumulating into a memset
    # buffer: one full write+read per element saved, values unchanged up
    # to the sign of zeros the docstring already excepts
    started = [False] * phases
    for i in range(kh):
        for j in range(kw):
            p = (i % sh) * sw + (j % sw)
            off = (i // sh) * Wq + (j // sw)
            span = min(full, flat - off)
            dst = out[:, :, p, off:off + span]
            if started[p]:
                np.add(dst, dcolsp[:, :, i, j, :span], out=dst)
            else:
                out[:, :, p, :off].fill(0.0)
                np.copyto(dst, dcolsp[:, :, i, j, :span])
                out[:, :, p, off + span:].fill(0.0)
                started[p] = True
    for p in range(phases):
        if not started[p]:          # 1x1 kernels leave phases untouched
            out[:, :, p].fill(0.0)
    if phases == 1:
        dx = out.reshape(N, C, Hp, Wp)
    else:
        if dx_out is None:
            dx_out = np.empty((N, C, Hp, Wp), dtype=dcolsp.dtype)
        for pi in range(sh):
            rows = -(-(Hp - pi) // sh)
            for pj in range(sw):
                cols = -(-(Wp - pj) // sw)
                img = out[:, :, pi * sw + pj].reshape(N, C, Hq, Wq)
                dx_out[:, :, pi::sh, pj::sw] = img[:, :, :rows, :cols]
        dx = dx_out
    if ph or pw:
        dx = dx[:, :, ph:ph + H, pw:pw + W]
    return dx


def _conv_dw_dense(g2: np.ndarray, cols2: np.ndarray) -> np.ndarray:
    """Dense-conv weight gradient ``dw[f,k] = sum_n,p g2[n,f,p]*cols2[n,k,p]``.

    Two formulations with identical results up to summation order, chosen
    deterministically by shape (so the eager tape and the compiled
    executor always agree bit-for-bit): wide spatial extents run the
    copy-free batched matmul; deep/narrow layers run tensordot's single
    large GEMM, which wins when the contraction dwarfs the batch axis.
    """
    N, F, P = g2.shape
    K = cols2.shape[1]
    if P * 4 >= K:
        return np.matmul(g2, cols2.transpose(0, 2, 1)).sum(axis=0)
    return np.tensordot(g2, cols2, axes=([0, 2], [0, 2]))


def _conv_grouped_fwd(cols2: np.ndarray, wmat: np.ndarray,
                      out: np.ndarray) -> np.ndarray:
    """Grouped-conv forward contraction into ``out`` (N, G, Fg, oh, ow).

    One batched matmul over (row, group) slices: every slice is the
    same ``(Fg, K) x (K, oh*ow)`` GEMM whatever ``N`` is, so each
    row's bits are independent of the batch (a BLAS-backed einsum
    contracts across rows and is not).  Depthwise layers (Fg == 1) run
    it as a matvec.  The eager tape and the compiled executor share
    this function.
    """
    N, G, oh, ow, K = cols2.shape
    Fg = wmat.shape[1]
    cols = cols2.reshape(N, G, oh * ow, K)
    if Fg == 1:
        np.matmul(cols, wmat.reshape(1, G, K, 1),
                  out=out.reshape(N, G, oh * ow, 1))
        return out
    np.matmul(wmat.reshape(1, G, Fg, K), cols.transpose(0, 1, 3, 2),
              out=out.reshape(N, G, Fg, oh * ow))
    return out


def _conv_dw_grouped(gg: np.ndarray, cols2: np.ndarray) -> np.ndarray:
    """Grouped-conv weight gradient: (N,G,Fg,oh,ow) x (N,G,oh,ow,K) ->
    (G, Fg, K); batched matvec for depthwise, einsum otherwise."""
    N, G, Fg, oh, ow = gg.shape
    K = cols2.shape[-1]
    if Fg == 1:
        return np.matmul(gg.reshape(N, G, 1, oh * ow),
                         cols2.reshape(N, G, oh * ow, K)).sum(axis=0)
    return np.einsum("ngfxy,ngxyk->gfk", gg, cols2, optimize=True)


def _conv_depthwise_fwd(colsK: np.ndarray, wmat: np.ndarray,
                        out: Optional[np.ndarray] = None) -> np.ndarray:
    """Depthwise forward on tap-major windows: (N,C,K,P) x (C,K) ->
    (N,C,1,P).  Tap-major means the im2col view copies straight into the
    scratch (no per-group transpose materialization)."""
    N, C, K, P = colsK.shape
    return np.matmul(wmat.reshape(1, C, 1, K), colsK, out=out)


def _conv_dw_depthwise(colsK: np.ndarray, g2: np.ndarray) -> np.ndarray:
    """Depthwise weight gradient on tap-major windows: (N,C,K,P) x
    (N,C,P) -> (C, K)."""
    N, C, K, P = colsK.shape
    return np.matmul(colsK, g2.reshape(N, C, P, 1)).sum(axis=0).reshape(C, K)


def _conv_dcols_grouped(ggp: np.ndarray, wmat: np.ndarray,
                        out: Optional[np.ndarray] = None) -> np.ndarray:
    """Grouped-conv input-gradient window rows: (N,G,Fg,Q) x (G,Fg,K) ->
    (N,G,K,Q) in tap-major order.  Depthwise has no contraction at all —
    a broadcast multiply emits the exact same products as the einsum."""
    N, G, Fg, Q = ggp.shape
    K = wmat.shape[-1]
    if Fg == 1:
        return np.multiply(ggp.reshape(N, G, 1, Q),
                           wmat.reshape(1, G, K, 1), out=out)
    if out is None:
        return np.einsum("ngfq,gfk->ngkq", ggp, wmat, optimize=True)
    return np.einsum("ngfq,gfk->ngkq", ggp, wmat, out=out, optimize=True)


def conv2d(x: Tensor, weight: Tensor, bias: Optional[Tensor] = None,
           stride: IntPair = 1, padding: IntPair = 0, groups: int = 1) -> Tensor:
    """2D convolution.

    Parameters
    ----------
    x: (N, C_in, H, W)
    weight: (C_out, C_in // groups, kh, kw)
    bias: (C_out,) or None
    groups: 1 for dense conv, C_in for depthwise.
    """
    sh, sw = _pair(stride)
    ph, pw = _pair(padding)
    N, C, H, W = x.shape
    F, Cg, kh, kw = weight.shape
    if C % groups or F % groups:
        raise ValueError(f"channels {C}/{F} not divisible by groups={groups}")
    if Cg != C // groups:
        raise ValueError(f"weight expects {Cg} in-channels/group, input has {C // groups}")

    cols, (oh, ow) = _im2col(x.data, kh, kw, sh, sw, ph, pw)

    if groups == 1:
        # Tap-major layout: the im2col window view is already
        # (N, C, kh, kw, OH, OW), so a straight copy is cheap (long
        # contiguous runs), and (F, K) @ (N, K, P) produces NCHW output
        # directly — no transposes on either side of the matmul.
        K = C * kh * kw
        colsK = np.ascontiguousarray(cols).reshape(N, K, oh * ow)
        w2 = weight.data.reshape(F, K)
        out_data = np.matmul(w2, colsK).reshape(N, F, oh, ow)
        cols2 = colsK                                    # closure capture
    elif Cg == 1 and F == groups:
        # pure depthwise: stay tap-major like the dense path — the
        # im2col view copies straight (long contiguous runs) and the
        # per-channel contraction is a batched matvec
        K = kh * kw
        colsK = np.ascontiguousarray(cols).reshape(N, C, K, oh * ow)
        out_data = _conv_depthwise_fwd(
            colsK, weight.data.reshape(C, K)).reshape(N, F, oh, ow)
        cols2 = colsK
    else:
        G = groups
        Fg = F // G
        # (N, G, Cg, kh, kw, OH, OW) -> (N, G, OH, OW, Cg*kh*kw)
        colsg = cols.reshape(N, G, Cg, kh, kw, oh, ow)
        cols2 = np.ascontiguousarray(colsg.transpose(0, 1, 5, 6, 2, 3, 4)).reshape(N, G, oh, ow, Cg * kh * kw)
        wmat = weight.data.reshape(G, Fg, Cg * kh * kw)  # (G, Fg, K)
        # a C-contiguous destination keeps downstream reductions (and the
        # compiled executor's buffer replays) bit-identical
        out_data = np.empty((N, G, Fg, oh, ow), dtype=cols2.dtype)
        _conv_grouped_fwd(cols2, wmat, out_data)
        out_data = out_data.reshape(N, F, oh, ow)

    if bias is not None:
        out_data += bias.data.reshape(1, F, 1, 1)

    parents = (x, weight) + ((bias,) if bias is not None else ())
    req = any(p.requires_grad for p in parents) and _tensor.is_grad_enabled()
    out = Tensor(out_data, requires_grad=req, _parents=parents if req else ())
    if req:
        x_shape = x.shape

        def _bw(g, x=x, weight=weight, bias=bias, cols2=cols2):
            # g: (N, F, OH, OW)
            if bias is not None and bias.requires_grad:
                bias._accumulate(g.sum(axis=(0, 2, 3)))
            if groups == 1:
                K = C * kh * kw
                if weight.requires_grad:
                    g2 = np.ascontiguousarray(g).reshape(N, F, oh * ow)
                    dw = _conv_dw_dense(g2, cols2)                       # (F, K)
                    weight._accumulate(dw.reshape(weight.shape), owned=True)
                if x.requires_grad:
                    w2T = np.ascontiguousarray(weight.data.reshape(F, K).T)
                    # X-padded logits make every col2im tap a single
                    # contiguous shifted-slice add into its stride phase
                    # (see _col2im_flat)
                    Xp = _col2im_xpad(W, pw, sw)
                    g2p = np.zeros((N, F, oh, Xp), dtype=g.dtype)
                    g2p[..., :ow] = g
                    dcolsp = np.matmul(w2T, g2p.reshape(N, F, oh * Xp))
                    dx = _col2im_flat(
                        dcolsp.reshape(N, C, kh, kw, oh * Xp),
                        x_shape, kh, kw, sh, sw, ph, pw, oh, ow)
                    x._accumulate(dx, owned=True)
            else:
                G = groups
                Fg = F // G
                gg = g.reshape(N, G, Fg, oh, ow)
                if weight.requires_grad:
                    if Cg == 1 and F == G:
                        g2 = np.ascontiguousarray(g).reshape(N, C, oh * ow)
                        dw = _conv_dw_depthwise(cols2, g2)
                    else:
                        dw = _conv_dw_grouped(gg, cols2)
                    weight._accumulate(dw.reshape(weight.shape), owned=True)
                if x.requires_grad:
                    wmat = weight.data.reshape(G, Fg, Cg * kh * kw)
                    # Same X-padded tap-major path as the dense backward:
                    # the contraction emits window rows directly in
                    # (G, K) == (C, kh, kw) tap-major order with the
                    # phase image's pitch, so no transpose/materialize
                    # step survives between it and the flat col2im.
                    Xp = _col2im_xpad(W, pw, sw)
                    ggp = np.zeros((N, G, Fg, oh, Xp), dtype=g.dtype)
                    ggp[..., :ow] = gg
                    dcolsp = _conv_dcols_grouped(
                        ggp.reshape(N, G, Fg, oh * Xp), wmat)
                    dx = _col2im_flat(
                        dcolsp.reshape(N, C, kh, kw, oh * Xp),
                        x_shape, kh, kw, sh, sw, ph, pw, oh, ow)
                    x._accumulate(dx, owned=True)
        out._backward = _bw
    if _tensor._GRAPH_TRACER is not None:
        inputs = (x, weight) + ((bias,) if bias is not None else ())
        _tensor._GRAPH_TRACER.emit("conv2d", inputs, out,
                                   {"stride": (sh, sw), "padding": (ph, pw),
                                    "groups": groups,
                                    "has_bias": bias is not None})
    return out


def linear(x: Tensor, weight: Tensor, bias: Optional[Tensor] = None) -> Tensor:
    """Affine map ``x @ weight.T + bias`` with weight of shape (out, in)."""
    out = x @ weight.T
    if bias is not None:
        out = out + bias
    return out


def max_pool2d(x: Tensor, kernel: IntPair, stride: Optional[IntPair] = None,
               padding: IntPair = 0) -> Tensor:
    """Max pooling over NCHW windows."""
    kh, kw = _pair(kernel)
    sh, sw = _pair(stride if stride is not None else kernel)
    ph, pw = _pair(padding)
    xd = x.data
    if ph or pw:
        xd = np.pad(xd, ((0, 0), (0, 0), (ph, ph), (pw, pw)),
                    constant_values=-np.inf)
    cols, (oh, ow) = _im2col(xd, kh, kw, sh, sw, 0, 0)
    N, C = x.shape[:2]
    flat = cols.transpose(0, 1, 4, 5, 2, 3).reshape(N, C, oh, ow, kh * kw)
    arg = flat.argmax(axis=-1)
    out_data = np.take_along_axis(flat, arg[..., None], axis=-1)[..., 0]
    req = x.requires_grad and _tensor.is_grad_enabled()
    out = Tensor(out_data, requires_grad=req, _parents=(x,) if req else ())
    if req:
        x_shape = x.shape

        def _bw(g, x=x, arg=arg):
            dflat = np.zeros((N, C, oh, ow, kh * kw), dtype=g.dtype)
            np.put_along_axis(dflat, arg[..., None], g[..., None], axis=-1)
            dcols = dflat.reshape(N, C, oh, ow, kh, kw).transpose(0, 1, 4, 5, 2, 3)
            x._accumulate(_col2im(dcols, x_shape, kh, kw, sh, sw, ph, pw), owned=True)
        out._backward = _bw
    if _tensor._GRAPH_TRACER is not None:
        _tensor._GRAPH_TRACER.emit("max_pool2d", (x,), out,
                                   {"kernel": (kh, kw), "stride": (sh, sw),
                                    "padding": (ph, pw)})
    return out


def avg_pool2d(x: Tensor, kernel: IntPair, stride: Optional[IntPair] = None,
               padding: IntPair = 0) -> Tensor:
    """Average pooling over NCHW windows."""
    kh, kw = _pair(kernel)
    sh, sw = _pair(stride if stride is not None else kernel)
    ph, pw = _pair(padding)
    cols, (oh, ow) = _im2col(x.data, kh, kw, sh, sw, ph, pw)
    out_data = cols.mean(axis=(2, 3))
    req = x.requires_grad and _tensor.is_grad_enabled()
    out = Tensor(out_data, requires_grad=req, _parents=(x,) if req else ())
    if req:
        N, C = x.shape[:2]
        x_shape = x.shape

        def _bw(g, x=x):
            dcols = np.broadcast_to(
                g[:, :, None, None, :, :] / (kh * kw), (N, C, kh, kw, oh, ow)
            ).astype(g.dtype)
            x._accumulate(_col2im(dcols, x_shape, kh, kw, sh, sw, ph, pw), owned=True)
        out._backward = _bw
    if _tensor._GRAPH_TRACER is not None:
        _tensor._GRAPH_TRACER.emit("avg_pool2d", (x,), out,
                                   {"kernel": (kh, kw), "stride": (sh, sw),
                                    "padding": (ph, pw)})
    return out


def global_avg_pool2d(x: Tensor) -> Tensor:
    """Mean over spatial dims: (N, C, H, W) -> (N, C)."""
    return x.mean(axis=(2, 3))


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Numerically stable softmax along ``axis``."""
    shifted = x - Tensor(x.data.max(axis=axis, keepdims=True))
    e = shifted.exp()
    return e / e.sum(axis=axis, keepdims=True)


def log_softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Numerically stable log-softmax along ``axis``."""
    m = Tensor(x.data.max(axis=axis, keepdims=True))
    shifted = x - m
    lse = shifted.exp().sum(axis=axis, keepdims=True).log()
    return shifted - lse


def cross_entropy(logits: Tensor, labels: np.ndarray,
                  reduction: str = "mean") -> Tensor:
    """Softmax cross-entropy against integer labels.

    ``labels`` is an int array of shape (N,).
    """
    labels = np.asarray(labels)
    logp = log_softmax(logits, axis=-1)
    nll = -logp.gather_rows(labels)
    if reduction == "mean":
        return nll.mean()
    if reduction == "sum":
        return nll.sum()
    if reduction == "none":
        return nll
    raise ValueError(f"unknown reduction: {reduction}")


def kl_div(logp: Tensor, q: Union[Tensor, np.ndarray],
           reduction: str = "batchmean") -> Tensor:
    """KL(q || p) given log-probabilities ``logp`` and target probs ``q``.

    Matches the convention of distillation losses: target distribution ``q``
    is treated as constant.
    """
    q_data = q.data if isinstance(q, Tensor) else np.asarray(q)
    q_const = Tensor(q_data)
    eps = 1e-12
    terms = q_const * (Tensor(np.log(q_data + eps)) - logp)
    if reduction == "batchmean":
        return terms.sum() * (1.0 / logp.shape[0])
    if reduction == "sum":
        return terms.sum()
    return terms


def dropout(x: Tensor, p: float, rng: np.random.Generator,
            training: bool = True) -> Tensor:
    """Inverted dropout; identity when not training or p == 0."""
    if not training or p <= 0.0:
        return x
    if _tensor._GRAPH_TRACER is not None:
        # refuse BEFORE drawing: a traced mask would be frozen into the
        # program, and the un-advanced rng keeps the eager fallback
        # bitwise identical to a run that never attempted to compile
        _tensor._GRAPH_TRACER.refuse(
            "dropout redraws its mask per step; cannot compile")
    keep = 1.0 - p
    mask = (rng.random(x.shape) < keep).astype(x.dtype) / keep
    return x * Tensor(mask)
