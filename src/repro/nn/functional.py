"""Stateless differentiable operations: convolution, pooling, losses.

Convolution uses im2col (stride-tricks window extraction + one matmul),
which is the standard way to keep numpy convs fast; the col2im backward is
a small loop over kernel taps only (kh*kw iterations), never over pixels.
All tensors follow the NCHW layout.

The conv and pooling kernels (``_conv_fwd``, ``_conv_dw``, ``_conv_dx``,
``_max_pool_fwd``, ...) hold each op's arithmetic once: the eager ops
below and the compiled programs (:mod:`repro.nn.graph`) both call them,
the programs passing their planned buffers as destinations, so the two
executors produce the same bytes by construction.
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


def _pad(x: np.ndarray, ph: int, pw: int, value: float = 0.0,
         out: Optional[np.ndarray] = None) -> np.ndarray:
    """NCHW ``x`` with ``ph`` rows and ``pw`` columns of ``value`` on
    each side: written into the interior of ``out``, whose borders must
    already hold ``value``, or a fresh ``np.pad`` when ``out`` is None.
    An unpadded ``x`` is returned as is."""
    if not (ph or pw):
        return x
    if out is None:
        return np.pad(x, ((0, 0), (0, 0), (ph, ph), (pw, pw)),
                      constant_values=value)
    out[:, :, ph:ph + x.shape[2], pw:pw + x.shape[3]] = x
    return out


def _conv_wmat(w: np.ndarray, groups: int) -> np.ndarray:
    """A conv weight (F, Cg, kh, kw) as its forward contraction matrix:
    (F, K) for a dense conv, (G, Fg, K) for a grouped one."""
    F = w.shape[0]
    K = w.shape[1] * w.shape[2] * w.shape[3]
    if groups == 1:
        return w.reshape(F, K)
    return w.reshape(groups, F // groups, K)


def _conv_wmat_dx(w: np.ndarray, groups: int) -> np.ndarray:
    """The input-gradient contraction matrix: the dense (F, K) matrix
    transposed into a contiguous (K, F), the grouped one as is."""
    wmat = _conv_wmat(w, groups)
    return np.ascontiguousarray(wmat.T) if groups == 1 else wmat


def _conv_fwd(xp: np.ndarray, wmat: np.ndarray, bias: Optional[np.ndarray],
              kh: int, kw: int, sh: int, sw: int, groups: int,
              cols: Optional[np.ndarray] = None,
              out: Optional[np.ndarray] = None
              ) -> Tuple[np.ndarray, np.ndarray]:
    """Convolution of the padded NCHW input ``xp`` by ``wmat`` (see
    :func:`_conv_wmat`), plus ``bias`` when given.

    The windows are copied into ``cols`` in the layout the contraction
    reads.  Dense and depthwise convs stay tap-major, (N, C * kh * kw,
    OH * OW): the im2col view already is, so the copy runs in long
    contiguous stretches, and ``(F, K) @ (N, K, P)`` (a batched matvec
    per channel for depthwise) writes NCHW with no transpose on either
    side.  Other grouped convs copy (N, G, OH, OW, Cg * kh * kw) windows
    and run one batched matmul over (row, group) slices: every slice is
    the same GEMM whatever N is, so each row's bits are independent of
    the batch (a BLAS-backed einsum contracts across rows and is not).
    ``cols`` (any shape of that size) and the (N, F, OH, OW) ``out`` are
    allocated when omitted.  Returns ``(out, cols)``; the weight
    gradient reads ``cols`` back.
    """
    N, C = xp.shape[:2]
    win, (oh, ow) = _im2col(xp, kh, kw, sh, sw, 0, 0)
    P = oh * ow
    if cols is None:
        cols = np.empty((N, C * kh * kw, P), dtype=xp.dtype)
    if groups == 1:
        F = wmat.shape[0]
        np.copyto(cols.reshape(win.shape), win)
        res = np.matmul(wmat, cols.reshape(N, C * kh * kw, P),
                        out=None if out is None else out.reshape(N, F, P))
    elif wmat.shape[1] == 1 and C == groups:
        F = C
        np.copyto(cols.reshape(win.shape), win)
        res = np.matmul(wmat.reshape(1, C, 1, kh * kw),
                        cols.reshape(N, C, kh * kw, P),
                        out=None if out is None else out.reshape(N, C, 1, P))
    else:
        G, Fg, K = wmat.shape
        F = G * Fg
        # (N, G, Cg, kh, kw, OH, OW) -> (N, G, OH, OW, Cg, kh, kw)
        np.copyto(cols.reshape(N, G, oh, ow, C // G, kh, kw),
                  win.reshape(N, G, C // G, kh, kw, oh, ow)
                  .transpose(0, 1, 5, 6, 2, 3, 4))
        # a C-contiguous destination keeps downstream reductions
        # bit-identical whichever caller supplied it
        res = np.empty((N, G, Fg, oh, ow), dtype=cols.dtype) \
            if out is None else out
        colsg = cols.reshape(N, G, P, K)
        if Fg == 1:
            np.matmul(colsg, wmat.reshape(1, G, K, 1),
                      out=res.reshape(N, G, P, 1))
        else:
            np.matmul(wmat.reshape(1, G, Fg, K), colsg.transpose(0, 1, 3, 2),
                      out=res.reshape(N, G, Fg, P))
    res = res.reshape(N, F, oh, ow)
    if bias is not None:
        res += bias.reshape(1, F, 1, 1)
    return res, cols


def _conv_db(g: np.ndarray) -> np.ndarray:
    """Bias gradient of a conv from its output gradient (N, F, OH, OW)."""
    return g.sum(axis=(0, 2, 3))


def _conv_dw_batched(P: int, K: int) -> bool:
    """Whether a dense conv's weight gradient runs the batched matmul
    (wide spatial extents) rather than tensordot's one large GEMM (deep,
    narrow layers, where the contraction dwarfs the batch axis)."""
    return P * 4 >= K


def _conv_dw(g: np.ndarray, cols: np.ndarray, wshape: Tuple[int, ...],
             groups: int, out: Optional[np.ndarray] = None) -> np.ndarray:
    """Weight gradient (F, Cg, kh, kw) of a conv from its output gradient
    ``g`` and the windows :func:`_conv_fwd` left in ``cols``.

    Dense convs contract ``dw[f,k] = sum_n,p g[n,f,p] * cols[n,k,p]`` in
    one of two formulations chosen by shape (:func:`_conv_dw_batched`);
    ``out`` is the optional (N, F, K) product of the batched one.
    Grouped convs with one filter per group run a batched matvec, the
    others an einsum.
    """
    N, F, oh, ow = g.shape
    _, Cg, kh, kw = wshape
    P = oh * ow
    if groups == 1:
        g2 = np.ascontiguousarray(g).reshape(N, F, P)
        cols2 = cols.reshape(N, Cg * kh * kw, P)
        if _conv_dw_batched(P, cols2.shape[1]):
            dw = np.matmul(g2, cols2.transpose(0, 2, 1), out=out).sum(axis=0)
        else:
            dw = np.tensordot(g2, cols2, axes=([0, 2], [0, 2]))
    elif Cg == 1 and F == groups:
        g2 = np.ascontiguousarray(g).reshape(N, F, P, 1)
        dw = np.matmul(cols.reshape(N, F, kh * kw, P), g2).sum(axis=0)
    else:
        G, K = groups, Cg * kh * kw
        gg = g.reshape(N, G, F // G, oh, ow)
        cols2 = cols.reshape(N, G, oh, ow, K)
        if F == G:
            dw = np.matmul(gg.reshape(N, G, 1, P),
                           cols2.reshape(N, G, P, K)).sum(axis=0)
        else:
            dw = np.einsum("ngfxy,ngxyk->gfk", gg, cols2, optimize=True)
    return dw.reshape(wshape)


def _conv_dx(g: np.ndarray, wmat_dx: np.ndarray, x_shape: Tuple[int, ...],
             kh: int, kw: int, sh: int, sw: int, ph: int, pw: int,
             groups: int, gpad: Optional[np.ndarray] = None,
             dcols: Optional[np.ndarray] = None,
             dx: Optional[np.ndarray] = None,
             dxi: Optional[np.ndarray] = None) -> np.ndarray:
    """Input gradient of a conv from its output gradient ``g`` and
    ``wmat_dx`` (see :func:`_conv_wmat_dx`).

    The output gradient is X-padded into ``gpad`` (N, F, OH, XP), whose
    pitch columns must hold zeros, so that the contraction emits window
    rows in tap-major (C, kh, kw) order with the stride-phase image's own
    pitch and col2im collapses to one contiguous shifted-slice add per
    tap (:func:`_col2im_flat`, which takes ``dx`` and ``dxi`` as its
    ``out`` and ``dx_out``).  A grouped conv with one filter per group
    has no contraction at all: a broadcast multiply emits the same
    products.  Every buffer is allocated when omitted.  Returns the
    (N, C, H, W) gradient (a view).
    """
    N, F, oh, ow = g.shape
    C, W = x_shape[1], x_shape[3]
    Xp = _col2im_xpad(W, pw, sw)
    QX = oh * Xp
    if gpad is None:
        gpad = np.zeros((N, F, oh, Xp), dtype=g.dtype)
    np.copyto(gpad[..., :ow], g)
    if groups == 1:
        dcols = np.matmul(wmat_dx, gpad.reshape(N, F, QX), out=dcols)
    else:
        G, Fg, K = wmat_dx.shape
        ggp = gpad.reshape(N, G, Fg, QX)
        if dcols is not None:
            dcols = dcols.reshape(N, G, K, QX)
        if Fg == 1:
            dcols = np.multiply(ggp, wmat_dx.reshape(1, G, K, 1), out=dcols)
        else:
            dcols = np.einsum("ngfq,gfk->ngkq", ggp, wmat_dx, out=dcols,
                              optimize=True)
    return _col2im_flat(dcols.reshape(N, C, kh, kw, QX), x_shape, kh, kw,
                        sh, sw, ph, pw, oh, ow, out=dx, dx_out=dxi)


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

    out_data, cols = _conv_fwd(_pad(x.data, ph, pw),
                               _conv_wmat(weight.data, groups),
                               None if bias is None else bias.data,
                               kh, kw, sh, sw, groups)
    parents = (x, weight) + ((bias,) if bias is not None else ())
    req = any(p.requires_grad for p in parents) and _tensor.is_grad_enabled()
    out = Tensor(out_data, requires_grad=req, _parents=parents if req else ())
    if req:
        def _bw(g, x=x, weight=weight, bias=bias, cols=cols):
            if bias is not None and bias.requires_grad:
                bias._accumulate(_conv_db(g))
            if weight.requires_grad:
                weight._accumulate(_conv_dw(g, cols, weight.shape, groups),
                                   owned=True)
            if x.requires_grad:
                x._accumulate(_conv_dx(g, _conv_wmat_dx(weight.data, groups),
                                       x.shape, kh, kw, sh, sw, ph, pw,
                                       groups), owned=True)
        out._backward = _bw
    if _tensor._GRAPH_TRACER is not None:
        _tensor._GRAPH_TRACER.emit("conv2d", parents, out,
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


def _max_pool_fwd(xp: np.ndarray, kh: int, kw: int, sh: int, sw: int,
                  out: Optional[np.ndarray] = None
                  ) -> Tuple[np.ndarray, np.ndarray]:
    """Max pooling of the (-inf) padded NCHW input ``xp`` into ``out``
    (allocated when omitted).  Returns ``(out, arg)``, ``arg`` being each
    window's winning tap, which the backward reads."""
    win, (oh, ow) = _im2col(xp, kh, kw, sh, sw, 0, 0)
    N, C = xp.shape[:2]
    flat = win.transpose(0, 1, 4, 5, 2, 3).reshape(N, C, oh, ow, kh * kw)
    arg = flat.argmax(axis=-1)
    val = np.take_along_axis(flat, arg[..., None], axis=-1)[..., 0]
    if out is None:
        return val, arg
    np.copyto(out, val)
    return out, arg


def _max_pool_bwd(g: np.ndarray, arg: np.ndarray, x_shape: Tuple[int, ...],
                  kh: int, kw: int, sh: int, sw: int, ph: int, pw: int
                  ) -> np.ndarray:
    """Input gradient of max pooling: each window's gradient goes to its
    winning tap ``arg``."""
    N, C, oh, ow = g.shape
    dflat = np.zeros((N, C, oh, ow, kh * kw), dtype=g.dtype)
    np.put_along_axis(dflat, arg[..., None], g[..., None], axis=-1)
    dcols = dflat.reshape(N, C, oh, ow, kh, kw).transpose(0, 1, 4, 5, 2, 3)
    return _col2im(dcols, x_shape, kh, kw, sh, sw, ph, pw)


def _avg_pool_fwd(x: np.ndarray, kh: int, kw: int, sh: int, sw: int,
                  ph: int, pw: int, out: Optional[np.ndarray] = None
                  ) -> np.ndarray:
    """Average pooling (zero padding counted) into ``out`` (allocated
    when omitted)."""
    win, _ = _im2col(x, kh, kw, sh, sw, ph, pw)
    return win.mean(axis=(2, 3), out=out)


def _avg_pool_bwd(g: np.ndarray, x_shape: Tuple[int, ...], kh: int, kw: int,
                  sh: int, sw: int, ph: int, pw: int) -> np.ndarray:
    """Input gradient of average pooling."""
    N, C, oh, ow = g.shape
    dcols = np.broadcast_to(
        g[:, :, None, None, :, :] / (kh * kw), (N, C, kh, kw, oh, ow)
    ).astype(g.dtype)
    return _col2im(dcols, x_shape, kh, kw, sh, sw, ph, pw)


def max_pool2d(x: Tensor, kernel: IntPair, stride: Optional[IntPair] = None,
               padding: IntPair = 0) -> Tensor:
    """Max pooling over NCHW windows."""
    kh, kw = _pair(kernel)
    sh, sw = _pair(stride if stride is not None else kernel)
    ph, pw = _pair(padding)
    out_data, arg = _max_pool_fwd(_pad(x.data, ph, pw, -np.inf),
                                  kh, kw, sh, sw)
    req = x.requires_grad and _tensor.is_grad_enabled()
    out = Tensor(out_data, requires_grad=req, _parents=(x,) if req else ())
    if req:
        def _bw(g, x=x, arg=arg):
            x._accumulate(_max_pool_bwd(g, arg, x.shape, kh, kw, sh, sw,
                                        ph, pw), owned=True)
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
    out_data = _avg_pool_fwd(x.data, kh, kw, sh, sw, ph, pw)
    req = x.requires_grad and _tensor.is_grad_enabled()
    out = Tensor(out_data, requires_grad=req, _parents=(x,) if req else ())
    if req:
        def _bw(g, x=x):
            x._accumulate(_avg_pool_bwd(g, x.shape, kh, kw, sh, sw, ph, pw),
                          owned=True)
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
