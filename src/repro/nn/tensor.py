"""Reverse-mode automatic differentiation on numpy arrays.

This is the substrate every other subsystem (models, quantization-aware
training, the attack family) is built on.  The design is a classic tape:
each :class:`Tensor` produced by an operation stores a closure that, given
the upstream gradient, accumulates gradients into its parents.  ``backward``
runs the closures in reverse topological order.

All operations are vectorized numpy; there are no per-element Python loops
anywhere on the hot path (conv uses stride tricks + matmul, pooling uses
window views).
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from typing import Callable, Iterable, Optional, Sequence, Tuple, Union

import numpy as np

from . import rowrep

ArrayLike = Union[np.ndarray, float, int, "Tensor"]

_DEFAULT_DTYPE = np.float64


def set_default_dtype(dtype) -> None:
    """Set the dtype new tensors are created with (float32 or float64)."""
    global _DEFAULT_DTYPE
    dtype = np.dtype(dtype)
    if dtype not in (np.dtype(np.float32), np.dtype(np.float64)):
        raise ValueError(f"unsupported default dtype: {dtype}")
    _DEFAULT_DTYPE = dtype.type


def get_default_dtype():
    return _DEFAULT_DTYPE


# --------------------------------------------------------------------- #
# graph-tracing hook (see repro.nn.graph)
#
# While a tracer is installed, every instrumented op reports
# (kind, input tensors, output tensor, attrs) right after executing, in
# execution order — which is already a valid topological order of the
# tape.  The guard is a single global ``is not None`` check, so the
# eager hot path pays (almost) nothing when not tracing.
# --------------------------------------------------------------------- #
_GRAPH_TRACER = None


# --------------------------------------------------------------------- #
# grad mode
#
# Inside ``no_grad()`` op outputs never require grad, so no tape node,
# parent link or backward closure is built and every intermediate dies
# as soon as the next op has consumed it.  Values are unchanged: only
# the bookkeeping is skipped.  The flag is per-thread because the paired
# attack step's lane thread runs a forward alongside the caller's; a
# region entered on one thread must not strip another thread's tape.
# --------------------------------------------------------------------- #
_grad_tls = threading.local()


def is_grad_enabled() -> bool:
    """Whether ops on this thread currently record the autograd tape."""
    return getattr(_grad_tls, "enabled", True)


@contextmanager
def _grad_mode(enabled: bool):
    prev = is_grad_enabled()
    _grad_tls.enabled = enabled
    try:
        yield
    finally:
        _grad_tls.enabled = prev


def no_grad():
    """Context manager: forwards on this thread build no tape."""
    return _grad_mode(False)


def enable_grad():
    """Context manager: record the tape on this thread even inside an
    enclosing :func:`no_grad` (the graph compilers trace under it)."""
    return _grad_mode(True)


def _tape_order(root: "Tensor") -> list:
    """Every tape node ``root`` reaches through parents that require
    grad (only those have parents), each after all of its parents.

    The one tape order: :meth:`Tensor.backward` runs the closures in its
    reverse, the compiled training step replays its backward in it (so
    gradients accumulate in the eager floating-point order), and the
    compilers' input-path check walks it.
    """
    topo: list = []
    visited: set = set()
    stack: list = [(root, False)]
    while stack:  # iterative DFS; deep graphs must not hit recursion limits
        node, processed = stack.pop()
        if processed:
            topo.append(node)
            continue
        if id(node) in visited:
            continue
        visited.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if id(p) not in visited and p.requires_grad:
                stack.append((p, False))
    return topo


def _unbroadcast(grad: np.ndarray, shape: Tuple[int, ...]) -> np.ndarray:
    """Reduce ``grad`` so it matches ``shape`` after numpy broadcasting.

    When an operand of shape ``shape`` was broadcast up to ``grad.shape``
    during the forward pass, the chain rule requires summing the gradient
    over every broadcast dimension.
    """
    if grad.shape == shape:
        return grad
    # Sum over leading dims added by broadcasting.
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    # Sum over dims that were 1 in the original shape.
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


class Tensor:
    """A numpy ndarray plus an autograd tape node.

    Parameters
    ----------
    data:
        Array-like payload; converted to the default float dtype unless it
        is already a float array.
    requires_grad:
        Whether gradients should be accumulated into ``self.grad`` during
        :meth:`backward`.
    """

    __slots__ = ("data", "grad", "requires_grad", "_backward", "_parents", "name")

    def __init__(
        self,
        data: ArrayLike,
        requires_grad: bool = False,
        _parents: Tuple["Tensor", ...] = (),
        name: Optional[str] = None,
    ):
        if isinstance(data, Tensor):
            data = data.data
        arr = np.asarray(data)
        if arr.dtype != _DEFAULT_DTYPE:
            # Single-dtype policy: every tensor lives in the global default
            # dtype, which prevents accidental float64 upcasts from numpy
            # scalar promotion when running experiments in float32.
            arr = arr.astype(_DEFAULT_DTYPE)
        self.data: np.ndarray = arr
        self.grad: Optional[np.ndarray] = None
        self.requires_grad: bool = bool(requires_grad)
        self._backward: Optional[Callable[[np.ndarray], None]] = None
        self._parents: Tuple[Tensor, ...] = _parents
        self.name = name

    # ------------------------------------------------------------------ #
    # basic protocol
    # ------------------------------------------------------------------ #
    @property
    def shape(self) -> Tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def dtype(self):
        return self.data.dtype

    def __len__(self) -> int:
        return len(self.data)

    def __repr__(self) -> str:
        head = f"Tensor(shape={self.shape}, requires_grad={self.requires_grad}"
        if self.name:
            head += f", name={self.name!r}"
        return head + ")"

    def numpy(self) -> np.ndarray:
        """Return the underlying array (no copy)."""
        return self.data

    def item(self) -> float:
        if self.data.size != 1:
            raise ValueError(
                f"item() called on tensor of size {self.data.size}; only "
                "single-element tensors can be converted to a Python scalar")
        return float(self.data.reshape(-1)[0])

    def detach(self) -> "Tensor":
        """A new tensor sharing data but cut off from the tape."""
        return Tensor(self.data, requires_grad=False)

    def copy(self) -> "Tensor":
        return Tensor(self.data.copy(), requires_grad=self.requires_grad)

    def zero_grad(self) -> None:
        self.grad = None

    # ------------------------------------------------------------------ #
    # graph machinery
    # ------------------------------------------------------------------ #
    def _make(self, data: np.ndarray, parents: Sequence["Tensor"]) -> "Tensor":
        """Create an op output tensor whose ``requires_grad`` is inherited."""
        req = any(p.requires_grad for p in parents) and is_grad_enabled()
        return Tensor(data, requires_grad=req, _parents=tuple(parents) if req else ())

    def _accumulate(self, grad: np.ndarray, owned: bool = False) -> None:
        """Add ``grad`` into ``self.grad``.

        ``owned=True`` promises the caller holds the only reference to
        ``grad``'s storage (a freshly allocated array), so it can be
        adopted directly instead of defensively copied — a measurable
        allocation win on deep backward passes.  Views of upstream
        gradients must be passed with ``owned=False``.
        """
        if self.grad is None:
            if owned and grad.dtype == self.data.dtype:
                self.grad = grad
            else:
                self.grad = grad.astype(self.data.dtype, copy=True)
        else:
            self.grad += grad

    def backward(self, grad: Optional[np.ndarray] = None) -> None:
        """Backpropagate from this tensor through the recorded tape."""
        if not self.requires_grad:
            raise RuntimeError("backward() on a tensor that does not require grad")
        if grad is None:
            if self.data.size != 1:
                raise RuntimeError("grad must be provided for non-scalar backward()")
            grad = np.ones_like(self.data)
        else:
            grad = np.asarray(grad, dtype=self.data.dtype)
            if grad.shape != self.data.shape:
                raise ValueError(f"grad shape {grad.shape} != tensor shape {self.data.shape}")

        self._accumulate(grad)
        for node in reversed(_tape_order(self)):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)

    # ------------------------------------------------------------------ #
    # arithmetic
    # ------------------------------------------------------------------ #
    @staticmethod
    def _coerce(x: ArrayLike) -> "Tensor":
        return x if isinstance(x, Tensor) else Tensor(x)

    def __add__(self, other: ArrayLike) -> "Tensor":
        other = self._coerce(other)
        out = self._make(self.data + other.data, (self, other))
        if out.requires_grad:
            def _bw(g, a=self, b=other):
                if a.requires_grad:
                    ga = _unbroadcast(g, a.shape)
                    a._accumulate(ga, owned=ga is not g)
                if b.requires_grad:
                    gb = _unbroadcast(g, b.shape)
                    b._accumulate(gb, owned=gb is not g)
            out._backward = _bw
        if _GRAPH_TRACER is not None:
            _GRAPH_TRACER.emit("add", (self, other), out, None)
        return out

    __radd__ = __add__

    def __neg__(self) -> "Tensor":
        out = self._make(-self.data, (self,))
        if out.requires_grad:
            def _bw(g, a=self):
                if a.requires_grad:
                    a._accumulate(-g, owned=True)
            out._backward = _bw
        if _GRAPH_TRACER is not None:
            _GRAPH_TRACER.emit("neg", (self,), out, None)
        return out

    def __sub__(self, other: ArrayLike) -> "Tensor":
        other = self._coerce(other)
        out = self._make(self.data - other.data, (self, other))
        if out.requires_grad:
            def _bw(g, a=self, b=other):
                if a.requires_grad:
                    ga = _unbroadcast(g, a.shape)
                    a._accumulate(ga, owned=ga is not g)
                if b.requires_grad:
                    b._accumulate(_unbroadcast(-g, b.shape), owned=True)
            out._backward = _bw
        if _GRAPH_TRACER is not None:
            _GRAPH_TRACER.emit("sub", (self, other), out, None)
        return out

    def __rsub__(self, other: ArrayLike) -> "Tensor":
        return self._coerce(other).__sub__(self)

    def __mul__(self, other: ArrayLike) -> "Tensor":
        other = self._coerce(other)
        out = self._make(self.data * other.data, (self, other))
        if out.requires_grad:
            def _bw(g, a=self, b=other):
                if a.requires_grad:
                    a._accumulate(_unbroadcast(g * b.data, a.shape), owned=True)
                if b.requires_grad:
                    b._accumulate(_unbroadcast(g * a.data, b.shape), owned=True)
            out._backward = _bw
        if _GRAPH_TRACER is not None:
            _GRAPH_TRACER.emit("mul", (self, other), out, None)
        return out

    __rmul__ = __mul__

    def __truediv__(self, other: ArrayLike) -> "Tensor":
        other = self._coerce(other)
        out = self._make(self.data / other.data, (self, other))
        if out.requires_grad:
            def _bw(g, a=self, b=other):
                if a.requires_grad:
                    a._accumulate(_unbroadcast(g / b.data, a.shape), owned=True)
                if b.requires_grad:
                    b._accumulate(_unbroadcast(-g * a.data / (b.data ** 2), b.shape),
                                  owned=True)
            out._backward = _bw
        if _GRAPH_TRACER is not None:
            _GRAPH_TRACER.emit("div", (self, other), out, None)
        return out

    def __rtruediv__(self, other: ArrayLike) -> "Tensor":
        return self._coerce(other).__truediv__(self)

    def __pow__(self, exponent: float) -> "Tensor":
        if isinstance(exponent, Tensor):
            raise TypeError("tensor exponents are not supported; use exp/log")
        out = self._make(self.data ** exponent, (self,))
        if out.requires_grad:
            def _bw(g, a=self, e=exponent):
                if a.requires_grad:
                    a._accumulate(g * e * (a.data ** (e - 1)), owned=True)
            out._backward = _bw
        if _GRAPH_TRACER is not None:
            _GRAPH_TRACER.emit("pow", (self,), out, {"exponent": exponent})
        return out

    def __matmul__(self, other: ArrayLike) -> "Tensor":
        other = self._coerce(other)
        # rowrep.matmul is the row-reproducible kernel seam: 2-D float
        # operands take the fixed-order blocked GEMM, so per-row bits
        # are independent of the batch composition
        out = self._make(rowrep.matmul(self.data, other.data), (self, other))
        if out.requires_grad:
            def _bw(g, a=self, b=other):
                if a.requires_grad:
                    if b.data.ndim == 1:
                        ga = np.outer(g, b.data) if a.data.ndim == 2 else g * b.data
                    else:
                        # the input-gradient leg is per-row too (rows of
                        # g against a fixed weight), so it rides the
                        # same seam; the weight-gradient leg below
                        # reduces over the batch and stays raw
                        ga = rowrep.matmul(g, np.swapaxes(b.data, -1, -2))
                    a._accumulate(_unbroadcast(ga, a.shape), owned=True)
                if b.requires_grad:
                    if a.data.ndim == 1:
                        gb = np.outer(a.data, g) if b.data.ndim == 2 else g * a.data
                    else:
                        gb = np.swapaxes(a.data, -1, -2) @ g
                    b._accumulate(_unbroadcast(gb, b.shape), owned=True)
            out._backward = _bw
        if _GRAPH_TRACER is not None:
            _GRAPH_TRACER.emit("matmul", (self, other), out, None)
        return out

    # ------------------------------------------------------------------ #
    # elementwise math
    # ------------------------------------------------------------------ #
    def exp(self) -> "Tensor":
        val = np.exp(self.data)
        out = self._make(val, (self,))
        if out.requires_grad:
            def _bw(g, a=self, v=val):
                if a.requires_grad:
                    a._accumulate(g * v, owned=True)
            out._backward = _bw
        if _GRAPH_TRACER is not None:
            _GRAPH_TRACER.emit("exp", (self,), out, None)
        return out

    def log(self) -> "Tensor":
        out = self._make(np.log(self.data), (self,))
        if out.requires_grad:
            def _bw(g, a=self):
                if a.requires_grad:
                    a._accumulate(g / a.data, owned=True)
            out._backward = _bw
        if _GRAPH_TRACER is not None:
            _GRAPH_TRACER.emit("log", (self,), out, None)
        return out

    def sqrt(self) -> "Tensor":
        val = np.sqrt(self.data)
        out = self._make(val, (self,))
        if out.requires_grad:
            def _bw(g, a=self, v=val):
                if a.requires_grad:
                    a._accumulate(g * 0.5 / v, owned=True)
            out._backward = _bw
        if _GRAPH_TRACER is not None:
            _GRAPH_TRACER.emit("sqrt", (self,), out, None)
        return out

    def abs(self) -> "Tensor":
        out = self._make(np.abs(self.data), (self,))
        if out.requires_grad:
            def _bw(g, a=self):
                if a.requires_grad:
                    a._accumulate(g * np.sign(a.data), owned=True)
            out._backward = _bw
        return out

    def tanh(self) -> "Tensor":
        val = np.tanh(self.data)
        out = self._make(val, (self,))
        if out.requires_grad:
            def _bw(g, a=self, v=val):
                if a.requires_grad:
                    a._accumulate(g * (1.0 - v * v), owned=True)
            out._backward = _bw
        if _GRAPH_TRACER is not None:
            _GRAPH_TRACER.emit("tanh", (self,), out, None)
        return out

    def sigmoid(self) -> "Tensor":
        val = 1.0 / (1.0 + np.exp(-self.data))
        out = self._make(val, (self,))
        if out.requires_grad:
            def _bw(g, a=self, v=val):
                if a.requires_grad:
                    a._accumulate(g * v * (1.0 - v), owned=True)
            out._backward = _bw
        if _GRAPH_TRACER is not None:
            _GRAPH_TRACER.emit("sigmoid", (self,), out, None)
        return out

    def relu(self) -> "Tensor":
        mask = self.data > 0
        out = self._make(np.where(mask, self.data, 0.0), (self,))
        if out.requires_grad:
            def _bw(g, a=self, m=mask):
                if a.requires_grad:
                    a._accumulate(g * m, owned=True)
            out._backward = _bw
        if _GRAPH_TRACER is not None:
            _GRAPH_TRACER.emit("relu", (self,), out, None)
        return out

    def maximum(self, other: ArrayLike) -> "Tensor":
        other = self._coerce(other)
        out = self._make(np.maximum(self.data, other.data), (self, other))
        if out.requires_grad:
            mask = self.data >= other.data
            def _bw(g, a=self, b=other, m=mask):
                if a.requires_grad:
                    a._accumulate(_unbroadcast(g * m, a.shape), owned=True)
                if b.requires_grad:
                    b._accumulate(_unbroadcast(g * (~m), b.shape), owned=True)
            out._backward = _bw
        return out

    def minimum(self, other: ArrayLike) -> "Tensor":
        other = self._coerce(other)
        out = self._make(np.minimum(self.data, other.data), (self, other))
        if out.requires_grad:
            mask = self.data <= other.data
            def _bw(g, a=self, b=other, m=mask):
                if a.requires_grad:
                    a._accumulate(_unbroadcast(g * m, a.shape), owned=True)
                if b.requires_grad:
                    b._accumulate(_unbroadcast(g * (~m), b.shape), owned=True)
            out._backward = _bw
        return out

    def clip(self, lo: float, hi: float) -> "Tensor":
        """Clamp with true (zero-outside) gradients."""
        val = np.clip(self.data, lo, hi)
        out = self._make(val, (self,))
        if out.requires_grad:
            mask = (self.data >= lo) & (self.data <= hi)
            def _bw(g, a=self, m=mask):
                if a.requires_grad:
                    a._accumulate(g * m, owned=True)
            out._backward = _bw
        return out

    # ------------------------------------------------------------------ #
    # reductions
    # ------------------------------------------------------------------ #
    def sum(self, axis=None, keepdims: bool = False) -> "Tensor":
        out = self._make(self.data.sum(axis=axis, keepdims=keepdims), (self,))
        if out.requires_grad:
            def _bw(g, a=self, ax=axis, kd=keepdims):
                if not a.requires_grad:
                    return
                if ax is None:
                    a._accumulate(np.broadcast_to(g, a.shape).copy()
                                  if np.ndim(g) else np.full(a.shape, g, dtype=a.dtype),
                                  owned=True)
                else:
                    if not kd:
                        g = np.expand_dims(g, ax)
                    a._accumulate(np.broadcast_to(g, a.shape).copy(), owned=True)
            out._backward = _bw
        if _GRAPH_TRACER is not None:
            _GRAPH_TRACER.emit("sum", (self,), out,
                               {"axis": axis, "keepdims": keepdims})
        return out

    def mean(self, axis=None, keepdims: bool = False) -> "Tensor":
        if axis is None:
            n = self.data.size
        else:
            axes = (axis,) if isinstance(axis, int) else tuple(axis)
            n = int(np.prod([self.shape[a] for a in axes]))
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / n)

    def max(self, axis=None, keepdims: bool = False) -> "Tensor":
        val = self.data.max(axis=axis, keepdims=keepdims)
        out = self._make(val, (self,))
        if out.requires_grad:
            def _bw(g, a=self, ax=axis, kd=keepdims, v=val):
                if not a.requires_grad:
                    return
                vv, gg = v, g
                if ax is not None and not kd:
                    vv = np.expand_dims(vv, ax)
                    gg = np.expand_dims(gg, ax)
                mask = a.data == vv
                # Ties split the gradient evenly (matches subgradient choice).
                counts = mask.sum(axis=ax, keepdims=True) if ax is not None else mask.sum()
                a._accumulate(np.where(mask, gg / counts, 0.0), owned=True)
            out._backward = _bw
        return out

    def var(self, axis=None, keepdims: bool = False) -> "Tensor":
        mu = self.mean(axis=axis, keepdims=True)
        centered = self - mu
        return (centered * centered).mean(axis=axis, keepdims=keepdims)

    # ------------------------------------------------------------------ #
    # shape ops
    # ------------------------------------------------------------------ #
    def reshape(self, *shape) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        out = self._make(self.data.reshape(shape), (self,))
        if out.requires_grad:
            def _bw(g, a=self):
                if a.requires_grad:
                    a._accumulate(g.reshape(a.shape))
            out._backward = _bw
        if _GRAPH_TRACER is not None:
            _GRAPH_TRACER.emit("reshape", (self,), out, None)
        return out

    def transpose(self, *axes) -> "Tensor":
        if len(axes) == 1 and isinstance(axes[0], (tuple, list)):
            axes = tuple(axes[0])
        if not axes:
            axes = tuple(reversed(range(self.ndim)))
        out = self._make(self.data.transpose(axes), (self,))
        if out.requires_grad:
            inv = np.argsort(axes)
            def _bw(g, a=self, iv=tuple(inv)):
                if a.requires_grad:
                    a._accumulate(g.transpose(iv))
            out._backward = _bw
        if _GRAPH_TRACER is not None:
            _GRAPH_TRACER.emit("transpose", (self,), out, {"axes": axes})
        return out

    @property
    def T(self) -> "Tensor":
        return self.transpose()

    def flatten(self, start_dim: int = 1) -> "Tensor":
        # the explicit product, not -1: numpy cannot infer -1 next to a
        # 0-length batch axis
        lead = self.shape[:start_dim]
        return self.reshape(lead + (int(np.prod(self.shape[start_dim:])),))

    def pad2d(self, pad: Tuple[int, int, int, int]) -> "Tensor":
        """Zero-pad an NCHW tensor: pad = (top, bottom, left, right)."""
        t, b, l, r = pad
        widths = ((0, 0), (0, 0), (t, b), (l, r))
        out = self._make(np.pad(self.data, widths), (self,))
        if out.requires_grad:
            H, W = self.shape[2], self.shape[3]
            def _bw(g, a=self, t=t, l=l, H=H, W=W):
                if a.requires_grad:
                    a._accumulate(g[:, :, t:t + H, l:l + W])
            out._backward = _bw
        if _GRAPH_TRACER is not None:
            _GRAPH_TRACER.emit("pad2d", (self,), out,
                               {"pad": (int(t), int(b), int(l), int(r))})
        return out

    def __getitem__(self, idx) -> "Tensor":
        out = self._make(self.data[idx], (self,))
        if out.requires_grad:
            def _bw(g, a=self, ix=idx):
                if a.requires_grad:
                    full = np.zeros_like(a.data)
                    np.add.at(full, ix, g)
                    a._accumulate(full, owned=True)
            out._backward = _bw
        return out

    def gather_rows(self, index: np.ndarray) -> "Tensor":
        """Select one column per row: ``out[i] = self[i, index[i]]``."""
        idx = np.asarray(index)
        rows = np.arange(self.shape[0])
        out = self._make(self.data[rows, idx], (self,))
        if out.requires_grad:
            def _bw(g, a=self, r=rows, c=idx):
                if a.requires_grad:
                    full = np.zeros_like(a.data)
                    np.add.at(full, (r, c), g)
                    a._accumulate(full, owned=True)
            out._backward = _bw
        return out


def concat(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    """Concatenate tensors along ``axis`` (differentiable)."""
    tensors = [Tensor._coerce(t) for t in tensors]
    data = np.concatenate([t.data for t in tensors], axis=axis)
    req = any(t.requires_grad for t in tensors) and is_grad_enabled()
    out = Tensor(data, requires_grad=req, _parents=tuple(tensors) if req else ())
    if req:
        sizes = [t.shape[axis] for t in tensors]
        offsets = np.cumsum([0] + sizes)
        def _bw(g, ts=tensors, off=offsets, ax=axis):
            for t, s, e in zip(ts, off[:-1], off[1:]):
                if t.requires_grad:
                    sl = [slice(None)] * g.ndim
                    sl[ax] = slice(int(s), int(e))
                    t._accumulate(g[tuple(sl)])
        out._backward = _bw
    if _GRAPH_TRACER is not None:
        _GRAPH_TRACER.emit("concat", tuple(tensors), out, {"axis": axis})
    return out


def stack(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    """Stack tensors along a new ``axis`` (differentiable)."""
    tensors = [Tensor._coerce(t) for t in tensors]
    data = np.stack([t.data for t in tensors], axis=axis)
    req = any(t.requires_grad for t in tensors) and is_grad_enabled()
    out = Tensor(data, requires_grad=req, _parents=tuple(tensors) if req else ())
    if req:
        def _bw(g, ts=tensors, ax=axis):
            for i, t in enumerate(ts):
                if t.requires_grad:
                    t._accumulate(np.take(g, i, axis=ax))
        out._backward = _bw
    if _GRAPH_TRACER is not None:
        _GRAPH_TRACER.emit("stack", tuple(tensors), out, {"axis": axis})
    return out


def where(cond: np.ndarray, a: ArrayLike, b: ArrayLike) -> Tensor:
    """Differentiable select: gradient flows to the chosen branch only."""
    cond = np.asarray(cond, dtype=bool)
    a = Tensor._coerce(a)
    b = Tensor._coerce(b)
    data = np.where(cond, a.data, b.data)
    req = (a.requires_grad or b.requires_grad) and is_grad_enabled()
    out = Tensor(data, requires_grad=req, _parents=(a, b) if req else ())
    if req:
        def _bw(g, a=a, b=b, c=cond):
            if a.requires_grad:
                a._accumulate(_unbroadcast(np.where(c, g, 0.0), a.shape))
            if b.requires_grad:
                b._accumulate(_unbroadcast(np.where(c, 0.0, g), b.shape))
        out._backward = _bw
    if _GRAPH_TRACER is not None:
        _GRAPH_TRACER.emit("where", (a, b), out, {"cond": cond})
    return out
