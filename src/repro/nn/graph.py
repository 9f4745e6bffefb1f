"""Trace-and-replay compiled forward executor for ``repro.nn`` modules.

The eager tape (:mod:`repro.nn.tensor`) rebuilds the full autograd graph —
tensor nodes, backward closures, a topological sort — on *every* forward.
For the attack hot loop, which pushes thousands of batches through two
frozen models, almost all of that work is identical step to step.  This
module does it once:

``compile_forward(module, example)`` runs the module's forward a single
time under a tracer (hooks in :mod:`repro.nn.tensor` /
:mod:`repro.nn.functional` report each primitive op in execution order —
already a topological order), then lowers the recorded tape into a flat
replayable program.  Both float compilers (this one and
:mod:`repro.nn.train_graph`) trace through one entry, :func:`_trace`,
whose input-path check walks the tape in ``Tensor.backward``'s order
(:func:`repro.nn.tensor._tape_order`).  The program:

- **constant folding** — every subgraph that does not depend on the input
  (pruning masks, weight fake-quantization, ``weight.reshape(...).T``
  for Linear/Conv) is evaluated once at compile time and cached, so a
  QAT model no longer re-quantizes its weights on every attack step;
- **planned buffers** — every op output and backward scratch array gets
  a live interval over the fixed replay schedule at compile time, and
  the buffers are packed into one per-program arena so that two of them
  share bytes only when their intervals do not overlap; each conv reuses
  a single im2col scratch buffer for its forward *and* its
  input-gradient backward;
- **no per-step Python closure allocation or topo re-sort** — the
  program is a fixed list of bound kernels built at compile time;
- **fused forward + input gradient** — :meth:`CompiledForward.
  value_and_input_grad` returns the logits *and* d(loss)/d(input) in one
  replay, given the loss gradient w.r.t. the logits (parameter gradients
  are deliberately not computed here: attacks never use them — the
  *training* loop's parameter-gradient programs live in
  :mod:`repro.nn.train_graph`, built on this module's tracer, kernel
  factories and buffer machinery).

Replays accept any batch size whose trailing dims match the traced
example; buffers grow on demand and are sliced for smaller batches, so a
shrinking attack batch (samples dropping out as they succeed) replays
without retracing.

Safety: tracing is best-effort by construction, so compilation
*validates itself* — the compiled program is compared against the eager
tape on a perturbed input (logits and input gradient) before it is
returned, and any mismatch or untraceable op raises
:class:`GraphUnsupported`.  Callers (see :mod:`repro.attacks.base`)
treat that as "fall back to the eager tape", never as an error:
:func:`fallback_to_eager`, the one warn-and-return-None fallback of
every compiled leg, float and int8.

Constants are snapshots: if parameters are mutated after compilation
(e.g. by an optimizer step), call :meth:`CompiledForward.refresh` to
re-fold them.  Attacks do this at the start of every ``generate`` call.

One program per model: :func:`compile_forward_cached` keeps each
model's programs in the model's store (the session cache it was adopted
into, else a store that dies with the model), keyed by trailing shape
and dtype, so attacks, served float predicts and ``predict_logits`` on
one model replay one program.  A shared program may be replayed from
several threads: each holds a lock that :meth:`CompiledForward.refresh`
and every public replay take.
"""

from __future__ import annotations

import ctypes
import threading
import warnings
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from . import rowrep
from . import tensor as _tensor
from .functional import (_col2im, _col2im_flat, _col2im_xpad,
                         _conv_dcols_grouped, _conv_depthwise_fwd,
                         _conv_dw_dense, _conv_dw_depthwise,
                         _conv_dw_grouped, _conv_grouped_fwd, _im2col)
from .module import Module, Parameter
from .tensor import Tensor, _tape_order, _unbroadcast, get_default_dtype


class GraphUnsupported(RuntimeError):
    """A forward cannot be traced into a replayable program."""


try:                            # glibc only; elsewhere a no-op
    _MALLOC_TRIM = ctypes.CDLL(None).malloc_trim
except (AttributeError, OSError):
    _MALLOC_TRIM = None


def release_freed_heap() -> None:
    """Hand the heap's free pages back to the OS.

    Compiles call it between the eager reference step and the program's
    first replay.  Whether glibc returns the freed tape before the
    replay allocates the program's arena otherwise depends on which
    small allocation sits at the top of the heap: on
    ``surrogate_distill`` that moved peak RSS by ~20 MB between builds
    that differed by a few import-time objects.
    """
    if _MALLOC_TRIM is not None:
        _MALLOC_TRIM(0)


#: byte alignment of every buffer laid out in a :meth:`ScratchPool.arena`
#: (each buffer's per-row stride is rounded up to it, and the slab itself
#: starts on it, so every arena view starts on a cache line)
_ARENA_ALIGN = 64


class ScratchPool:
    """Buffer store.  Every compiled float program owns one; the int8
    edge programs of one model share one through :meth:`acquire`.

    It holds two kinds of buffer:

    - the **arena**: one flat byte slab holding every buffer with no
      ``fill`` — op outputs, backward scratch, im2col windows,
      fake_quant's float64 round trip.  A program plans where each of
      its buffers sits (:meth:`_Program._plan`): buffers whose live
      intervals over the replay schedule do not overlap share bytes, so
      the slab costs the program's peak of simultaneously live bytes,
      not the sum of all of them;
    - **keyed** buffers: pre-filled padded images (conv and pool pads)
      whose constant borders must persist across replays, keyed by
      geometry so same-shaped layers reuse one allocation.

    Programs that may replay at the same time (the lanes of a paired
    attack step) must not share a pool.
    """

    def __init__(self):
        self._bufs: Dict[object, np.ndarray] = {}
        self._arena = np.empty(0, dtype=np.uint8)

    def acquire(self, key, n: int, per_sample_shape: Tuple[int, ...],
                dtype, fill: Optional[float]) -> np.ndarray:
        full_key = (key, per_sample_shape, np.dtype(dtype), fill)
        buf = self._bufs.get(full_key)
        if buf is None or len(buf) < n:
            buf = np.empty((max(n, len(buf) if buf is not None else 0),)
                           + per_sample_shape, dtype=dtype)
            if fill is not None:
                buf.fill(fill)
            self._bufs[full_key] = buf
        return buf

    def arena(self, nbytes: int) -> np.ndarray:
        """The byte slab, grown (never shrunk) to at least ``nbytes``."""
        if self._arena.nbytes < nbytes:
            raw = np.empty(nbytes + _ARENA_ALIGN, dtype=np.uint8)
            start = -raw.ctypes.data % _ARENA_ALIGN
            self._arena = raw[start:start + nbytes]
        return self._arena


def fallback_to_eager(build: Callable[[], object], failed: str,
                      eager: str = "the eager tape", stacklevel: int = 2):
    """``build()``, or None after one ``RuntimeWarning`` reading
    ``{failed}: {exc!r}; running {eager}``: the fallback of all three
    compiled legs (:func:`compile_forward_or_none`,
    :func:`repro.nn.train_graph.compile_train_step_or_none`,
    ``EdgeModel._build_program``).  Any failure (unsupported op,
    non-Module test double, a geometry the edge planner refuses, a
    validation mismatch) means "run the reference path": never an
    error, never silent.  ``stacklevel`` counts from the caller.
    """
    try:
        return build()
    except Exception as exc:
        warnings.warn(f"{failed}: {exc!r}; running {eager}",
                      RuntimeWarning, stacklevel=stacklevel + 1)
        return None


def compile_forward_or_none(module, example):
    """Best-effort :func:`compile_forward`: None instead of raising,
    after :func:`fallback_to_eager`'s warning (the program store pins
    the failure, so a model warns once per shape).  The fallback shared
    by attacks and evaluation.
    """
    return fallback_to_eager(
        lambda: compile_forward(module, example),
        f"forward compile failed for {type(module).__name__} on input "
        f"{np.shape(example)}")


def compile_forward_cached(module, example, occurrence: int = 0,
                           build: Optional[Callable[[], object]] = None):
    """``module``'s compiled forward for ``example``'s trailing shape and
    dtype, from the model's store (None = eager fallback).

    The one lookup attacks, the scheduler's float predicts and
    :func:`repro.training.evaluate.predict_logits` share: one program
    per (model, trailing shape, dtype) per store
    (:func:`repro.serve.cache.model_program` picks the store).
    ``occurrence`` keys extra programs of one model — an attack naming
    the same model twice replays a separate program per occurrence, so
    two lanes never replay one arena.  ``build`` replaces the default
    best-effort compile on a miss; failures (None) are pinned.  A hit is
    *not* refreshed: callers re-fold constants after mutating parameters
    (:func:`cached_programs`, :meth:`CompiledForward.refresh`).
    """
    from ..serve.cache import model_program
    example = np.asarray(example)
    key = ("nn-forward", example.shape[1:], example.dtype.str, occurrence)
    return model_program(module, key, build or (
        lambda: compile_forward_or_none(module, example)))


def cached_programs(module) -> List["CompiledForward"]:
    """Every compiled forward ``module``'s store holds for it (all
    shapes, dtypes and occurrences; pinned failures excluded)."""
    from ..serve.cache import model_programs
    return [p for p in model_programs(module, "nn-forward").values()
            if p is not None]


class _Op:
    """One recorded primitive op: ``out = kind(*inputs, **attrs)``."""

    __slots__ = ("kind", "inputs", "out", "attrs", "in_shapes", "out_shape")

    def __init__(self, kind, inputs, out, attrs, in_shapes, out_shape):
        self.kind = kind
        self.inputs = inputs          # tuple of node ids
        self.out = out                # node id
        self.attrs = attrs or {}
        self.in_shapes = in_shapes    # tuple of traced input shapes
        self.out_shape = out_shape    # traced output shape


class _Tracer:
    """Records emitted ops; installed as ``tensor._GRAPH_TRACER``."""

    def __init__(self, input_tensor: Tensor, allow_effects: bool = False):
        #: whether :meth:`emit_effect` records (training compiler) or
        #: refuses (forward executor: a side effect cannot be replayed
        #: batch-variably)
        self.allow_effects = allow_effects
        self.ops: List[_Op] = []
        self.ids: Dict[int, int] = {}
        self.keep: List[Tensor] = []   # keepalive: id() reuse would corrupt ids
        self.leaves: Dict[int, Tensor] = {}
        self.effects: List[Tuple[int, Callable, int]] = []
        self.count = 0
        self.input_id = self._register(input_tensor)

    def _register(self, t: Tensor) -> int:
        nid = self.count
        self.count += 1
        self.ids[id(t)] = nid
        self.keep.append(t)
        return nid

    def _lookup(self, t: Tensor) -> int:
        nid = self.ids.get(id(t))
        if nid is None:
            nid = self._register(t)
            self.leaves[nid] = t
        return nid

    def emit(self, kind, inputs, out, attrs) -> None:
        in_ids = tuple(self._lookup(t) for t in inputs)
        out_id = self._register(out)
        self.ops.append(_Op(kind, in_ids, out_id, attrs,
                            tuple(t.data.shape for t in inputs),
                            out.data.shape))

    def refuse(self, reason: str) -> None:
        """Abort tracing: the forward is doing something no replay can
        reproduce (e.g. dropout redrawing its mask per step — a frozen
        mask would pass validation, since validation restores the module
        RNG to the state the trace consumed)."""
        raise GraphUnsupported(reason)

    def emit_effect(self, fn: Callable[[np.ndarray], None], t: Tensor) -> None:
        """Record a replayable side effect (train-time running statistics,
        observer updates): on replay, ``fn`` receives the current value of
        ``t`` at this position in the forward program.  The forward
        executor refuses such forwards — a mutation of module state cannot
        be replayed against arbitrary batches — while the training-step
        compiler records and replays them in order."""
        if not self.allow_effects:
            raise GraphUnsupported(
                "forward has train-time side effects; cannot compile")
        self.effects.append((len(self.ops), fn, self._lookup(t)))


def _check_input_path(roots, out: Tensor, tracer: _Tracer) -> None:
    """Every tape node that depends on a root tensor must have been traced.

    A missed emit on the input (or, for training programs, parameter)
    path would silently freeze an input-dependent value as a constant;
    this walk turns that into a loud :class:`GraphUnsupported` instead.
    """
    dep: Dict[int, bool] = {id(t): True for t in roots}
    for node in _tape_order(out):      # parents come before children
        if id(node) in dep:
            continue
        dep[id(node)] = any(dep.get(id(p), False) for p in node._parents)
        if dep[id(node)] and id(node) not in tracer.ids:
            raise GraphUnsupported(
                "forward used an untraced operation on the input path "
                f"(tensor shape {node.shape}); cannot compile")


# --------------------------------------------------------------------- #
# compile entry points
# --------------------------------------------------------------------- #
def _trace(module, example: np.ndarray, train: bool = False
           ) -> Tuple[np.ndarray, _Tracer, int]:
    """Run ``module`` once on ``example`` under a tracer: the one trace
    entry of both float compilers.  Returns ``(x, tracer, out_id)``,
    ``x`` being ``example`` in the session dtype.

    ``train`` traces for the training compiler: side effects are
    recorded, not refused; the input takes no gradient, as in the
    training loops (so the compiled backward skips e.g. the stem conv's
    input gradient, as the eager tape does); and the parameters join
    the input as roots of the input-path check.  A caller that must
    restore module state does so around this call.
    """
    x = np.asarray(example)
    if x.dtype != get_default_dtype():
        x = x.astype(get_default_dtype())
    if x.ndim < 1 or len(x) < 1:
        raise GraphUnsupported("example batch must be non-empty")
    if _tensor._GRAPH_TRACER is not None:
        raise GraphUnsupported("nested tracing is not supported")
    xt = Tensor(x, requires_grad=not train)
    tracer = _Tracer(xt, allow_effects=train)
    _tensor._GRAPH_TRACER = tracer
    try:
        out = module(xt)
    finally:
        _tensor._GRAPH_TRACER = None
    if not isinstance(out, Tensor):
        raise GraphUnsupported("forward did not return a Tensor")
    out_id = tracer.ids.get(id(out))
    if out_id is None or out_id in tracer.leaves:
        raise GraphUnsupported("forward output was not produced by traced ops")
    roots = [xt]
    if train:
        roots += [t for t in tracer.leaves.values() if isinstance(t, Parameter)]
    _check_input_path(roots, out, tracer)
    return x, tracer, out_id


# the trace reads ``_parents`` and the validation runs an eager
# backward, so both need the tape even when called inside ``no_grad``
@_tensor.enable_grad()
def compile_forward(module: Callable[[Tensor], Tensor],
                    example: np.ndarray) -> "CompiledForward":
    """Trace ``module``'s forward on ``example`` and compile it.

    Raises :class:`GraphUnsupported` when the forward uses an op the
    executor does not implement, produces something other than a traced
    Tensor, or fails the compile-time parity validation.
    """
    x, tracer, out_id = _trace(module, example)
    prog = CompiledForward(tracer, out_id, x)
    # the program holds no reference into the trace: free its tape before
    # the validating eager step, so a compile peaks at about one step
    del tracer
    prog._validate(module, x)
    return prog


class _Program:
    """Buffer, constant-folding and replay machinery shared by the
    forward executor (:class:`CompiledForward`) and the training-step
    executor (:class:`repro.nn.train_graph.CompiledTrainStep`)."""

    #: True: replays accept any batch size, so batch-axis-entangling ops
    #: are refused at compile time.  The training executor pins the
    #: traced batch and relaxes those checks (parameter transposes and
    #: batch-axis reductions are legitimate there).
    _variable_batch = True

    def __init__(self, tracer: _Tracer, out_id: int, example: np.ndarray,
                 var_roots: Optional[set] = None):
        #: serializes replays and refreshes: a program is shared by every
        #: caller of its model (taken in ``id`` order by ``lane_step``)
        self._lock = threading.Lock()
        self._input_id = tracer.input_id
        self._out_id = out_id
        self._dtype = example.dtype
        self._trailing = example.shape[1:]
        self._n0 = example.shape[0]
        #: this program's own buffer store (arena + keyed fill buffers):
        #: programs never share one, so two programs may replay at the
        #: same time
        self._pool = ScratchPool()

        # Reachability from the output (plus recorded side effects).
        reach = {out_id}
        for _, _, nid in tracer.effects:
            reach.add(nid)
        for op in reversed(tracer.ops):
            if op.out in reach:
                reach.update(op.inputs)
        if self._input_id not in reach:
            raise GraphUnsupported("output does not depend on the input")
        ops = [op for op in tracer.ops if op.out in reach]

        # Split into constant (root-independent) and variable ops.
        var = {self._input_id} if var_roots is None else set(var_roots)
        for op in ops:
            if any(i in var for i in op.inputs):
                var.add(op.out)
        self._var_set = var
        self._const_ops = [op for op in ops if op.out not in var]
        self._var_ops = [op for op in ops if op.out in var]
        self._leaves = {nid: t for nid, t in tracer.leaves.items() if nid in reach}

        for op in self._var_ops:
            if op.kind not in _FWD_FACTORY or op.kind not in _BWD_FACTORY:
                raise GraphUnsupported(f"op {op.kind!r} is not replayable")

        self._env: List[Optional[np.ndarray]] = [None] * tracer.count
        self._ctx: Dict[int, dict] = {op.out: {} for op in self._var_ops}
        self._bufs: Dict[object, np.ndarray] = {}
        #: key -> (per-row shape, dtype, fill, pool key)
        self._buf_shapes: Dict[object, tuple] = {}
        #: arena buffer key -> closed live interval (first step, last step)
        #: over the replay schedule (see :meth:`_plan`)
        self._live: Dict[object, Tuple[int, int]] = {}
        #: escaping backward scratch key -> the node whose gradient it is
        self._grad_of: Dict[object, int] = {}
        #: arena buffer key -> byte offset per batch row
        self._offsets: Dict[object, int] = {}
        self._row_bytes = 0
        self._arena = np.empty(0, dtype=np.uint8)
        self._alloc_n = 0
        self._step = 0
        self.replays = 0
        self.refresh()

    # -- buffers -------------------------------------------------------- #
    def _register_buf(self, key, per_sample_shape: Tuple[int, ...],
                      fill: Optional[float] = None,
                      pool_key: Optional[Tuple] = None,
                      dtype=None, grad_of: Optional[int] = None) -> None:
        """Declare a per-row buffer of ``per_sample_shape`` (``dtype``
        defaults to the program's), written by the step being bound.

        A buffer with no ``fill`` lives in the program's arena, live from
        this step to its last reader (:meth:`_plan`).  A buffer keyed by
        a node id holds that node's value, read by the node's consumers;
        any other key is scratch, read by this step and by the
        backward-reads table (:data:`_BWD_READS`) only, unless
        ``grad_of`` names the node whose gradient the buffer becomes.

        ``fill`` pre-fills the buffer once per allocation — padded-input
        buffers whose borders are constant (0 for conv, -inf for
        max-pool), so replays only write the interior.  Its borders
        persist across replays, so it stays outside the arena;
        ``pool_key`` shares it, through the program's
        :class:`ScratchPool`, across same-geometry ops.
        """
        dtype = np.dtype(self._dtype if dtype is None else dtype)
        self._buf_shapes[key] = (tuple(per_sample_shape), dtype, fill,
                                 pool_key)
        if fill is None:
            self._live[key] = (self._step, self._step)
            if grad_of is not None:
                self._grad_of[key] = grad_of

    def _make_effect(self, fn: Callable[[np.ndarray], None], nid: int):
        env = self._env

        def run(n, fn=fn, nid=nid):
            fn(env[nid])
        return run

    def _build(self, fwd: Sequence, bwd: Sequence[_Op], bwd_var: set) -> None:
        """Bind the replay schedule, then plan its buffers; the first
        replay allocates them (:meth:`_ensure`).

        ``fwd`` lists the forward steps in replay order: traced ops, or
        ``(fn, nid)`` side effects that read node ``nid`` (train-mode
        statistics).  ``bwd`` lists the ops whose backward closures run
        after them, in order; those factories see ``bwd_var``, the nodes
        that carry a gradient, as the program's variable set.
        """
        reads: List[tuple] = []
        self._fwd_prog = []
        for item in fwd:
            self._step = len(reads)
            if isinstance(item, _Op):
                self._fwd_prog.append(_FWD_FACTORY[item.kind](self, item))
                reads.append(item.inputs)
            else:
                self._fwd_prog.append(self._make_effect(*item))
                reads.append((item[1],))
        value_var, self._var_set = self._var_set, bwd_var
        try:
            self._bwd_prog = []
            for op in bwd:
                self._step = len(reads)
                self._bwd_prog.append(
                    (_BWD_FACTORY[op.kind](self, op), op.out))
                reads.append(_READS[_BWD_READS[op.kind]](op, bwd_var))
        finally:
            self._var_set = value_var
        self._plan([item for item in fwd if isinstance(item, _Op)], bwd,
                   bwd_var, reads)

    def _plan(self, fwd_ops: Sequence[_Op], bwd: Sequence[_Op],
              bwd_var: set, reads: Sequence[tuple]) -> None:
        """Give every arena buffer a live interval and pack the arena.

        Steps are numbered in replay order, forward then backward, and
        ``reads[step]`` names the nodes (and scratch keys) each reads;
        step ``len(reads)`` stands for the caller after the replay, which
        still holds the output and the gradients of the leaves.  A buffer
        is live from the step that writes it to its last reader:

        - a node's value through every reader of the node or of a
          forward view of it (reshape, transpose);
        - escaping gradient scratch until the backward that consumes its
          target node, extended through backwards that may pass the
          gradient on as a view (:data:`_BWD_VIEWS`).

        Intervals are closed, so an op's output never shares bytes with
        its inputs or its own scratch.  Packing is greedy by size: each
        buffer, largest first, takes the lowest offset clear of every
        placed buffer whose interval overlaps its own.
        """
        end = len(reads)
        root: Dict[int, int] = {}
        for op in fwd_ops:
            if op.kind in _FWD_VIEWS:
                src = op.inputs[0]
                root[op.out] = root.get(src, src)
        last: Dict[object, int] = {}

        def touch(key, step):
            key = root.get(key, key) if isinstance(key, int) else key
            if last.get(key, -1) < step:
                last[key] = step

        for step, keys in enumerate(reads):
            for key in keys:
                touch(key, step)
        touch(self._out_id, end)
        base = end - len(bwd)
        grad_end: Dict[int, int] = {}
        for k in range(len(bwd) - 1, -1, -1):    # inputs before consumers
            op = bwd[k]
            stop = base + k
            if op.kind in _BWD_VIEWS:
                stop = max([stop] + [grad_end.get(i, end) for i in op.inputs
                                     if i in bwd_var])
            grad_end[op.out] = stop
        for key, nid in self._grad_of.items():
            touch(key, grad_end.get(nid, end))

        line = lambda b: -(-b // _ARENA_ALIGN) * _ARENA_ALIGN  # noqa: E731
        items = []
        for key, (start, _) in self._live.items():
            self._live[key] = (start, max(start, last.get(key, start)))
            shape, dtype = self._buf_shapes[key][:2]
            items.append((line(int(np.prod(shape, dtype=np.int64))
                               * dtype.itemsize), start, key))
        items.sort(key=lambda item: (-item[0], item[1]))
        placed: List[Tuple[int, int, int, int]] = []
        for size, start, key in items:
            stop = self._live[key][1]
            off = 0
            for lo, hi in sorted((o, o + sz) for o, sz, a, b in placed
                                 if a <= stop and start <= b):
                if off + size <= lo:
                    break
                off = max(off, hi)
            placed.append((off, size, start, stop))
            self._offsets[key] = off
        self._row_bytes = max((o + sz for o, sz, _, _ in placed), default=0)

    @property
    def alloc_rows(self) -> int:
        """Rows the buffers are sized for: the largest batch replayed."""
        return self._alloc_n

    def arena_bytes(self) -> Tuple[int, int]:
        """(planned, unplanned): the arena's bytes at :attr:`alloc_rows`,
        and the bytes its buffers would take if each had its own.  Both
        read 0 before the program's first replay, which allocates it."""
        unplanned = sum(
            int(np.prod(shape, dtype=np.int64)) * dtype.itemsize
            for key, (shape, dtype, _, _) in self._buf_shapes.items()
            if key in self._live)
        return (self._alloc_n * self._row_bytes,
                self._alloc_n * unplanned)

    def fill_bytes(self) -> int:
        """Bytes of the pre-filled padding buffers kept outside the
        arena, each distinct buffer once (pooled ones are shared); 0
        before the program's first replay, which allocates them."""
        bufs = {id(b): b for key, b in self._bufs.items()
                if key not in self._offsets}
        return sum(b.nbytes for b in bufs.values())

    def _slot(self, key, n: int) -> np.ndarray:
        return self._bufs[key][:n]

    def _ensure(self, n: int) -> None:
        if n <= self._alloc_n:
            return
        # a buffer at per-row offset o occupies bytes [n*o, n*(o+row))
        # of an n-row arena, so disjoint per-row spans stay disjoint
        self._arena = self._pool.arena(n * self._row_bytes)
        for key, (shape, dtype, fill, pool_key) in self._buf_shapes.items():
            offset = self._offsets.get(key)
            if offset is not None:
                size = n * int(np.prod(shape, dtype=np.int64)) * dtype.itemsize
                start = n * offset
                self._bufs[key] = self._arena[start:start + size].view(
                    dtype).reshape((n,) + shape)
            elif pool_key is not None:
                self._bufs[key] = self._pool.acquire(pool_key, n, shape,
                                                     dtype, fill)
            else:
                buf = np.empty((n,) + shape, dtype=dtype)
                buf.fill(fill)
                self._bufs[key] = buf
        self._alloc_n = n

    def _batched(self, shape: Tuple[int, ...]) -> bool:
        return len(shape) >= 1 and shape[0] == self._n0

    # -- constants ------------------------------------------------------ #
    def refresh(self) -> None:
        """Re-read leaf tensors and re-fold the constant subgraphs.

        Call after mutating parameters in place (optimizer steps); cheap
        relative to even a single replay, so attacks call it once per
        ``generate``.
        """
        with self._lock:
            env = self._env
            for nid, t in self._leaves.items():
                env[nid] = t.data
            for ctx in self._ctx.values():
                for key in ("wmat", "wmat_g", "w2", "w2T"):
                    ctx.pop(key, None)
            for op in self._const_ops:
                val = _eval_const(op, env)
                if val.dtype.kind == "f" and val.dtype != self._dtype:
                    # the eager tape wraps every op result in a Tensor,
                    # which casts to the session dtype — mirror it, or a
                    # folded float64 intermediate (fake_quant's dequantize
                    # round trip) promotes the downstream BLAS calls and
                    # drifts off the tape by ulps
                    val = val.astype(self._dtype)
                env[op.out] = val

    # -- replay --------------------------------------------------------- #
    def _check_input(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x)
        if x.dtype != self._dtype:
            x = x.astype(self._dtype)
        if x.shape[1:] != self._trailing:
            raise GraphUnsupported(
                f"replay input trailing shape {x.shape[1:]} != traced "
                f"{self._trailing}")
        return x

    def _forward(self, x: np.ndarray) -> np.ndarray:
        n = len(x)
        self._ensure(n)
        env = self._env
        env[self._input_id] = x
        for run in self._fwd_prog:
            run(n)
        self.replays += 1
        return env[self._out_id]

    def _backward(self, seed: np.ndarray, n: int
                  ) -> Tuple[List[Optional[np.ndarray]], List[bool]]:
        """Replay the backward of the most recent ``n``-row forward from
        ``seed``, the output's gradient: the one backward walk of both
        float programs.  Returns ``(genv, gowned)``, each node's
        gradient (None if none flowed or it was consumed) and whether
        the program owns it."""
        genv: List[Optional[np.ndarray]] = [None] * len(self._env)
        gowned: List[bool] = [False] * len(self._env)
        genv[self._out_id] = seed
        for run, out_nid in self._bwd_prog:
            go = genv[out_nid]
            if go is None:
                continue
            run(go, genv, gowned, n)
            genv[out_nid] = None
        return genv, gowned

    def _validation_input(self, example: np.ndarray) -> np.ndarray:
        """The perturbed copy of the build example a compile validates
        on, so the check does not replay the traced values."""
        rng = np.random.default_rng(0)
        return (example + rng.normal(0.0, 1e-2, size=example.shape)
                ).astype(self._dtype)


class CompiledForward(_Program):
    """A flat, replayable program lowered from one traced forward."""

    def __init__(self, tracer: _Tracer, out_id: int, example: np.ndarray):
        super().__init__(tracer, out_id, example)
        for op in self._var_ops:
            if op.out_shape[:1] != (self._n0,):
                raise GraphUnsupported(
                    f"op {op.kind!r} output is not batch-major "
                    f"(shape {op.out_shape}); cannot replay variable batches")
        self._build(self._var_ops, self._var_ops[::-1], self._var_set)

    def replay(self, x: np.ndarray, copy: bool = True) -> np.ndarray:
        """Forward only: return the output (logits) for batch ``x``.

        With ``copy=False`` the returned array is a view into an
        internal buffer, valid until the next replay.
        """
        with self._lock:
            out = self._forward(self._check_input(x))
            return out.copy() if copy else out

    def value_and_input_grad(self, x: np.ndarray,
                             out_grad: Union[np.ndarray, Callable[[np.ndarray], np.ndarray]],
                             ) -> Tuple[np.ndarray, np.ndarray]:
        """One fused replay: output and d(loss)/d(input).

        ``out_grad`` is either the loss gradient w.r.t. the output, or a
        callable mapping the output array to that gradient (evaluated
        after the forward half, so success checks and gradient seeds can
        share the same logits).  The returned output is a buffer view
        valid until the next replay; the gradient is freshly owned.
        """
        x = self._check_input(x)
        with self._lock:
            out = self._forward(x)
            g = out_grad(out) if callable(out_grad) else np.asarray(out_grad)
            return out, self._backward_from_seed(g, x)

    def _backward_from_seed(self, g: np.ndarray, x: np.ndarray) -> np.ndarray:
        """d(loss)/d(input) for the *most recent* forward, seeded with the
        loss gradient w.r.t. the output.  The forward's activations must
        still be live (no replay of this program in between); the
        returned gradient is freshly owned.
        """
        out = self._env[self._out_id]
        if g.dtype != self._dtype:
            g = g.astype(self._dtype)
        if g.shape != out.shape:
            raise ValueError(f"seed gradient shape {g.shape} != output "
                             f"shape {out.shape}")
        genv, gowned = self._backward(g, len(x))
        gx = genv[self._input_id]
        if gx is None:
            gx = np.zeros_like(x)
        elif not gowned[self._input_id] or not gx.flags.writeable:
            # an unowned gradient may alias per-op scratch (e.g. the
            # stride-1 conv backward's col2im accumulator) that the next
            # replay overwrites — a contiguity check is not enough, the
            # caller was promised a freshly owned array
            gx = gx.copy()
        return gx

    # -- validation ----------------------------------------------------- #
    def _validate(self, module, example: np.ndarray) -> None:
        xv = self._validation_input(example)
        ref, gref = _eager_value_and_input_grad(module, xv)
        release_freed_heap()
        got, gx = self.value_and_input_grad(xv, np.ones_like(ref))
        if got.shape != ref.shape or not np.allclose(got, ref, rtol=1e-5, atol=1e-6):
            raise GraphUnsupported("compiled forward does not match eager tape")
        if gx.shape != gref.shape or not np.allclose(gx, gref, rtol=1e-5, atol=1e-6):
            raise GraphUnsupported("compiled input gradient does not match eager tape")
        # bit-validate against per-row execution: the first, middle and
        # last row replayed alone must equal their full-batch bits,
        # forward and input gradient — the property that makes coalescing
        # float traffic (and degradation down the serve ladder)
        # value-neutral
        n = len(xv)
        if n < 2:
            return
        got = got.copy()
        for i in sorted({0, n // 2, n - 1}):
            z, g = self.value_and_input_grad(xv[i:i + 1], np.ones_like(ref[:1]))
            if not (np.array_equal(z[0], got[i]) and np.array_equal(g[0], gx[i])):
                raise GraphUnsupported(
                    "compiled forward is not row-reproducible "
                    "(per-row bits change with batch composition)")


def _eager_value_and_input_grad(module, xv: np.ndarray
                                ) -> Tuple[np.ndarray, np.ndarray]:
    """The eager tape's logits and input gradient (ones seed) on ``xv``,
    copied out: the tape and its gradients are freed on return, before
    the compiled replay they are checked against allocates its arena."""
    xt = Tensor(xv, requires_grad=True)
    out = module(xt)
    out.backward(np.ones_like(out.data))
    if isinstance(module, Module):
        module.zero_grad()       # drop parameter grads the check created
    return out.data.copy(), xt.grad.copy()


# --------------------------------------------------------------------- #
# constant evaluation (runs once per compile/refresh; clarity over speed)
# --------------------------------------------------------------------- #
def _eval_const(op: _Op, env) -> np.ndarray:
    ins = [env[i] for i in op.inputs]
    k, at = op.kind, op.attrs
    if k == "add":
        return ins[0] + ins[1]
    if k == "sub":
        return ins[0] - ins[1]
    if k == "neg":
        return -ins[0]
    if k == "mul":
        return ins[0] * ins[1]
    if k == "div":
        return ins[0] / ins[1]
    if k == "pow":
        return ins[0] ** at["exponent"]
    if k == "matmul":
        return rowrep.matmul(ins[0], ins[1])
    if k == "exp":
        return np.exp(ins[0])
    if k == "log":
        return np.log(ins[0])
    if k == "sqrt":
        return np.sqrt(ins[0])
    if k == "tanh":
        return np.tanh(ins[0])
    if k == "sigmoid":
        return 1.0 / (1.0 + np.exp(-ins[0]))
    if k == "relu":
        return np.where(ins[0] > 0, ins[0], 0.0)
    if k == "sum":
        return ins[0].sum(axis=at["axis"], keepdims=at["keepdims"])
    if k == "reshape":
        return ins[0].reshape(op.out_shape)
    if k == "transpose":
        return ins[0].transpose(at["axes"])
    if k == "concat":
        return np.concatenate(ins, axis=at["axis"])
    if k == "stack":
        return np.stack(ins, axis=at["axis"])
    if k == "where":
        return np.where(at["cond"], ins[0], ins[1])
    if k == "pad2d":
        t, b, l, r = at["pad"]
        return np.pad(ins[0], ((0, 0), (0, 0), (t, b), (l, r)))
    if k == "fake_quant":
        from ..quantization.affine import fake_quantize_array
        return fake_quantize_array(ins[0], at["qp"])
    raise GraphUnsupported(f"op {op.kind!r} is not replayable")


# --------------------------------------------------------------------- #
# variable-op kernels
#
# Each factory binds the op's ids/attrs once at compile time and returns
# a closure; replay just calls the closures in order, so the hot loop
# allocates no closures and never re-sorts the graph.
#
# Backward closures accumulate through ``_gacc`` with an explicit
# ownership flag: a contribution may only be added *in place* into an
# existing entry when that entry was stored as a freshly-owned array.
# View contributions (reshape/transpose/concat slices of an upstream
# gradient) are never mutated — the same aliasing discipline
# ``Tensor._accumulate`` follows.
# --------------------------------------------------------------------- #
def _gacc(genv, gowned, nid: int, arr: np.ndarray, owned: bool) -> None:
    cur = genv[nid]
    if cur is None:
        genv[nid] = arr
        gowned[nid] = owned
    elif gowned[nid] and cur.flags.writeable:
        np.add(cur, arr, out=cur)
    else:
        genv[nid] = cur + arr
        gowned[nid] = True


_FWD_FACTORY: Dict[str, Callable] = {}
_BWD_FACTORY: Dict[str, Callable] = {}


def _register(kind):
    def deco(fn):
        _FWD_FACTORY[kind] = fn
        return fn
    return deco


def _register_bwd(kind):
    def deco(fn):
        _BWD_FACTORY[kind] = fn
        return fn
    return deco


def _other_operand(op, var):
    a, b = op.inputs
    return ((b,) if a in var else ()) + ((a,) if b in var else ())


#: rules for what a backward closure reads besides its incoming gradient:
#: each maps (op, nodes carrying a gradient) to the node ids and scratch
#: keys it reads
_READS: Dict[str, Callable] = {
    "nothing": lambda op, var: (),
    "input": lambda op, var: op.inputs[:1],
    "output": lambda op, var: (op.out,),
    "other operand": _other_operand,
    "divisor; dividend for the divisor's gradient": lambda op, var: (
        ((op.inputs[1],) if op.inputs[0] in var else ())
        + (op.inputs if op.inputs[1] in var else ())),
    "weight; conv_cols if the weight carries a gradient": lambda op, var: (
        (op.inputs[1],)
        + ((("conv_cols", op.out),) if op.inputs[1] in var else ())),
}

#: per op kind, the :data:`_READS` rule of its backward.  The planner
#: keeps everything a backward reads live until that backward has run,
#: so a kind whose rule is wrong replays garbage; docs/ARCHITECTURE.md
#: repeats this table ("Traced ops") and scripts/check_docs.py compares.
_BWD_READS: Dict[str, str] = {
    "add": "nothing",
    "sub": "nothing",
    "neg": "nothing",
    "mul": "other operand",
    "div": "divisor; dividend for the divisor's gradient",
    "pow": "input",
    "matmul": "other operand",
    "exp": "output",
    "log": "input",
    "sqrt": "output",
    "tanh": "output",
    "sigmoid": "output",
    "relu": "input",
    "sum": "nothing",
    "reshape": "nothing",
    "transpose": "nothing",
    "concat": "nothing",
    "stack": "nothing",
    "where": "nothing",
    "pad2d": "nothing",
    "fake_quant": "input",
    "conv2d": "weight; conv_cols if the weight carries a gradient",
    "max_pool2d": "nothing",
    "avg_pool2d": "nothing",
}

#: kinds whose forward output may be a view of their first input
_FWD_VIEWS = frozenset({"reshape", "transpose"})

#: kinds whose backward may pass the incoming gradient on as a view
_BWD_VIEWS = frozenset({"add", "sub", "reshape", "transpose", "pad2d",
                        "concat", "stack"})


def _ufunc_fwd(prog, op, call):
    """Shared buffer logic for elementwise/matmul/sum ops: write into a
    planned batch-major buffer when possible, else allocate fresh."""
    env = prog._env
    o = op.out
    if prog._batched(op.out_shape):
        prog._register_buf(o, op.out_shape[1:])

        def run(n, env=env, o=o, prog=prog, call=call):
            env[o] = call(prog._slot(o, n))
    else:
        # non-batch-major outputs (train-mode batch statistics, scalar
        # heads) allocate fresh — they only occur in fixed-batch training
        # programs and are small
        def run(n, env=env, o=o, call=call):
            env[o] = call(None)
    return run


def _grad_target_shape(prog, shape: Tuple[int, ...], n: int) -> Tuple[int, ...]:
    return ((n,) + shape[1:]) if prog._batched(shape) else shape


# ---- arithmetic ------------------------------------------------------- #
@_register("add")
def _f_add(prog, op):
    a, b = op.inputs
    env = prog._env
    return _ufunc_fwd(prog, op, lambda out: np.add(env[a], env[b], out=out))


@_register_bwd("add")
def _b_add(prog, op):
    a, b = op.inputs
    var = prog._var_set
    sa, sb = op.in_shapes

    def run(g, genv, gowned, n, a=a, b=b, sa=sa, sb=sb):
        if a in var:
            ga = _unbroadcast(g, _grad_target_shape(prog, sa, n))
            _gacc(genv, gowned, a, ga, ga is not g)
        if b in var:
            gb = _unbroadcast(g, _grad_target_shape(prog, sb, n))
            _gacc(genv, gowned, b, gb, gb is not g)
    return run


@_register("sub")
def _f_sub(prog, op):
    a, b = op.inputs
    env = prog._env
    return _ufunc_fwd(prog, op, lambda out: np.subtract(env[a], env[b], out=out))


@_register_bwd("sub")
def _b_sub(prog, op):
    a, b = op.inputs
    var = prog._var_set
    sa, sb = op.in_shapes
    bown = not prog._variable_batch
    buf_b = None
    if b in var and prog._batched(op.out_shape):
        buf_b = ("gsub_b", op.out)
        prog._register_buf(buf_b, op.out_shape[1:], grad_of=b)

    def run(g, genv, gowned, n, a=a, b=b, sa=sa, sb=sb):
        if a in var:
            ga = _unbroadcast(g, _grad_target_shape(prog, sa, n))
            _gacc(genv, gowned, a, ga, ga is not g)
        if b in var:
            neg = (np.negative(g, out=prog._slot(buf_b, n))
                   if buf_b is not None else -g)
            gb = _unbroadcast(neg, _grad_target_shape(prog, sb, n))
            _gacc(genv, gowned, b, gb,
                  bown or buf_b is None or gb is not neg)
    return run


@_register("neg")
def _f_neg(prog, op):
    a, = op.inputs
    env = prog._env
    return _ufunc_fwd(prog, op, lambda out: np.negative(env[a], out=out))


@_register_bwd("neg")
def _b_neg(prog, op):
    a, = op.inputs

    def run(g, genv, gowned, n, a=a):
        _gacc(genv, gowned, a, -g, True)
    return run


@_register("mul")
def _f_mul(prog, op):
    a, b = op.inputs
    env = prog._env
    return _ufunc_fwd(prog, op, lambda out: np.multiply(env[a], env[b], out=out))


@_register_bwd("mul")
def _b_mul(prog, op):
    a, b = op.inputs
    var = prog._var_set
    env = prog._env
    sa, sb = op.in_shapes
    # full-size products land in planned buffers (same bits, no per-step
    # allocation).  Fixed-batch training programs mark them owned —
    # in-place fan-in accumulation, and no gradient ever leaves the
    # program; variable-batch programs export the input gradient, so
    # buffer-backed contributions stay unowned there and are copied
    # before handing out.
    bown = not prog._variable_batch
    buf_a = buf_b = None
    if prog._batched(op.out_shape):
        if a in var:
            buf_a = ("gmul_a", op.out)
            prog._register_buf(buf_a, op.out_shape[1:], grad_of=a)
        if b in var:
            buf_b = ("gmul_b", op.out)
            prog._register_buf(buf_b, op.out_shape[1:], grad_of=b)

    def run(g, genv, gowned, n, a=a, b=b, sa=sa, sb=sb):
        if a in var:
            prod = (np.multiply(g, env[b], out=prog._slot(buf_a, n))
                    if buf_a is not None else g * env[b])
            ga = _unbroadcast(prod, _grad_target_shape(prog, sa, n))
            _gacc(genv, gowned, a, ga,
                  bown or buf_a is None or ga is not prod)
        if b in var:
            prod = (np.multiply(g, env[a], out=prog._slot(buf_b, n))
                    if buf_b is not None else g * env[a])
            gb = _unbroadcast(prod, _grad_target_shape(prog, sb, n))
            _gacc(genv, gowned, b, gb,
                  bown or buf_b is None or gb is not prod)
    return run


@_register("div")
def _f_div(prog, op):
    a, b = op.inputs
    env = prog._env
    return _ufunc_fwd(prog, op, lambda out: np.divide(env[a], env[b], out=out))


@_register_bwd("div")
def _b_div(prog, op):
    a, b = op.inputs
    var = prog._var_set
    env = prog._env
    sa, sb = op.in_shapes

    def run(g, genv, gowned, n, a=a, b=b, sa=sa, sb=sb):
        if a in var:
            _gacc(genv, gowned, a,
                  _unbroadcast(g / env[b], _grad_target_shape(prog, sa, n)), True)
        if b in var:
            _gacc(genv, gowned, b,
                  _unbroadcast(-g * env[a] / (env[b] ** 2),
                               _grad_target_shape(prog, sb, n)), True)
    return run


@_register("pow")
def _f_pow(prog, op):
    a, = op.inputs
    e = op.attrs["exponent"]
    env = prog._env
    return _ufunc_fwd(prog, op, lambda out: np.power(env[a], e, out=out))


@_register_bwd("pow")
def _b_pow(prog, op):
    a, = op.inputs
    e = op.attrs["exponent"]
    env = prog._env

    def run(g, genv, gowned, n, a=a, e=e):
        _gacc(genv, gowned, a, g * e * (env[a] ** (e - 1)), True)
    return run


@_register("matmul")
def _f_matmul(prog, op):
    a, b = op.inputs
    env = prog._env
    if len(op.in_shapes[0]) < 2 or len(op.in_shapes[1]) < 2:
        raise GraphUnsupported("vector matmul is not replayable")
    # the eager tape's kernel seam: fixed-order for 2-D float operands
    return _ufunc_fwd(prog, op,
                      lambda out: rowrep.matmul(env[a], env[b], out=out))


@_register_bwd("matmul")
def _b_matmul(prog, op):
    a, b = op.inputs
    var = prog._var_set
    env = prog._env
    sa, sb = op.in_shapes
    # input-gradient leg (rows of g against a fixed right operand): per
    # row, so it rides the kernel seam like the eager tape; the b-side
    # (weight-style) gradient reduces over the batch and is never per-row

    def run(g, genv, gowned, n, a=a, b=b, sa=sa, sb=sb):
        if a in var:
            ga = rowrep.matmul(g, np.swapaxes(env[b], -1, -2))
            _gacc(genv, gowned, a,
                  _unbroadcast(ga, _grad_target_shape(prog, sa, n)), True)
        if b in var:
            _gacc(genv, gowned, b,
                  _unbroadcast(np.swapaxes(env[a], -1, -2) @ g,
                               _grad_target_shape(prog, sb, n)), True)
    return run


# ---- elementwise math ------------------------------------------------- #
@_register("exp")
def _f_exp(prog, op):
    a, = op.inputs
    env = prog._env
    return _ufunc_fwd(prog, op, lambda out: np.exp(env[a], out=out))


@_register_bwd("exp")
def _b_exp(prog, op):
    a, = op.inputs
    o = op.out
    env = prog._env

    def run(g, genv, gowned, n, a=a, o=o):
        _gacc(genv, gowned, a, g * env[o], True)
    return run


@_register("log")
def _f_log(prog, op):
    a, = op.inputs
    env = prog._env
    return _ufunc_fwd(prog, op, lambda out: np.log(env[a], out=out))


@_register_bwd("log")
def _b_log(prog, op):
    a, = op.inputs
    env = prog._env

    def run(g, genv, gowned, n, a=a):
        _gacc(genv, gowned, a, g / env[a], True)
    return run


@_register("sqrt")
def _f_sqrt(prog, op):
    a, = op.inputs
    env = prog._env
    return _ufunc_fwd(prog, op, lambda out: np.sqrt(env[a], out=out))


@_register_bwd("sqrt")
def _b_sqrt(prog, op):
    a, = op.inputs
    o = op.out
    env = prog._env

    def run(g, genv, gowned, n, a=a, o=o):
        _gacc(genv, gowned, a, g * 0.5 / env[o], True)
    return run


@_register("tanh")
def _f_tanh(prog, op):
    a, = op.inputs
    env = prog._env
    return _ufunc_fwd(prog, op, lambda out: np.tanh(env[a], out=out))


@_register_bwd("tanh")
def _b_tanh(prog, op):
    a, = op.inputs
    o = op.out
    env = prog._env

    def run(g, genv, gowned, n, a=a, o=o):
        v = env[o]
        _gacc(genv, gowned, a, g * (1.0 - v * v), True)
    return run


@_register("sigmoid")
def _f_sigmoid(prog, op):
    a, = op.inputs
    env = prog._env

    def call(out):
        v = np.exp(np.negative(env[a], out=out), out=out)
        np.add(v, 1.0, out=v)
        return np.divide(1.0, v, out=v)
    return _ufunc_fwd(prog, op, call)


@_register_bwd("sigmoid")
def _b_sigmoid(prog, op):
    a, = op.inputs
    o = op.out
    env = prog._env

    def run(g, genv, gowned, n, a=a, o=o):
        v = env[o]
        _gacc(genv, gowned, a, g * v * (1.0 - v), True)
    return run


@_register("relu")
def _f_relu(prog, op):
    a, = op.inputs
    env = prog._env
    return _ufunc_fwd(prog, op, lambda out: np.maximum(env[a], 0.0, out=out))


@_register_bwd("relu")
def _b_relu(prog, op):
    a, = op.inputs
    env = prog._env
    bown = not prog._variable_batch
    buf = None
    if prog._batched(op.out_shape):
        buf = ("grelu", op.out)
        prog._register_buf(buf, op.out_shape[1:], grad_of=a)

    def run(g, genv, gowned, n, a=a):
        if buf is not None:
            arr = np.multiply(g, env[a] > 0, out=prog._slot(buf, n))
            _gacc(genv, gowned, a, arr, bown)
        else:
            _gacc(genv, gowned, a, g * (env[a] > 0), True)
    return run


# ---- reductions / shape ---------------------------------------------- #
@_register("sum")
def _f_sum(prog, op):
    a, = op.inputs
    ax = op.attrs["axis"]
    kd = op.attrs["keepdims"]
    env = prog._env
    return _ufunc_fwd(prog, op,
                      lambda out: np.sum(env[a], axis=ax, keepdims=kd, out=out))


@_register_bwd("sum")
def _b_sum(prog, op):
    a, = op.inputs
    ax = op.attrs["axis"]
    kd = op.attrs["keepdims"]
    env = prog._env
    bown = not prog._variable_batch
    buf = None
    if prog._batched(op.in_shapes[0]):
        buf = ("gsum", op.out)
        prog._register_buf(buf, op.in_shapes[0][1:], grad_of=a)

    def run(g, genv, gowned, n, a=a, ax=ax, kd=kd):
        shape = env[a].shape
        if ax is not None and not kd:
            g = np.expand_dims(g, ax)
        if buf is not None:
            arr = prog._slot(buf, n)
            np.copyto(arr, g)           # broadcasting copy, same values
            _gacc(genv, gowned, a, arr, bown)
            return
        if ax is None and not np.ndim(g):
            arr = np.full(shape, g, dtype=g.dtype)
        else:
            arr = np.broadcast_to(g, shape).copy()
        _gacc(genv, gowned, a, arr, True)
    return run


@_register("reshape")
def _f_reshape(prog, op):
    a, = op.inputs
    env = prog._env
    if prog._variable_batch:
        if not (prog._batched(op.in_shapes[0]) and prog._batched(op.out_shape)):
            raise GraphUnsupported("reshape mixing the batch dim is not replayable")
        tpl = (-1,) + op.out_shape[1:]
    else:
        tpl = op.out_shape          # fixed batch: parameter reshapes are fine

    def run(n, a=a, o=op.out, tpl=tpl):
        env[o] = env[a].reshape(tpl)
    return run


@_register_bwd("reshape")
def _b_reshape(prog, op):
    a, = op.inputs
    tpl = ((-1,) + op.in_shapes[0][1:]) if prog._variable_batch \
        else op.in_shapes[0]

    def run(g, genv, gowned, n, a=a, tpl=tpl):
        arr = g.reshape(tpl)
        _gacc(genv, gowned, a, arr, False)
    return run


@_register("transpose")
def _f_transpose(prog, op):
    a, = op.inputs
    axes = tuple(op.attrs["axes"])
    if prog._variable_batch and axes[0] != 0:
        raise GraphUnsupported("transpose moving the batch dim is not replayable")
    env = prog._env

    def run(n, a=a, o=op.out, axes=axes):
        env[o] = env[a].transpose(axes)
    return run


@_register_bwd("transpose")
def _b_transpose(prog, op):
    a, = op.inputs
    inv = tuple(np.argsort(op.attrs["axes"]))

    def run(g, genv, gowned, n, a=a, inv=inv):
        _gacc(genv, gowned, a, g.transpose(inv), False)
    return run


@_register("concat")
def _f_concat(prog, op):
    axis = op.attrs["axis"]
    if axis == 0:
        raise GraphUnsupported("concat along the batch dim is not replayable")
    env = prog._env
    ins = op.inputs
    prog._register_buf(op.out, op.out_shape[1:])

    def run(n, ins=ins, o=op.out, axis=axis):
        env[o] = np.concatenate([env[i] for i in ins], axis=axis,
                                out=prog._slot(o, n))
    return run


@_register_bwd("concat")
def _b_concat(prog, op):
    axis = op.attrs["axis"]
    var = prog._var_set
    sizes = [s[axis] for s in op.in_shapes]
    offsets = np.cumsum([0] + sizes)
    spans = [(op.inputs[i], int(offsets[i]), int(offsets[i + 1]))
             for i in range(len(op.inputs))]

    def run(g, genv, gowned, n, spans=spans, axis=axis):
        for nid, s, e in spans:
            if nid in var:
                sl = [slice(None)] * g.ndim
                sl[axis] = slice(s, e)
                _gacc(genv, gowned, nid, g[tuple(sl)], False)
    return run


@_register("stack")
def _f_stack(prog, op):
    axis = op.attrs["axis"] % len(op.out_shape)
    if axis == 0:
        raise GraphUnsupported("stack along the batch dim is not replayable")
    env = prog._env
    ins = op.inputs
    slices = [(slice(None),) * axis + (idx,) for idx in range(len(ins))]
    prog._register_buf(op.out, op.out_shape[1:])

    def run(n, ins=ins, o=op.out, slices=slices):
        out = prog._slot(o, n)
        for nid, sl in zip(ins, slices):
            out[sl] = env[nid]
        env[o] = out
    return run


@_register_bwd("stack")
def _b_stack(prog, op):
    axis = op.attrs["axis"] % len(op.out_shape)
    var = prog._var_set
    pairs = [(nid, (slice(None),) * axis + (idx,))
             for idx, nid in enumerate(op.inputs)]

    def run(g, genv, gowned, n, pairs=pairs):
        for nid, sl in pairs:
            if nid in var:
                _gacc(genv, gowned, nid, g[sl], False)
    return run


@_register("where")
def _f_where(prog, op):
    a, b = op.inputs
    cond = op.attrs["cond"]
    if cond.ndim >= len(op.out_shape) and prog._batched(cond.shape):
        # A batch-major condition was computed from the traced example
        # (off-tape, e.g. ``x.data > t``); replaying it against other
        # inputs would silently freeze a data-dependent branch choice.
        raise GraphUnsupported(
            "where() with a batch-dependent condition is not replayable")
    env = prog._env
    prog._register_buf(op.out, op.out_shape[1:])

    def run(n, a=a, b=b, o=op.out, cond=cond):
        out = prog._slot(o, n)
        np.copyto(out, env[b])
        np.copyto(out, env[a], where=cond)
        env[o] = out
    return run


@_register_bwd("where")
def _b_where(prog, op):
    a, b = op.inputs
    var = prog._var_set
    cond = op.attrs["cond"]
    sa, sb = op.in_shapes

    def run(g, genv, gowned, n, a=a, b=b, sa=sa, sb=sb, cond=cond):
        if a in var:
            _gacc(genv, gowned, a,
                  _unbroadcast(np.where(cond, g, 0.0),
                               _grad_target_shape(prog, sa, n)), True)
        if b in var:
            _gacc(genv, gowned, b,
                  _unbroadcast(np.where(cond, 0.0, g),
                               _grad_target_shape(prog, sb, n)), True)
    return run


@_register("pad2d")
def _f_pad2d(prog, op):
    a, = op.inputs
    t, b, l, r = op.attrs["pad"]
    _, C, H, W = op.in_shapes[0]
    env = prog._env
    # The borders are constant zeros: pre-fill once per allocation and
    # rewrite only the interior each replay.  The output feeds later ops,
    # so the buffer stays private (never pooled or planned).
    prog._register_buf(op.out, op.out_shape[1:], fill=0.0)

    def run(n, a=a, o=op.out):
        out = prog._slot(o, n)
        out[:, :, t:t + H, l:l + W] = env[a]
        env[o] = out
    return run


@_register_bwd("pad2d")
def _b_pad2d(prog, op):
    a, = op.inputs
    t, b, l, r = op.attrs["pad"]
    _, C, H, W = op.in_shapes[0]

    def run(g, genv, gowned, n, a=a):
        _gacc(genv, gowned, a, g[:, :, t:t + H, l:l + W], False)
    return run


# ---- fake quantization ------------------------------------------------ #
@_register("fake_quant")
def _f_fake_quant(prog, op):
    a, = op.inputs
    qp = op.attrs["qp"]
    ndim = len(op.in_shapes[0])
    s = qp.scale_for(ndim)
    z = qp.zero_point_for(ndim)
    env = prog._env
    if not prog._variable_batch:
        # Training program: the quantization grid moves every step (QAT
        # observers keep observing, weights keep changing), so re-read
        # the provider's params per replay and run the exact eager
        # kernel — bit-parity with the tape beats the fused round trip.
        from ..quantization.affine import fake_quantize_array
        fq = op.attrs.get("fq")
        ctx = prog._ctx[op.out]

        dtype = prog._dtype

        def run(n, a=a, o=op.out, fq=fq, qp=qp, ctx=ctx, dtype=dtype):
            cur = fq.qparams() if fq is not None else qp
            ctx["qp"] = cur
            arr = fake_quantize_array(env[a], cur)
            if arr.dtype != dtype:
                # the eager tape wraps this result in a Tensor, which
                # casts back to the session dtype — mirror that, or a
                # float32 run drifts by one rounding step
                arr = arr.astype(dtype)
            env[o] = arr
        return run
    if not prog._batched(op.out_shape):  # pragma: no cover - defensive
        from ..quantization.affine import fake_quantize_array

        def run(n, a=a, o=op.out, qp=qp):
            env[o] = fake_quantize_array(env[a], qp)
        return run
    # Fused in-place round trip.  ``fake_quantize_array`` detours through
    # int32, but round+clip already leaves exactly integral float64
    # values, so skipping the integer cast is bitwise-identical — while a
    # single float64 scratch buffer replaces its eight temporaries.
    prog._register_buf(op.out, op.out_shape[1:])
    prog._register_buf(("fq64", op.out), op.out_shape[1:], dtype=np.float64)

    def run(n, a=a, o=op.out, s=s, z=z, lo=qp.qmin, hi=qp.qmax):
        t = prog._slot(("fq64", o), n)
        np.divide(env[a], s, out=t)
        np.round(t, out=t)
        t += z
        np.clip(t, lo, hi, out=t)
        t -= z
        t *= s
        out = prog._slot(o, n)
        np.copyto(out, t)
        env[o] = out
    return run


@_register_bwd("fake_quant")
def _b_fake_quant(prog, op):
    a, = op.inputs
    qp = op.attrs["qp"]
    ndim = len(op.in_shapes[0])
    env = prog._env
    if not prog._variable_batch:
        # STE mask under the grid the forward half of THIS step used
        ctx = prog._ctx[op.out]

        def run(g, genv, gowned, n, a=a, qp=qp, ctx=ctx, ndim=ndim):
            cur = ctx.get("qp", qp)
            s = cur.scale_for(ndim)
            z = cur.zero_point_for(ndim)
            lo = (cur.qmin - z) * s
            hi = (cur.qmax - z) * s
            x = env[a]
            _gacc(genv, gowned, a, g * ((x >= lo) & (x <= hi)), True)
        return run
    s = qp.scale_for(ndim)
    z = qp.zero_point_for(ndim)
    lo = (qp.qmin - z) * s
    hi = (qp.qmax - z) * s

    def run(g, genv, gowned, n, a=a, lo=lo, hi=hi):
        x = env[a]
        _gacc(genv, gowned, a, g * ((x >= lo) & (x <= hi)), True)
    return run


# ---- convolution ------------------------------------------------------ #
def _conv_wmats(prog, op, ctx) -> None:
    """(Re)build the cached weight matrices for a conv node.

    The folded weight is constant across replays, so the
    ``weight.reshape(F, K)`` matrix (and the transposed copy the
    backward matmul consumes) is built once per compile/refresh instead
    of per step — the same arrays the eager kernel builds, so the BLAS
    calls stay bitwise-identical to the tape.
    """
    w = prog._env[op.inputs[1]]
    F, Cg, kh, kw = w.shape
    if op.attrs["groups"] == 1:
        w2 = np.ascontiguousarray(w.reshape(F, Cg * kh * kw))
        ctx["w2"] = w2
        ctx["w2T"] = np.ascontiguousarray(w2.T)
    else:
        G = op.attrs["groups"]
        wmat_g = w.reshape(G, F // G, Cg * kh * kw)
        ctx["wmat"] = wmat_g
        ctx["wmat_g"] = wmat_g          # gradient layout


@_register("conv2d")
def _f_conv2d(prog, op):
    x_id, w_id = op.inputs[0], op.inputs[1]
    dyn_w = w_id in prog._var_set
    if dyn_w and prog._variable_batch:
        raise GraphUnsupported("input-dependent conv weights are not replayable")
    b_id = op.inputs[2] if op.attrs["has_bias"] else None
    sh, sw = op.attrs["stride"]
    ph, pw = op.attrs["padding"]
    groups = op.attrs["groups"]
    _, C, H, W = op.in_shapes[0]
    F, Cg, kh, kw = op.in_shapes[1]
    oh, ow = op.out_shape[2], op.out_shape[3]
    env = prog._env
    ctx = prog._ctx[op.out]
    # The im2col scratch dies inside this closure, except in training
    # programs, where the weight gradient reads it back (_BWD_READS).
    # Borders of the padded input are constant zeros: keep a pre-filled
    # padded buffer and write only the interior each replay (cheaper
    # than np.pad, bitwise-identical values).  The buffer is read back
    # out inside this op only, so it is keyed by geometry and shared by
    # same-geometry convs.
    if ph or pw:
        prog._register_buf(("conv_pad", op.out),
                           (C, H + 2 * ph, W + 2 * pw), fill=0.0,
                           pool_key=("conv_pad", C, H, W, ph, pw))

    def padded_input(n, x_id=x_id, o=op.out):
        if not (ph or pw):
            return env[x_id]
        pb = prog._slot(("conv_pad", o), n)
        pb[:, :, ph:ph + H, pw:pw + W] = env[x_id]
        return pb

    if groups == 1:
        # Tap-major layout (mirrors the eager kernel exactly): the
        # im2col window view is already (n, C, kh, kw, oh, ow), so the
        # scratch fill is a cheap straight copy, and (F, K) @ (n, K, P)
        # writes NCHW output with no transposes around the matmul.
        K = C * kh * kw
        P = oh * ow
        prog._register_buf(("conv_cols", op.out), (K, P))
        prog._register_buf(op.out, (F, P))

        def run(n, x_id=x_id, b_id=b_id, o=op.out):
            if dyn_w or "w2" not in ctx:
                _conv_wmats(prog, op, ctx)
            cols, _ = _im2col(padded_input(n), kh, kw, sh, sw, 0, 0)
            scratch = prog._slot(("conv_cols", o), n)
            np.copyto(scratch.reshape(n, C, kh, kw, oh, ow), cols)
            obuf = prog._slot(o, n)
            np.matmul(ctx["w2"], scratch, out=obuf)
            if b_id is not None:
                obuf += env[b_id][:, None]
            env[o] = obuf.reshape(n, F, oh, ow)
    elif Cg == 1 and F == groups:
        # pure depthwise mirrors the eager tap-major path: the scratch
        # holds (C, kh*kw, P) windows filled by a straight copy, and the
        # contraction is a batched matvec
        K = kh * kw
        P = oh * ow
        prog._register_buf(("conv_cols", op.out), (C * K, P))
        prog._register_buf(op.out, (F, P))

        def run(n, x_id=x_id, b_id=b_id, o=op.out):
            if dyn_w or "wmat_g" not in ctx:
                _conv_wmats(prog, op, ctx)
            cols, _ = _im2col(padded_input(n), kh, kw, sh, sw, 0, 0)
            scratch = prog._slot(("conv_cols", o), n)
            np.copyto(scratch.reshape(n, C, kh, kw, oh, ow), cols)
            obuf = prog._slot(o, n)
            _conv_depthwise_fwd(scratch.reshape(n, C, K, P),
                                ctx["wmat_g"].reshape(C, K),
                                out=obuf.reshape(n, C, 1, P))
            out = obuf.reshape(n, F, oh, ow)
            if b_id is not None:
                out = out + env[b_id].reshape(1, F, 1, 1)
            env[o] = out
    else:
        G = groups
        Fg = F // G
        prog._register_buf(("conv_cols", op.out), (G, oh, ow, Cg * kh * kw))
        prog._register_buf(op.out, (G, Fg, oh, ow))

        def run(n, x_id=x_id, b_id=b_id, o=op.out):
            if dyn_w or "wmat" not in ctx:
                _conv_wmats(prog, op, ctx)
            cols, _ = _im2col(padded_input(n), kh, kw, sh, sw, 0, 0)
            colsg = cols.reshape(n, G, Cg, kh, kw, oh, ow)
            scratch = prog._slot(("conv_cols", o), n)
            np.copyto(scratch.reshape(n, G, oh, ow, Cg, kh, kw),
                      colsg.transpose(0, 1, 5, 6, 2, 3, 4))
            obuf = prog._slot(o, n)
            _conv_grouped_fwd(scratch, ctx["wmat"], obuf)
            out = obuf.reshape(n, F, oh, ow)
            if b_id is not None:
                out = out + env[b_id].reshape(1, F, 1, 1)
            env[o] = out
    return run


@_register_bwd("conv2d")
def _b_conv2d(prog, op):
    x_id, w_id = op.inputs[0], op.inputs[1]
    b_id = op.inputs[2] if op.attrs["has_bias"] else None
    var = prog._var_set
    sh, sw = op.attrs["stride"]
    ph, pw = op.attrs["padding"]
    groups = op.attrs["groups"]
    _, C, H, W = op.in_shapes[0]
    F, Cg, kh, kw = op.in_shapes[1]
    oh, ow = op.out_shape[2], op.out_shape[3]
    ctx = prog._ctx[op.out]
    # Tap-major X-padded backward (mirrors the eager kernel, all strides
    # and groups): the producing matmul/einsum emits window rows with
    # the stride-phase image's own pitch, so col2im collapses to one
    # contiguous shifted-slice add per tap (see
    # ``functional._col2im_flat``).  The input gradient is a view of the
    # accumulator, so it stays live until that gradient is consumed; the
    # zero-bordered padded gradient is a keyed fill buffer.
    Xp = _col2im_xpad(W, pw, sw)
    QX = oh * Xp
    Hp, Wp = H + 2 * ph, W + 2 * pw
    Hq = -(-Hp // sh)
    phases = sh * sw
    prog._register_buf(("conv_gpad", op.out), (F, oh, Xp), fill=0.0,
                       pool_key=("conv_gpad", F, oh, Xp))
    # stride 1 hands back a view of the flat accumulator itself, larger
    # strides a view of the interleaved image
    prog._register_buf(("conv_dx", op.out), (C, phases, Hq * Xp),
                       grad_of=x_id if phases == 1 else None)
    if phases > 1:
        prog._register_buf(("conv_dxi", op.out), (C, Hp, Wp), grad_of=x_id)

    def flat_col2im(dcolsp, n, o=op.out):
        dxi = (prog._slot(("conv_dxi", o), n) if phases > 1 else None)
        return _col2im_flat(dcolsp.reshape(n, C, kh, kw, QX),
                            (n, C, H, W), kh, kw, sh, sw, ph, pw, oh, ow,
                            out=prog._slot(("conv_dx", o), n), dx_out=dxi)

    if groups == 1:
        K = C * kh * kw
        prog._register_buf(("conv_dcols", op.out), (K, QX))
        # same shape gate as the eager _conv_dw_dense, with the batched
        # product landing in planned scratch (bitwise-identical GEMMs)
        dw_bm = (oh * ow) * 4 >= K
        if w_id in var and dw_bm:
            prog._register_buf(("conv_dwm", op.out), (F, K))

        def run(g, genv, gowned, n, x_id=x_id, w_id=w_id, b_id=b_id,
                o=op.out):
            if b_id is not None and b_id in var:
                _gacc(genv, gowned, b_id, g.sum(axis=(0, 2, 3)), True)
            if w_id in var:
                g2 = np.ascontiguousarray(g).reshape(n, F, oh * ow)
                cols2 = prog._slot(("conv_cols", o), n)
                if dw_bm:
                    mm = prog._slot(("conv_dwm", o), n)
                    np.matmul(g2, cols2.transpose(0, 2, 1), out=mm)
                    dw = mm.sum(axis=0)
                else:
                    dw = _conv_dw_dense(g2, cols2)
                _gacc(genv, gowned, w_id, dw.reshape(F, Cg, kh, kw), True)
            if x_id in var:
                g2p = prog._slot(("conv_gpad", o), n)
                np.copyto(g2p[..., :ow], g)
                dcolsp = prog._slot(("conv_dcols", o), n)
                np.matmul(ctx["w2T"], g2p.reshape(n, F, QX), out=dcolsp)
                _gacc(genv, gowned, x_id, flat_col2im(dcolsp, n), False)
    else:
        G = groups
        Fg = F // G
        K = Cg * kh * kw
        dwise = Cg == 1 and F == G
        prog._register_buf(("conv_gdcols", op.out), (G, K, QX))

        def run(g, genv, gowned, n, x_id=x_id, w_id=w_id, b_id=b_id,
                o=op.out):
            if b_id is not None and b_id in var:
                _gacc(genv, gowned, b_id, g.sum(axis=(0, 2, 3)), True)
            gg = g.reshape(n, G, Fg, oh, ow)
            if w_id in var:
                cols2 = prog._slot(("conv_cols", o), n)
                if dwise:
                    g2 = np.ascontiguousarray(g).reshape(n, C, oh * ow)
                    dw = _conv_dw_depthwise(
                        cols2.reshape(n, C, K, oh * ow), g2)
                else:
                    dw = _conv_dw_grouped(gg, cols2)
                _gacc(genv, gowned, w_id, dw.reshape(F, Cg, kh, kw), True)
            if x_id in var:
                ggp = prog._slot(("conv_gpad", o), n)
                np.copyto(ggp.reshape(n, G, Fg, oh, Xp)[..., :ow], gg)
                dcolsp = prog._slot(("conv_gdcols", o), n)
                _conv_dcols_grouped(ggp.reshape(n, G, Fg, QX),
                                    ctx["wmat_g"], out=dcolsp)
                _gacc(genv, gowned, x_id, flat_col2im(dcolsp, n), False)
    return run


# ---- pooling ---------------------------------------------------------- #
@_register("max_pool2d")
def _f_max_pool2d(prog, op):
    a, = op.inputs
    kh, kw = op.attrs["kernel"]
    sh, sw = op.attrs["stride"]
    ph, pw = op.attrs["padding"]
    C = op.in_shapes[0][1]
    H, W = op.in_shapes[0][2], op.in_shapes[0][3]
    oh, ow = op.out_shape[2], op.out_shape[3]
    env = prog._env
    ctx = prog._ctx[op.out]
    prog._register_buf(op.out, op.out_shape[1:])
    if ph or pw:
        # constant -inf borders, interior rewritten each replay
        prog._register_buf(("pool_pad", op.out),
                           (C, H + 2 * ph, W + 2 * pw), fill=-np.inf,
                           pool_key=("pool_pad", C, H, W, ph, pw))

    def run(n, a=a, o=op.out):
        xd = env[a]
        if ph or pw:
            pb = prog._slot(("pool_pad", o), n)
            pb[:, :, ph:ph + H, pw:pw + W] = xd
            xd = pb
        cols, _ = _im2col(xd, kh, kw, sh, sw, 0, 0)
        flat = cols.transpose(0, 1, 4, 5, 2, 3).reshape(n, C, oh, ow, kh * kw)
        arg = flat.argmax(axis=-1)
        ctx["arg"] = arg
        out = prog._slot(o, n)
        np.copyto(out, np.take_along_axis(flat, arg[..., None], axis=-1)[..., 0])
        env[o] = out
    return run


@_register_bwd("max_pool2d")
def _b_max_pool2d(prog, op):
    a, = op.inputs
    kh, kw = op.attrs["kernel"]
    sh, sw = op.attrs["stride"]
    ph, pw = op.attrs["padding"]
    C = op.in_shapes[0][1]
    H, W = op.in_shapes[0][2], op.in_shapes[0][3]
    oh, ow = op.out_shape[2], op.out_shape[3]
    ctx = prog._ctx[op.out]

    def run(g, genv, gowned, n, a=a):
        arg = ctx["arg"]
        dflat = np.zeros((n, C, oh, ow, kh * kw), dtype=g.dtype)
        np.put_along_axis(dflat, arg[..., None], g[..., None], axis=-1)
        dcols = dflat.reshape(n, C, oh, ow, kh, kw).transpose(0, 1, 4, 5, 2, 3)
        _gacc(genv, gowned, a,
              _col2im(dcols, (n, C, H, W), kh, kw, sh, sw, ph, pw), True)
    return run


@_register("avg_pool2d")
def _f_avg_pool2d(prog, op):
    a, = op.inputs
    kh, kw = op.attrs["kernel"]
    sh, sw = op.attrs["stride"]
    ph, pw = op.attrs["padding"]
    env = prog._env
    prog._register_buf(op.out, op.out_shape[1:])

    def run(n, a=a, o=op.out):
        cols, _ = _im2col(env[a], kh, kw, sh, sw, ph, pw)
        out = prog._slot(o, n)
        cols.mean(axis=(2, 3), out=out)
        env[o] = out
    return run


@_register_bwd("avg_pool2d")
def _b_avg_pool2d(prog, op):
    a, = op.inputs
    kh, kw = op.attrs["kernel"]
    sh, sw = op.attrs["stride"]
    ph, pw = op.attrs["padding"]
    C = op.in_shapes[0][1]
    H, W = op.in_shapes[0][2], op.in_shapes[0][3]
    oh, ow = op.out_shape[2], op.out_shape[3]

    def run(g, genv, gowned, n, a=a):
        dcols = np.broadcast_to(
            g[:, :, None, None, :, :] / (kh * kw), (n, C, kh, kw, oh, ow)
        ).astype(g.dtype)
        _gacc(genv, gowned, a,
              _col2im(dcols, (n, C, H, W), kh, kw, sh, sw, ph, pw), True)
    return run
