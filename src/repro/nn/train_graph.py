"""Compiled training steps: parameter-gradient programs.

:mod:`repro.nn.graph` compiles the *attack* hot loop — a frozen model's
forward plus the input gradient.  Training spends its time in a
different loop with the same shape: forward, loss, backward through the
**parameters**, optimizer update, thousands of times over fixed-size
batches.  This module compiles that loop:

``compile_train_step(module, loss_fn, example, target, optimizer)``
traces the module's train-mode forward once (reusing the tracer hooks
and kernel factories of :mod:`repro.nn.graph`) and lowers it into a
:class:`CompiledTrainStep` whose :meth:`~CompiledTrainStep.step` is a
single replay per batch:

- **parameter roots** — the program's variable set is the input *plus*
  every :class:`~repro.nn.module.Parameter`, so weight fake-quantization
  and pruning masks replay against the current weights instead of being
  folded, and the backward pass accumulates parameter gradients;
- **eager-tape backward order** — the backward program runs in exactly
  the topological order :meth:`Tensor.backward` would use on the traced
  tape, so gradient accumulation happens in the same floating-point
  order and compiled parameters stay **bit-identical** to eager ones;
- **eager loss head** — the loss itself runs on the eager tape over the
  (small) logits each step.  This keeps the compiler loss-agnostic
  (cross-entropy, distillation KD, anything returning a scalar Tensor)
  while the expensive model forward/backward replays; the seed gradient
  the head produces is bitwise the one the full eager tape would feed
  the model, because all head closures run before any model closure in
  the eager order;
- **replayable side effects** — BatchNorm running-statistic updates and
  QAT observer updates are recorded through the tracer's effect channel
  and re-executed at the same position in every replay, so buffers and
  quantization grids evolve exactly as they do eagerly;
- **fused optimizer update** — gradients are handed straight to
  :meth:`Optimizer.apply_gradients` (in-place fused SGD/Adam updates,
  bit-identical to ``step()``), so a warm training step allocates no
  tape nodes, no closures and no optimizer state.

Safety mirrors the forward executor: compilation *validates itself* by
running one eager step and one compiled step from identical module
state and requiring bit-identical logits, loss and every parameter
gradient; any mismatch — or any op/side effect the tracer cannot
capture — raises :class:`GraphUnsupported`, and
:func:`compile_train_step_or_none` turns that into the loud eager
fallback the training loops share.  Tracing and validation leave the
module untouched (buffers, observers and module RNGs are snapshotted
and restored in place), so a fallback run is bitwise the run that never
attempted to compile.

The batch size is pinned at trace time: training loops drive full
batches through the program and the ragged tail batch through the eager
tape, which is exactly the code path the program was validated against.
"""

from __future__ import annotations

import copy
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from . import tensor as _tensor
from .graph import (GraphUnsupported, _BWD_FACTORY,
                    _FWD_FACTORY, _Program, _Tracer, _check_input_path)
from .module import Module, Parameter
from .optim import Optimizer
from .tensor import Tensor, get_default_dtype


class _TrainTracer(_Tracer):
    """Tracer that records train-time side effects instead of refusing."""

    allow_effects = True


class _ModuleStateSnapshot:
    """In-place snapshot of the mutable non-parameter state a train-mode
    forward touches: registered buffers (BatchNorm running statistics),
    observer state (QAT range tracking) and module-held RNGs (dropout).

    Restoration mutates the *existing* objects rather than swapping
    them, so effect closures recorded during tracing keep pointing at
    live state.
    """

    def __init__(self, module: Module):
        self._buffers = [(mod, name, np.array(val, copy=True))
                         for _, mod in module.named_modules()
                         for name, val in mod._buffers.items()]
        self._states = []
        self._rngs = []
        for _, mod in module.named_modules():
            obs = getattr(mod, "observer", None)
            if obs is not None and hasattr(obs, "observe"):
                self._states.append((obs, copy.deepcopy(obs.__dict__)))
            rng = getattr(mod, "_rng", None)
            if isinstance(rng, np.random.Generator):
                self._rngs.append((rng, copy.deepcopy(rng.bit_generator.state)))

    def restore(self) -> None:
        for mod, name, val in self._buffers:
            mod.set_buffer(name, val.copy())
        for obj, state in self._states:
            obj.__dict__.clear()
            obj.__dict__.update(copy.deepcopy(state))
        for rng, state in self._rngs:
            rng.bit_generator.state = copy.deepcopy(state)


def compile_train_step_or_none(module, loss_fn, example, target,
                               optimizer: Optimizer):
    """Best-effort :func:`compile_train_step`: None instead of raising.

    Any failure (unsupported op, non-Module model, un-replayable side
    effect, bit-parity validation mismatch) means "use the eager tape" —
    never an error.  The single fallback policy shared by ``fit``,
    ``distill`` and ``qat_finetune``.
    """
    try:
        return compile_train_step(module, loss_fn, example, target, optimizer)
    except Exception:
        return None


def compile_train_step(module: Module,
                       loss_fn: Callable[[Tensor, object], Tensor],
                       example: np.ndarray, target,
                       optimizer: Optimizer,
                       validate: bool = True) -> "CompiledTrainStep":
    """Trace one train-mode forward of ``module`` and compile the full
    training step (forward + loss + parameter gradients + optimizer).

    ``loss_fn(logits, target)`` must return a scalar Tensor; ``example``
    and ``target`` are a representative batch (the batch size is pinned).
    Raises :class:`GraphUnsupported` when the forward uses an op or side
    effect the executor cannot replay, or when the compiled step is not
    bit-identical to the eager one on the example batch.
    """
    if not isinstance(module, Module):
        raise GraphUnsupported("only Module models can be train-compiled")
    x = np.asarray(example)
    if x.dtype != get_default_dtype():
        x = x.astype(get_default_dtype())
    if x.ndim < 1 or len(x) < 1:
        raise GraphUnsupported("example batch must be non-empty")
    if _tensor._GRAPH_TRACER is not None:
        raise GraphUnsupported("nested tracing is not supported")
    snap = _ModuleStateSnapshot(module)
    # requires_grad=False mirrors the training loops: the input takes no
    # gradient, so e.g. the stem conv's input-gradient work is skipped in
    # the compiled backward exactly as the eager tape skips it.
    xt = Tensor(x)
    tracer = _TrainTracer(xt)
    _tensor._GRAPH_TRACER = tracer
    try:
        out = module(xt)
    finally:
        _tensor._GRAPH_TRACER = None
        snap.restore()
    if not isinstance(out, Tensor):
        raise GraphUnsupported("forward did not return a Tensor")
    out_id = tracer.ids.get(id(out))
    if out_id is None or out_id in tracer.leaves:
        raise GraphUnsupported("forward output was not produced by traced ops")
    roots = [xt] + [t for t in tracer.leaves.values()
                    if isinstance(t, Parameter)]
    _check_input_path(roots, out, tracer)
    prog = CompiledTrainStep(tracer, out_id, x, module, loss_fn, optimizer)
    if validate:
        prog._validate(x, target)
    return prog


class CompiledTrainStep(_Program):
    """A flat, replayable training-step program for one (module,
    loss_fn, optimizer) triple at a fixed batch size."""

    _variable_batch = False

    def __init__(self, tracer: _Tracer, out_id: int, example: np.ndarray,
                 module: Module, loss_fn, optimizer: Optimizer):
        param_ids = {nid for nid, t in tracer.leaves.items()
                     if isinstance(t, Parameter)}
        super().__init__(tracer, out_id, example,
                         var_roots={tracer.input_id} | param_ids)
        self._module = module
        self._loss_fn = loss_fn
        self.optimizer = optimizer
        self._traced_training = bool(getattr(module, "training", True))

        # Gradient flow mirrors the eager tape's requires_grad
        # propagation: parameters are the only gradient roots.
        grad = set(param_ids)
        for op in self._var_ops:
            if any(i in grad for i in op.inputs):
                grad.add(op.out)
        if self._out_id not in grad:
            raise GraphUnsupported("output does not depend on any parameter")
        self._grad_set = grad

        # Forward program, with recorded side effects replayed at the
        # position they originally ran (an effect recorded after k ops
        # runs before the first variable op whose trace index is >= k).
        pos_of = {op.out: i for i, op in enumerate(tracer.ops)}
        effects = list(tracer.effects)
        fwd: List[Callable] = []
        k = 0
        for op in self._var_ops:
            p = pos_of[op.out]
            while k < len(effects) and effects[k][0] <= p:
                fwd.append(self._make_effect(*effects[k][1:]))
                k += 1
            fwd.append(_FWD_FACTORY[op.kind](self, op))
        for _, fn, nid in effects[k:]:
            fwd.append(self._make_effect(fn, nid))
        self._fwd_prog = fwd

        # Backward program in the exact topological order
        # ``Tensor.backward`` derives from the traced tape, so gradient
        # contributions accumulate in the same floating-point order as
        # the eager step (bit-parity is checked, not hoped for).  The
        # kernel factories read ``_var_set`` to decide where gradients
        # flow, so it is swapped to the gradient set while they bind.
        out_t = tracer.keep[out_id]
        topo: List[Tensor] = []
        visited: set = set()
        stack: List[Tuple[Tensor, bool]] = [(out_t, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                topo.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for par in node._parents:
                if id(par) not in visited and par.requires_grad:
                    stack.append((par, False))
        op_by_tensor = {id(tracer.keep[op.out]): op for op in self._var_ops}
        value_var = self._var_set
        self._var_set = grad
        try:
            self._bwd_prog = [
                (_BWD_FACTORY[op.kind](self, op), op.out)
                for op in (op_by_tensor[id(t)] for t in reversed(topo)
                           if id(t) in op_by_tensor)]
        finally:
            self._var_set = value_var

        self._ensure(self._n0)
        tr_ids = tracer.ids
        self._opt_params = [(p, tr_ids.get(id(p))) for p in optimizer.params]
        self._all_params = [(p, tr_ids.get(id(p)))
                            for p in module.parameters()]
        #: parameter leaves re-synced every step (immune to ``.data``
        #: rebinds by schedulers/serialization between steps)
        self._leaf_sync = [(nid, t) for nid, t in self._leaves.items()
                           if isinstance(t, Parameter)]

    @property
    def batch_size(self) -> int:
        """The pinned batch size; other sizes must use the eager tape."""
        return self._n0

    def accepts(self, x: np.ndarray) -> bool:
        """Whether ``x`` matches the traced batch shape exactly — the
        training loops' dispatch gate (a shape-changing augment or a
        ragged tail batch must take the eager tape)."""
        return np.shape(x) == (self._n0,) + self._trailing

    def _make_effect(self, fn: Callable[[np.ndarray], None], nid: int):
        env = self._env

        def run(n, fn=fn, nid=nid):
            fn(env[nid])
        return run

    # -- one training step ---------------------------------------------- #
    def _forward_backward(self, x: np.ndarray, target):
        """Replay forward + effects, run the eager loss head, replay the
        backward.  Returns (loss value, logits view, gradient env)."""
        x = self._check_input(x)
        if len(x) != self._n0:
            raise ValueError(
                f"compiled train step is pinned to batch size {self._n0}, "
                f"got {len(x)}")
        env = self._env
        for nid, t in self._leaf_sync:
            env[nid] = t.data
        out = self._forward(x)
        logits = Tensor(out, requires_grad=True)
        loss = self._loss_fn(logits, target)
        if not isinstance(loss, Tensor) or loss.size != 1:
            raise GraphUnsupported("loss_fn must return a scalar Tensor")
        loss.backward()
        genv: List[Optional[np.ndarray]] = [None] * len(env)
        gowned: List[bool] = [False] * len(env)
        genv[self._out_id] = logits.grad
        n = self._n0
        for run, out_nid in self._bwd_prog:
            go = genv[out_nid]
            if go is None:
                continue
            run(go, genv, gowned, n)
            genv[out_nid] = None
        return float(loss.data), out, genv

    def step(self, x: np.ndarray, target) -> float:
        """One fused training step: replay, loss, parameter gradients,
        optimizer update.  Returns the batch loss."""
        if bool(getattr(self._module, "training", True)) != self._traced_training:
            raise RuntimeError(
                "module train/eval mode changed since compilation; "
                "recompile the train step")
        loss, _, genv = self._forward_backward(x, target)
        self.optimizer.apply_gradients(
            [(p, genv[nid] if nid is not None else None)
             for p, nid in self._opt_params])
        return loss

    # -- validation ----------------------------------------------------- #
    def _validate(self, example: np.ndarray, target) -> None:
        """One eager step vs one compiled step from identical module
        state: logits, loss and every parameter gradient must match
        bit-for-bit, else the program is rejected."""
        module = self._module
        rng = np.random.default_rng(0)
        xv = (example + rng.normal(0.0, 1e-2, size=example.shape)
              ).astype(self._dtype)
        snap = _ModuleStateSnapshot(module)
        try:
            # stale gradients (a preceding training loop's last batch
            # survives Module.copy_structure) would contaminate the
            # eager reference: backward() accumulates on top of them
            module.zero_grad()
            out_t = module(Tensor(xv))
            loss_t = self._loss_fn(out_t, target)
            if not isinstance(loss_t, Tensor) or loss_t.size != 1:
                raise GraphUnsupported("loss_fn must return a scalar Tensor")
            loss_t.backward()
            ref_logits = out_t.data.copy()
            ref_loss = float(loss_t.data)
            ref_grads = [None if p.grad is None else p.grad.copy()
                         for p, _ in self._all_params]
        finally:
            module.zero_grad()
            snap.restore()
        try:
            loss_v, logits, genv = self._forward_backward(xv, target)
        finally:
            snap.restore()
        if logits.shape != ref_logits.shape or \
                not np.array_equal(logits, ref_logits):
            raise GraphUnsupported(
                "compiled training forward is not bit-identical to the "
                "eager tape")
        if loss_v != ref_loss:
            raise GraphUnsupported(
                "compiled training loss is not bit-identical to the "
                "eager tape")
        for (p, nid), rg in zip(self._all_params, ref_grads):
            cg = genv[nid] if nid is not None else None
            if (cg is None) != (rg is None):
                raise GraphUnsupported(
                    f"compiled gradient presence differs for parameter "
                    f"{p.name or p.shape}")
            if cg is not None and not np.array_equal(cg, rg):
                raise GraphUnsupported(
                    f"compiled gradient is not bit-identical for parameter "
                    f"{p.name or p.shape}")
