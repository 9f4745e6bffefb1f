"""Compiled training steps: parameter-gradient programs.

:mod:`repro.nn.graph` compiles the *attack* hot loop — a frozen model's
forward plus the input gradient.  Training spends its time in a
different loop with the same shape: forward, loss, backward through the
**parameters**, optimizer update, thousands of times over fixed-size
batches.  This module compiles that loop:

``compile_train_step(module, loss_fn, example, target, optimizer)``
traces the module's train-mode forward once, through the trace entry
the forward compiler uses (:func:`repro.nn.graph._trace`, with side
effects recorded and parameters as roots), and lowers it with that
module's kernel factories into a :class:`CompiledTrainStep` whose
:meth:`~CompiledTrainStep.step` is a single replay per batch:

- **parameter roots** — the program's variable set is the input *plus*
  every :class:`~repro.nn.module.Parameter`, so weight fake-quantization
  and pruning masks replay against the current weights instead of being
  folded, and the backward pass accumulates parameter gradients;
- **eager-tape backward order** — the backward program runs in the one
  tape order, :func:`repro.nn.tensor._tape_order`, which
  :meth:`Tensor.backward` itself runs the traced tape in, so gradient
  accumulation happens in the same floating-point order and compiled
  parameters stay **bit-identical** to eager ones;
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
  :meth:`Optimizer.apply_gradients` (the optimizer's one in-place
  update, which the eager ``step()`` runs too), so a warm training step
  allocates no tape nodes, no closures and no optimizer state.

Safety mirrors the forward executor: compilation *validates itself* by
running one eager step and one compiled step from identical module
state and requiring bit-identical logits, loss and every parameter
gradient; any mismatch — or any op/side effect the tracer cannot
capture — raises :class:`GraphUnsupported`, and
:func:`compile_train_step_or_none` turns that into the loud eager
fallback of :func:`train_step_fn`, the step the training loops share,
through :func:`repro.nn.graph.fallback_to_eager`.
Tracing and validation leave the module untouched (buffers, observers
and module RNGs are snapshotted and restored in place), so a fallback
run is bitwise the run that never attempted to compile.

The batch size is pinned at trace time: training loops drive full
batches through the program and the ragged tail batch through the eager
tape, which is exactly the code path the program was validated against.
"""

from __future__ import annotations

import copy
from typing import Callable, List, Optional

import numpy as np

from . import tensor as _tensor
from .graph import (GraphUnsupported, _Program, _trace, _Tracer,
                    fallback_to_eager, release_freed_heap)
from .module import Module, Parameter
from .optim import Optimizer
from .tensor import Tensor, _tape_order


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
    """Best-effort :func:`compile_train_step`: None instead of raising,
    after :func:`~repro.nn.graph.fallback_to_eager`'s warning.  The
    fallback of :func:`train_step_fn`.
    """
    return fallback_to_eager(
        lambda: compile_train_step(module, loss_fn, example, target,
                                   optimizer),
        f"train-step compile failed for {type(module).__name__} on input "
        f"{np.shape(example)}")


def train_step_fn(module, loss_fn: Callable[[Tensor, object], Tensor],
                  example: np.ndarray, target, optimizer: Optimizer,
                  log_fn: Optional[Callable[[str], None]] = None
                  ) -> Callable[[np.ndarray, object], float]:
    """The training step ``fit``, ``distill`` and ``qat_finetune`` share.

    Returns ``step(xb, tb) -> loss``: one optimizer update on ``loss_fn(
    module(xb), tb)``.  Batches the compiled program (built best-effort
    on ``example``/``target``) ``accepts`` replay it; every other batch
    (the ragged tail, a shape-changing augment, or all of them when
    compilation falls back, which ``log_fn`` hears about) runs the eager
    tape.  The two are bit-identical, so the result does not depend on
    which one ran.
    """
    compiled = compile_train_step_or_none(module, loss_fn, example, target,
                                          optimizer)
    if compiled is None and log_fn:
        log_fn("train-step compilation unavailable; using the eager tape")

    def step(xb: np.ndarray, tb) -> float:
        if compiled is not None and compiled.accepts(xb):
            return compiled.step(xb, tb)
        loss = loss_fn(module(Tensor(xb)), tb)
        optimizer.zero_grad()
        loss.backward()
        optimizer.step()
        return float(loss.data)

    return step


# the trace reads ``_parents`` and the validation runs an eager
# backward, so both need the tape even when called inside ``no_grad``
@_tensor.enable_grad()
def compile_train_step(module: Module,
                       loss_fn: Callable[[Tensor, object], Tensor],
                       example: np.ndarray, target,
                       optimizer: Optimizer) -> "CompiledTrainStep":
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
    snap = _ModuleStateSnapshot(module)
    try:
        x, tracer, out_id = _trace(module, example, train=True)
    finally:
        snap.restore()
    prog = CompiledTrainStep(tracer, out_id, x, module, loss_fn, optimizer)
    # the program holds no reference into the trace: free its tape before
    # the validating eager step, so a compile peaks at about one step
    del tracer
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

        # Forward schedule, with recorded side effects replayed at the
        # position they originally ran (an effect recorded after k ops
        # runs before the first variable op whose trace index is >= k).
        pos_of = {op.out: i for i, op in enumerate(tracer.ops)}
        effects = list(tracer.effects)
        fwd: List = []
        k = 0
        for op in self._var_ops:
            p = pos_of[op.out]
            while k < len(effects) and effects[k][0] <= p:
                fwd.append(effects[k][1:])
                k += 1
            fwd.append(op)
        fwd.extend(effect[1:] for effect in effects[k:])

        # Backward schedule in the tape order ``Tensor.backward`` runs
        # on the traced tape, so gradient contributions accumulate in the
        # same floating-point order as the eager step (bit-parity is
        # checked, not hoped for).  The kernel factories bind against
        # the gradient set; ops off it (on the input's path only) have
        # no backward, as the input takes no gradient in training.
        op_by_tensor = {id(tracer.keep[op.out]): op for op in self._var_ops
                        if op.out in grad}
        self._build(fwd, [op_by_tensor[id(t)] for t in
                          reversed(_tape_order(tracer.keep[out_id]))
                          if id(t) in op_by_tensor], grad)

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
        genv, _ = self._backward(logits.grad, self._n0)
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
    def _eager_step(self, xv: np.ndarray, target):
        """The eager tape's logits, loss and parameter gradients on
        ``xv``, copied out: the tape is freed on return, before the
        compiled step they are checked against allocates its arena."""
        # stale gradients (a preceding training loop's last batch
        # survives Module.copy_structure) would contaminate the eager
        # reference: backward() accumulates on top of them
        self._module.zero_grad()
        out_t = self._module(Tensor(xv))
        loss_t = self._loss_fn(out_t, target)
        if not isinstance(loss_t, Tensor) or loss_t.size != 1:
            raise GraphUnsupported("loss_fn must return a scalar Tensor")
        loss_t.backward()
        return (out_t.data.copy(), float(loss_t.data),
                [None if p.grad is None else p.grad.copy()
                 for p, _ in self._all_params])

    def _validate(self, example: np.ndarray, target) -> None:
        """One eager step vs one compiled step from identical module
        state: logits, loss and every parameter gradient must match
        bit-for-bit, else the program is rejected."""
        module = self._module
        xv = self._validation_input(example)
        snap = _ModuleStateSnapshot(module)
        try:
            ref_logits, ref_loss, ref_grads = self._eager_step(xv, target)
        finally:
            module.zero_grad()
            snap.restore()
        release_freed_heap()
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
