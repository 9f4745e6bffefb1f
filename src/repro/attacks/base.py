"""Shared attack machinery: L-inf projection, input gradients, scheduling.

All attacks operate on pixel arrays in [0, 1] (NCHW) and return perturbed
arrays of the same shape.  The attack budget follows the paper: L-inf
bound ``eps`` (default 8/255), per-step size ``alpha`` (default 1/255),
``steps`` iterations (default 20), natural-sample initialization.

Hot-loop economics (the §5.2 "attack speed" axis): a naive keep-best
loop pays the gradient pass *and* a separate success-check forward per
step — 4 model passes/step for DIVA, 2 for PGD.  ``Attack.generate``
instead runs the active-slot scheduler (:mod:`repro.attacks.engine`):
each pass is one gradient batch whose logits double as the shifted
keep-best success check (iterate *t* is checked by the pass that starts
iteration *t + 1*), so DIVA pays exactly 2 model passes per step and
PGD exactly 1 — the trailing success forward of older loops is gone
because a sample that stops stepping at its first success already *is*
the returned iterate.  Samples that succeed free their slot, which is
refilled with pending samples from later batches (cross-batch work
stealing), so the gradient batch stays full until the global tail.
``Attack.generate_sweep`` tiles the batch across an (eps, c, ...)
variant grid and feeds the same scheduler through the same
:func:`~repro.attacks.engine.run_tiled` call, sharing one compiled
program pair and per-variant keep-best state across the whole grid.
All scheduling is value-neutral: per-sample trajectories are
bit-identical to the classic one-batch-at-a-time loop.

Subclasses declare four things: their frozen models
(:meth:`Attack._models`), the logit seeds of their objective
(:meth:`Attack._seeds`), the same objective on the eager tape
(:meth:`Attack._eager_loss`) and their success test
(:meth:`Attack.success_from_logits`).  :class:`Attack` alone chooses
between one fused :class:`~repro.attacks.engine.PairedExecutor` step
over compiled programs (:mod:`repro.nn.graph`) and the eager tape,
which it falls back to whenever compilation is unsupported.  Compiled
programs belong to the models, not the attack: each model's store
(:func:`~repro.nn.graph.compile_forward_cached`; a
:class:`~repro.serve.ServeSession` adopts an attack's models into its
shared budgeted cache) holds one program per trailing shape and dtype,
so DIVA and PGD on one adapted model replay one program, and
:meth:`Attack.serve_signature` tells the serving scheduler which
instances' jobs may merge.  Attacks with
full-batch gradient state (momentum, NES noise; ``shrink_done =
False``) step one whole batch at a time instead
(:meth:`Attack._run_full_batch`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..nn.graph import (cached_programs, compile_forward_cached,
                        compile_forward_or_none)
from ..nn.tensor import Tensor, no_grad
from .engine import SCHEDULER_KEYS, PairedExecutor, run_tiled

PIXEL_MIN = 0.0
PIXEL_MAX = 1.0
DEFAULT_EPS = 8.0 / 255.0
DEFAULT_ALPHA = 1.0 / 255.0
DEFAULT_STEPS = 20

#: rows of the incoming batch used as the compile/validation example;
#: compiled programs replay any batch size, so tracing a small slice
#: keeps first-call latency flat in the batch size
_COMPILE_EXAMPLE_ROWS = 8


def project_linf(x_adv: np.ndarray, x_orig: np.ndarray, eps: float) -> np.ndarray:
    """Project onto the L-inf ball of radius ``eps`` around ``x_orig``,
    then clamp to the valid pixel range."""
    out = np.clip(x_adv, x_orig - eps, x_orig + eps)
    return np.clip(out, PIXEL_MIN, PIXEL_MAX)


def linf_distance(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Per-sample L-inf distance of (N, ...) batches."""
    return np.abs(a - b).reshape(len(a), -1).max(axis=1)


def input_gradient(loss_builder: Callable[[Tensor], Tensor],
                   x: np.ndarray) -> np.ndarray:
    """Gradient of a scalar loss w.r.t. the input pixels.

    ``loss_builder`` maps the input tensor to a scalar loss; per-sample
    losses must be summed (samples are independent, so the summed
    gradient equals stacked per-sample gradients).
    """
    xt = Tensor(x, requires_grad=True)
    loss = loss_builder(xt)
    loss.backward()
    return xt.grad.copy()


def softmax_np(logits: np.ndarray) -> np.ndarray:
    """Numerically stable softmax over the last axis (plain numpy)."""
    shifted = logits - logits.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def softmax_vjp(probs: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Vector-Jacobian product of softmax: d(v . p)/d(logits).

    Given ``p = softmax(z)`` and an upstream gradient ``v`` w.r.t. the
    probabilities, returns the gradient w.r.t. the logits:
    ``p * (v - sum(p * v))`` per row.
    """
    return probs * (v - (probs * v).sum(axis=-1, keepdims=True))


@dataclass
class AttackTrace:
    """Optional per-step snapshots for step-sweep figures (Fig 6d).

    ``snapshots[t]`` holds the adversarial batch after ``t + 1`` steps.
    """

    snapshots: List[np.ndarray] = field(default_factory=list)

    def record(self, x_adv: np.ndarray) -> None:
        self.snapshots.append(x_adv.copy())


class Attack:
    """Base class: iterate sign-gradient steps under an L-inf budget.

    With ``keep_best`` (default), each sample's *first iterate satisfying
    the attack's own success criterion* is kept and returned even if later
    steps overshoot — standard strong-attack practice, and consistent with
    the paper's monotone success-vs-steps curves (Fig 6d).

    A subclass declares :meth:`_models`, :meth:`_seeds`,
    :meth:`_eager_loss` and :meth:`success_from_logits`; the base class
    derives :meth:`gradient_with_logits` (compiled when every model
    traces, else the eager tape — the same bytes either way),
    :meth:`success_logits`, :meth:`gradient` and :meth:`is_success`.
    The logits of each gradient pass double as the keep-best success
    check, so the loop pays no per-step success forward.  A query-only
    attack overrides :meth:`gradient_with_logits` and returns no logits;
    its success checks then pay a forward-only :meth:`success_logits`.

    The attack holds no compiled program: :meth:`_executor` looks up
    each model's program in the model's store on every pass, so every
    attack and predict on one model shares that model's programs.
    """

    #: drop already-successful samples from subsequent gradient batches;
    #: attacks with full-batch gradient state (momentum) turn this off,
    #: which also opts them out of the slot scheduler and sweeps.
    shrink_done = True

    #: attack-specific scalar parameters that :meth:`generate_sweep`
    #: variants may override per item (e.g. DIVA's ``c``)
    sweep_params: frozenset = frozenset()

    def __init__(self, eps: float = DEFAULT_EPS, alpha: float = DEFAULT_ALPHA,
                 steps: int = DEFAULT_STEPS, random_start: bool = False,
                 keep_best: bool = True, seed: int = 0):
        if eps <= 0 or alpha <= 0 or steps < 1:
            raise ValueError("eps/alpha must be positive and steps >= 1")
        self.eps = float(eps)
        self.alpha = float(alpha)
        self.steps = int(steps)
        self.random_start = bool(random_start)
        self.keep_best = bool(keep_best)
        self.seed = seed
        #: set False to force the eager-tape path (e.g. for counting
        #: model calls, or when model weights mutate mid-generate).
        self.use_compiled = True

    # ------------------------------------------------------------------ #
    # subclass surface: the four declarations
    # ------------------------------------------------------------------ #
    def _models(self) -> Tuple[Any, ...]:
        """The frozen models this attack queries, in seed order (one
        logit block per model in every payload below)."""
        raise NotImplementedError  # pragma: no cover - abstract

    def _seeds(self, zs: Sequence[np.ndarray], y: np.ndarray,
               variant: Dict[str, np.ndarray]) -> Sequence[np.ndarray]:
        """d(objective)/d(logits): one seed per logit block of ``zs``.
        ``variant`` maps declared :attr:`sweep_params` to per-row
        vectors (empty: use the attack's own scalars)."""
        raise NotImplementedError  # pragma: no cover - abstract

    def _eager_loss(self, zs: Tuple[Tensor, ...], y: np.ndarray,
                    variant: Dict[str, np.ndarray]) -> Tensor:
        """The summed objective over the tape's logit tensors ``zs`` —
        the reference implementation :meth:`_seeds` must reproduce."""
        raise NotImplementedError  # pragma: no cover - abstract

    def success_from_logits(self, zs: Sequence[np.ndarray],
                            y: np.ndarray) -> np.ndarray:
        """Per-row success mask from a tuple of logit blocks."""
        raise NotImplementedError  # pragma: no cover - abstract

    def serve_signature(self) -> Optional[Tuple]:
        """Coalescing identity for the serving layer, or None.

        Two attack instances whose signatures are equal may have their
        jobs merged into one scheduled pass by
        :class:`repro.serve.Scheduler`: the signature must therefore
        capture *everything* the stepping loop reads that is not already
        per-item (the model objects, the class, ``steps``; ``eps`` /
        ``alpha`` / ``keep_best`` and declared :attr:`sweep_params` are
        per-item vectors and never belong here).  The base class returns
        None — "never merge across instances" — which is always safe.
        """
        return None

    # ------------------------------------------------------------------ #
    # derived: gradient and success, compiled or eager
    # ------------------------------------------------------------------ #
    def gradient_with_logits(self, x_adv: np.ndarray, y: np.ndarray,
                             variant: Optional[Dict[str, np.ndarray]] = None,
                             ) -> Tuple[np.ndarray, Any]:
        """Gradient of the summed objective plus the pass's logit blocks.

        One fused :class:`~repro.attacks.engine.PairedExecutor` step
        seeded by :meth:`_seeds` when every model traces, else the eager
        tape over :meth:`_eager_loss`; the two agree bit for bit.  The
        logits (a tuple, one block per model; None if the pass produced
        none) feed :meth:`success_from_logits`.
        """
        y = np.asarray(y)
        variant = variant or {}
        ex = self._executor(x_adv)
        if ex is not None:
            zs, g = ex.value_and_input_grad(
                x_adv, lambda zs: self._seeds(zs, y, variant))
            return g, zs
        xt = Tensor(x_adv, requires_grad=True)
        zs = tuple(model(xt) for model in self._models())
        self._eager_loss(zs, y, variant).backward()
        return xt.grad.copy(), tuple(z.data for z in zs)

    def gradient(self, x_adv: np.ndarray, y: np.ndarray) -> np.ndarray:
        """Per-batch gradient of the attack objective."""
        return self.gradient_with_logits(x_adv, y)[0]

    def success_logits(self, x_adv: np.ndarray) -> Tuple[np.ndarray, ...]:
        """Forward-only logit blocks: a replay, or eager forwards that
        build no tape."""
        ex = self._executor(x_adv)
        if ex is not None:
            return ex.replay(x_adv)
        with no_grad():
            return tuple(model(Tensor(x_adv)).data for model in self._models())

    def is_success(self, x_adv: np.ndarray, y: np.ndarray) -> np.ndarray:
        """Per-sample success mask on pixel inputs (public API; one
        eager forward per model, independent of the attack's programs).

        The check runs against the models the *attacker* holds — for
        surrogate pipelines that is the surrogate pair, so no
        illegitimate information about the true models leaks in.
        """
        from ..training.evaluate import predict_logits
        batch = max(len(x_adv), 1)
        zs = tuple(predict_logits(model, x_adv, batch_size=batch)
                   for model in self._models())
        return self.success_from_logits(zs, np.asarray(y))

    # ------------------------------------------------------------------ #
    # compiled-executor plumbing
    # ------------------------------------------------------------------ #
    def _executor(self, x: np.ndarray):
        """A :class:`~repro.attacks.engine.PairedExecutor` over the
        programs of :meth:`_models` for ``x``'s trailing shape and dtype
        (None = eager fallback).

        Each program is its model's entry in the model's store
        (:func:`~repro.nn.graph.compile_forward_cached`), shared with
        every other attack and predict on that model; a model named
        twice gets one program per occurrence.  The store keys by dtype
        too: replays silently cast mismatched inputs, so a float64
        tenant hitting a float32 program would silently drop precision.
        ``attack.plan.build`` is the chaos harness's plan-build
        injection point: an error fault there is a failed compile the
        serving layer must degrade around.
        """
        if not self.use_compiled:
            return None
        # trace/validate on a small slice: replays accept any batch
        # size, and validation cost scales with the example batch
        example = x[:_COMPILE_EXAMPLE_ROWS]

        def build(model):
            from ..serve import faults
            faults.fire("attack.plan.build")
            return compile_forward_or_none(model, example)

        models = self._models()
        programs = []
        for i, model in enumerate(models):
            occurrence = sum(m is model for m in models[:i])
            prog = compile_forward_cached(model, example, occurrence,
                                          partial(build, model))
            if prog is None:
                return None
            programs.append(prog)
        return PairedExecutor(programs)

    def _refresh_compiled(self) -> None:
        """Re-fold constants on every cached program of this attack's
        models — including programs another attack or predict built
        after the weights last moved."""
        models = self._models()
        for i, model in enumerate(models):
            if not any(m is model for m in models[:i]):
                for prog in cached_programs(model):
                    prog.refresh()

    # ------------------------------------------------------------------ #
    # the loop
    # ------------------------------------------------------------------ #
    def _init(self, x: np.ndarray) -> np.ndarray:
        """Starting point: natural sample, or uniform noise in the ball.

        The paper initializes from the natural sample — "random start is
        less effective in a single run" (§5.1).
        """
        return self._init_variant(x, self.eps)

    def _success_mask(self, aux: Any, x_sub: np.ndarray,
                      y_sub: np.ndarray) -> np.ndarray:
        """Success mask of rows ``x_sub`` from the gradient pass's logit
        blocks ``aux``; a pass that produced none (query-based
        estimators) pays a forward-only :meth:`success_logits`."""
        zs = self.success_logits(x_sub) if aux is None else aux
        return self.success_from_logits(zs, y_sub)

    def _step(self, adv_rows: np.ndarray, x_rows: np.ndarray,
              g_rows: np.ndarray, eps=None, alpha=None) -> np.ndarray:
        """One sign step.  ``eps``/``alpha`` may be per-row (n,) vectors
        (sweep variants); scalars and vectors of equal value produce
        bit-identical results."""
        eps = self.eps if eps is None else eps
        alpha = self.alpha if alpha is None else alpha
        if isinstance(eps, np.ndarray) and eps.ndim == 1:
            eps = eps.reshape(-1, *([1] * (x_rows.ndim - 1)))
        if isinstance(alpha, np.ndarray) and alpha.ndim == 1:
            alpha = alpha.reshape(-1, *([1] * (x_rows.ndim - 1)))
        stepped = adv_rows + alpha * np.sign(g_rows)
        return project_linf(stepped, x_rows, eps).astype(x_rows.dtype)

    def _carry(self, g: np.ndarray, state: Any) -> Tuple[np.ndarray, Any]:
        """Fold the full-batch loop's carried gradient state into this
        pass's gradient ``g``; returns the step direction and the next
        state.  ``state`` is None on each batch's first pass, so every
        batch (and every public :meth:`gradient` call) starts at rest.
        Stateless attacks step along ``g``."""
        return g, state

    def _run_full_batch(self, xb: np.ndarray, yb: np.ndarray,
                        adv: np.ndarray, snaps: Optional[np.ndarray],
                        deadline=None, row0: int = 0) -> np.ndarray:
        """The loop for attacks with full-batch gradient state (momentum
        velocity, NES noise): every pass steps the whole batch, so each
        row's state sees the same batch composition as an undisturbed
        run.  Accumulated gradient state is loop state, threaded through
        :meth:`_carry`, never attack state.  Rows never leave the batch:
        a row is *done* once its held iterate is final, and the loop
        returns the held iterate for done rows.

        With ``keep_best``, iterate ``adv_t`` is checked with the logits
        of the gradient pass that starts iteration ``t`` (the pass
        needed to produce ``adv_{t+1}`` anyway), and its first success
        is held; the final iterate is returned *unchecked*, because a
        success there cannot change the returned bytes.  This keeps the
        done-mask semantics (and the pass count: exactly ``steps``)
        identical to :func:`~repro.attacks.engine.run_scheduled_steps`.

        Deadline-expired rows are held at their current iterate
        (best-so-far).  Rows already done are never polled — completion
        always wins over expiry.  The loop stops early only once every
        row is done and at least one expired: stopping on success alone
        would change how much RNG a query-based attack's later batches
        draw.  ``snaps[t]`` — when given — receives the merged iterate
        after ``t + 1`` steps.
        """
        held = adv.copy()
        done = np.zeros(len(xb), dtype=bool)
        expired = False
        state = None
        shape = (-1,) + (1,) * (adv.ndim - 1)

        def merged() -> np.ndarray:
            return np.where(done.reshape(shape), held, adv)

        for t in range(self.steps):
            live = np.flatnonzero(~done)
            if deadline is not None and live.size:
                exp = np.asarray(deadline.poll(row0 + live), dtype=bool)
                if exp.any():
                    newly = live[exp]
                    held[newly] = adv[newly]
                    done[newly] = True
                    expired = True
                    deadline.expire(row0 + newly, t)
            if expired and done.all():
                if snaps is not None:
                    snaps[t:] = merged()
                break
            g, aux = self.gradient_with_logits(adv, yb)
            if t > 0 and self.keep_best:
                # only first successes count: rows already done keep
                # the iterate that first satisfied the criterion
                newly = np.flatnonzero(self._success_mask(aux, adv, yb)
                                       & ~done)
                held[newly] = adv[newly]
                done[newly] = True
            g, state = self._carry(g, state)
            adv = self._step(adv, xb, g)
            if snaps is not None:
                snaps[t] = merged()
        return merged()

    def generate(self, x: np.ndarray, y: np.ndarray,
                 trace: Optional[AttackTrace] = None,
                 batch_size: int = 64,
                 deadline=None) -> np.ndarray:
        """Craft adversarial examples for the whole batch.

        Ascends the subclass objective with sign steps, projecting back
        into the eps-ball each iteration (Eq. 3 of the paper).  Attacks
        without full-batch gradient state run on the active-slot
        scheduler (:mod:`repro.attacks.engine`): ``batch_size`` is the
        slot capacity, and slots freed by successful samples are
        refilled from later batches; attacks with full-batch gradient
        state step ``batch_size`` rows at a time.  Iterates are
        bit-identical to a one-batch-at-a-time loop either way.

        ``deadline`` (a :class:`~repro.serve.resilience.DeadlineToken`
        with one entry per row of ``x``) retires expiring rows between
        steps with their best-so-far iterate — the serving layer's
        graceful-degradation path.
        """
        if batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        y = np.asarray(y)
        snaps = (np.empty((self.steps,) + x.shape, dtype=x.dtype)
                 if trace is not None else None)
        if self.shrink_done:
            adv = run_tiled(self, [(x, y, self._init(x), self.eps, self.alpha,
                                    self.keep_best, {})],
                            batch_size, snaps=snaps, deadline=deadline)
        else:
            # full-batch gradient state (momentum) forbids dropping or
            # reordering rows mid-flight: one batch at a time
            self._refresh_compiled()
            adv = np.empty_like(x)
            for start in range(0, len(x), batch_size):
                rows = slice(start, start + batch_size)
                adv[rows] = self._run_full_batch(
                    x[rows], y[rows], self._init(x[rows]),
                    None if snaps is None else snaps[:, rows],
                    deadline=deadline, row0=start)
        if trace is not None:
            for t in range(self.steps):
                trace.record(snaps[t])
        return adv

    def generate_sweep(self, x: np.ndarray, y: np.ndarray,
                       variants: Sequence[Dict[str, Any]],
                       batch_size: int = 64) -> List[np.ndarray]:
        """Run the attack once per variant over one scheduled pass.

        Each variant is a dict overriding ``eps`` / ``alpha`` /
        ``keep_best`` and any attack parameter named in
        :attr:`sweep_params` (e.g. ``{"eps": 16/255, "c": 5.0}``); empty
        dicts mean "the attack's own settings".  The (variant, sample)
        grid is tiled into one work queue sharing the compiled programs,
        so a whole (eps, c) sweep costs one scheduled pass instead of
        ``len(variants)`` sequential ``generate`` calls.  Returns one
        adversarial batch per variant, each bit-identical to the
        sequential ``generate`` run with that variant's parameters.
        """
        if batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        y = np.asarray(y)
        allowed = SCHEDULER_KEYS | self.sweep_params
        for v in variants:
            unknown = set(v) - allowed
            if unknown:
                raise ValueError(f"unsupported sweep parameter(s) {unknown}; "
                                 f"this attack accepts {sorted(allowed)}")
        if not variants:
            return []
        if not self.shrink_done:
            # full-batch gradient state cannot be tiled; fall back to
            # sequential per-variant runs on parameter clones
            import copy as _copy
            outs = []
            for v in variants:
                clone = _copy.copy(self)
                for key, val in v.items():
                    setattr(clone, key, val)
                outs.append(clone.generate(x, y, batch_size=batch_size))
            return outs
        extra = self.sweep_params & {k for v in variants for k in v}
        adv = run_tiled(self, [
            (x, y, self._init_variant(x, v.get("eps", self.eps)),
             v.get("eps", self.eps), v.get("alpha", self.alpha),
             v.get("keep_best", self.keep_best),
             {key: v.get(key, getattr(self, key)) for key in extra})
            for v in variants], batch_size)
        n = len(x)
        return [adv[i * n:(i + 1) * n] for i in range(len(variants))]

    def _init_variant(self, x: np.ndarray, eps: float) -> np.ndarray:
        """Per-variant :meth:`_init`: same rng stream per variant as a
        sequential run with that eps would draw."""
        if not self.random_start:
            return x.copy()
        rng = np.random.default_rng(self.seed)
        noise = rng.uniform(-eps, eps, size=x.shape).astype(x.dtype)
        return project_linf(x + noise, x, eps)
