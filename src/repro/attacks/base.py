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
variant grid and feeds the same scheduler, sharing one compiled program
pair and per-variant keep-best state across the whole grid.  All
scheduling is value-neutral: per-sample trajectories are bit-identical
to the classic one-batch-at-a-time loop.

Subclasses compile their frozen models into replayable programs
(:mod:`repro.nn.graph`) — DIVA-family attacks fuse the (original,
adapted) pair into a :class:`~repro.attacks.engine.PairedExecutor` with
shared scratch and one combined softmax-seeded backward — and fall back
to the eager tape whenever compilation is unsupported.  Compiled
programs live in the attack's :class:`~repro.serve.PlanCache`
(private by default; a :class:`~repro.serve.ServeSession` rebinds it to
a shared budgeted store, and :meth:`Attack.serve_signature` tells the
serving scheduler which instances' jobs may merge).  Attacks with
full-batch gradient state (momentum) keep the legacy per-batch loop
(``shrink_done = False``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..nn import rowrep
from ..nn.module import Module
from ..nn.tensor import Tensor
from .engine import SCHEDULER_KEYS, _per_item, run_scheduled

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


def compile_model(model, example: np.ndarray):
    """Best-effort compiled forward for a frozen model; None on fallback.

    ``attack.plan.build`` is the chaos harness's plan-build injection
    point (a no-op import + call unless an injector is installed): an
    error fault here is a failed compile, surfaced to the serving layer
    as a dispatch failure it must degrade around.
    """
    from ..serve import faults
    faults.fire("attack.plan.build")
    from ..nn.graph import compile_forward_or_none
    return compile_forward_or_none(model, example)


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
    the paper's monotone success-vs-steps curves (Fig 6d).  Attacks define
    success via :meth:`is_success`; the base class has no criterion, so it
    falls back to returning the final iterate.

    Subclasses that can derive success from the logits of their own
    gradient pass implement :meth:`gradient_with_logits` /
    :meth:`success_from_logits` / :meth:`success_logits`; the loop then
    skips the per-step success forwards entirely.  Subclasses that only
    implement :meth:`gradient` / :meth:`is_success` keep the classic
    (slower) behaviour unchanged.
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
        #: compiled-program store; private by default, rebound to a
        #: shared budgeted cache when the attack is served through a
        #: :class:`repro.serve.ServeSession`
        from ..serve.cache import PlanCache
        self.plan_cache = PlanCache()

    # ------------------------------------------------------------------ #
    # subclass surface
    # ------------------------------------------------------------------ #
    def gradient(self, x_adv: np.ndarray, y: np.ndarray) -> np.ndarray:
        """Per-batch gradient of the attack objective."""
        raise NotImplementedError  # pragma: no cover - abstract

    def gradient_with_logits(self, x_adv: np.ndarray, y: np.ndarray,
                             variant: Optional[Dict[str, np.ndarray]] = None,
                             ) -> Tuple[np.ndarray, Any]:
        """Gradient plus whatever logits the pass produced (or None).

        The second element is an attack-defined payload consumed only by
        :meth:`success_from_logits`; None means "no logits available,
        fall back to :meth:`is_success`".  ``variant`` carries per-row
        parameter vectors for sweep runs (keys declared in
        :attr:`sweep_params`); None means "use the attack's own
        scalars".
        """
        return self.gradient(x_adv, y), None

    def success_logits(self, x_adv: np.ndarray, y: np.ndarray) -> Any:
        """Forward-only logits payload for a success check (or None)."""
        return None

    def success_from_logits(self, aux: Any, y: np.ndarray) -> Optional[np.ndarray]:
        """Success mask derived from a logits payload, or None."""
        return None

    def is_success(self, x_adv: np.ndarray, y: np.ndarray) -> Optional[np.ndarray]:
        """Per-sample success mask under this attack's own objective, or
        None when the attack defines no early-success criterion."""
        return None

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
    # compiled-executor plumbing
    # ------------------------------------------------------------------ #
    @property
    def _exec_cache(self) -> Dict[Any, Tuple[Any, Any]]:
        """Introspection view of :attr:`plan_cache`, ``{key: (owner,
        plan)}`` with single owners unwrapped — the shape the historic
        per-attack dict had (kept for tests and debugging)."""
        return {key: (e.owners[0] if len(e.owners) == 1 else e.owners,
                      e.plan)
                for key, e in self.plan_cache.items(scope=self)}

    def _compiled(self, model, x: np.ndarray):
        """Cached compiled executor for ``model`` (None = eager fallback).

        The cache entry *holds* the model it was compiled from: a bare
        ``id(model)`` key could collide after garbage collection hands
        the address to a different model (e.g. when ``self.model`` is
        rebound between ``generate`` calls), silently replaying a stale
        program.  Pinning the model makes the id stable for the entry's
        lifetime, and the identity check guards the rebind case (both
        now enforced by :class:`repro.serve.PlanCache`).
        """
        if not self.use_compiled:
            return None
        # trace/validate on a small slice: replays accept any batch size,
        # and compile-time validation cost scales with the example batch.
        # dtype is part of the key: replays silently cast mismatched
        # inputs, so a float64 tenant hitting a float32 plan in a shared
        # cache would silently drop precision
        return self.plan_cache.get(
            (id(model), x.shape[1:], x.dtype.str, rowrep.mode_key()),
            (model,),
            lambda: compile_model(model, x[:_COMPILE_EXAMPLE_ROWS]),
            scope=self)

    def _paired_executor(self, models: Tuple, x: np.ndarray):
        """Cached :class:`~repro.attacks.engine.PairedExecutor` over
        ``models`` (None = eager fallback), with the same held-reference
        keying discipline as :meth:`_compiled`."""
        if not self.use_compiled:
            return None

        def _build():
            from ..serve import faults
            faults.fire("attack.plan.build")
            from .engine import PairedExecutor
            return PairedExecutor.compile(models, x[:_COMPILE_EXAMPLE_ROWS])

        return self.plan_cache.get(
            (tuple(id(m) for m in models), x.shape[1:], x.dtype.str,
             rowrep.mode_key()),
            tuple(models), _build, scope=self)

    def _plan_owners(self) -> Optional[List]:
        """The models whose compiled plans this attack replays, used to
        scope cache refreshes in a shared store.  The base class reads
        the conventional attribute names; an attack holding its models
        elsewhere must override (returning None refreshes everything —
        always safe)."""
        owners = [m for name in ("model", "original", "adapted")
                  for m in [getattr(self, name, None)] if m is not None]
        return owners or None

    def _refresh_compiled(self) -> None:
        """Re-fold constants on the cached plans of *this attack's
        models* — including plans an equal-signature sibling compiled
        (shared-cache keys are model/shape-based, so a hit may be on a
        plan some other instance built after the weights last moved).
        Owner-scoped: other tenants' plans in a shared session store
        are untouched."""
        self.plan_cache.refresh(owners=self._plan_owners())

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
                      y_sub: np.ndarray) -> Optional[np.ndarray]:
        if aux is None:
            # gradient pass produced no logits (e.g. query-based
            # estimators): try a forward-only payload before falling all
            # the way back to the pixel-level check
            aux = self.success_logits(x_sub, y_sub)
        if aux is not None:
            mask = self.success_from_logits(aux, y_sub)
            if mask is not None:
                return np.asarray(mask)
        mask = self.is_success(x_sub, y_sub)
        return None if mask is None else np.asarray(mask)

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

    def _run_plain(self, xb: np.ndarray, yb: np.ndarray, adv: np.ndarray,
                   snaps: Optional[List[np.ndarray]],
                   deadline=None, row0: int = 0) -> np.ndarray:
        """Fixed-step loop (full-batch state attacks with keep_best off).

        Deadline-expired rows are *frozen*, not dropped: the batch keeps
        its composition so full-batch gradient state (momentum velocity,
        NES RNG draws) is untouched for every other row — value
        neutrality is the serving layer's core contract.  A frozen row's
        held iterate is its best-so-far result.
        """
        stopped = (np.zeros(len(xb), dtype=bool)
                   if deadline is not None else None)
        held: Optional[np.ndarray] = None
        for t in range(self.steps):
            if stopped is not None and not stopped.all():
                live = np.flatnonzero(~stopped)
                exp = np.asarray(deadline.poll(row0 + live), dtype=bool)
                if exp.any():
                    newly = live[exp]
                    if held is None:
                        held = np.empty_like(adv)
                    held[newly] = adv[newly]
                    stopped[newly] = True
                    deadline.expire(row0 + newly, t)
            if stopped is not None and stopped.all() and snaps is None:
                break
            g, _ = self.gradient_with_logits(adv, yb)
            adv = self._step(adv, xb, g)
            if snaps is not None:
                snaps.append(adv)
        if held is not None:
            shape = (-1,) + (1,) * (adv.ndim - 1)
            return np.where(stopped.reshape(shape), held, adv)
        return adv

    def _run_keep_best(self, xb: np.ndarray, yb: np.ndarray, adv: np.ndarray,
                       snaps: Optional[List[np.ndarray]],
                       deadline=None, row0: int = 0) -> np.ndarray:
        """Keep-best loop with shifted success checks.

        Iterate ``adv_t`` is checked with the logits of the gradient pass
        that starts iteration ``t`` (the pass needed to produce
        ``adv_{t+1}`` anyway); the final iterate is returned *unchecked*,
        because a success there cannot change the returned bytes — the
        row would retire holding exactly that iterate.  This keeps the
        done-mask semantics (and the pass count: exactly ``steps`` per
        row) identical to :func:`~repro.attacks.engine.
        run_scheduled_steps`; historically this loop paid one trailing
        success forward, which made single-step keep-best runs
        (FGSM-as-PGD(steps=1)) cost two passes here and one there.  The
        sequence of checked iterates — and every produced sample — is
        identical to checking right after each step.

        Deadline-expired rows reuse the held/done machinery: they freeze
        at their current iterate (best-so-far) without leaving the
        batch, so full-batch gradient state stays untouched for the
        surviving rows.  Rows already done (a genuine success) are never
        polled — completion always wins over expiry.
        """
        held = adv.copy()
        done = np.zeros(len(xb), dtype=bool)

        def merged() -> np.ndarray:
            return np.where(done[:, None, None, None], held, adv)

        def check(active: np.ndarray, aux: Any) -> Optional[np.ndarray]:
            """Update held/done for adv[active]; returns the mask (or None)."""
            mask = self._success_mask(aux, adv[active], yb[active])
            if mask is not None:
                # only first successes count: rows already done keep the
                # iterate that first satisfied the criterion
                newly = active[mask & ~done[active]]
                held[newly] = adv[newly]
                done[newly] = True
            return mask

        for t in range(self.steps):
            if deadline is not None:
                live = np.flatnonzero(~done)
                if live.size:
                    exp = np.asarray(deadline.poll(row0 + live), dtype=bool)
                    if exp.any():
                        newly = live[exp]
                        held[newly] = adv[newly]
                        done[newly] = True
                        deadline.expire(row0 + newly, t)
            active = np.flatnonzero(~done) if self.shrink_done else \
                np.arange(len(xb))
            if active.size == 0:
                if snaps is not None:
                    frozen = merged()
                    while len(snaps) < self.steps:
                        snaps.append(frozen)
                return merged()
            g, aux = self.gradient_with_logits(adv[active], yb[active])
            if t > 0:
                mask = check(active, aux)
                if snaps is not None:
                    snaps.append(merged())
                if mask is not None and self.shrink_done:
                    active, g = active[~mask], g[~mask]
            if active.size:
                adv[active] = self._step(adv[active], xb[active], g)
        if snaps is not None:
            snaps.append(merged())
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
        refilled from later batches.  Iterates are bit-identical to the
        per-batch loop either way.

        ``deadline`` (a :class:`~repro.serve.resilience.DeadlineToken`
        with one entry per row of ``x``) retires expiring rows between
        steps with their best-so-far iterate — the serving layer's
        graceful-degradation path.
        """
        if batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        y = np.asarray(y)
        self._refresh_compiled()
        if self.shrink_done:
            n = len(x)
            eps = np.full(n, self.eps, dtype=x.dtype)
            alpha = np.full(n, self.alpha, dtype=x.dtype)
            check = np.full(n, self.keep_best, dtype=bool)
            snaps = (np.empty((self.steps,) + x.shape, dtype=x.dtype)
                     if trace is not None else None)
            adv = run_scheduled(self, x, y, self._init(x), eps, alpha, check,
                                None, capacity=batch_size, snaps=snaps,
                                deadline=deadline)
            if trace is not None:
                for t in range(self.steps):
                    trace.record(snaps[t])
            return adv
        # legacy per-batch loop: full-batch gradient state (momentum)
        # forbids dropping or reordering rows mid-flight
        outs = []
        step_snaps: List[List[np.ndarray]] = [[] for _ in range(self.steps)]
        for start in range(0, len(x), batch_size):
            xb = x[start:start + batch_size]
            yb = y[start:start + batch_size]
            adv = self._init(xb)
            snaps_b: Optional[List[np.ndarray]] = [] if trace is not None else None
            if self.keep_best:
                final = self._run_keep_best(xb, yb, adv, snaps_b,
                                            deadline=deadline, row0=start)
            else:
                final = self._run_plain(xb, yb, adv, snaps_b,
                                        deadline=deadline, row0=start)
            outs.append(final)
            if trace is not None:
                for t in range(self.steps):
                    step_snaps[t].append(snaps_b[t])
        if trace is not None:
            for t in range(self.steps):
                trace.record(np.concatenate(step_snaps[t], axis=0))
        return np.concatenate(outs, axis=0)

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
        self._refresh_compiled()
        n = len(x)
        n_var = len(variants)
        xt = np.concatenate([x] * n_var, axis=0)
        yt = np.tile(y, n_var)
        eps = np.concatenate([
            _per_item(v.get("eps", self.eps), n, x.dtype) for v in variants])
        alpha = np.concatenate([
            _per_item(v.get("alpha", self.alpha), n, x.dtype) for v in variants])
        check = np.concatenate([
            np.full(n, bool(v.get("keep_best", self.keep_best)))
            for v in variants])
        params = None
        extra = self.sweep_params & {k for v in variants for k in v}
        if extra:
            params = {key: np.concatenate([
                _per_item(v.get(key, getattr(self, key)), n, np.float64)
                for v in variants]) for key in extra}
        adv0 = np.concatenate([
            self._init_variant(x, v.get("eps", self.eps)) for v in variants])
        adv = run_scheduled(self, xt, yt, adv0, eps, alpha, check, params,
                            capacity=batch_size)
        return [adv[i * n:(i + 1) * n] for i in range(n_var)]

    def _init_variant(self, x: np.ndarray, eps: float) -> np.ndarray:
        """Per-variant :meth:`_init`: same rng stream per variant as a
        sequential run with that eps would draw."""
        if not self.random_start:
            return x.copy()
        rng = np.random.default_rng(self.seed)
        noise = rng.uniform(-eps, eps, size=x.shape).astype(x.dtype)
        return project_linf(x + noise, x, eps)
