"""Whole-loop attack compilation: the PGD/DIVA/CW loop as one program.

After PRs 1–5 every attack *step* is a compiled replay, but the loop
around it — per-step dispatch, ``keep_best`` bookkeeping, done-row
re-slicing — still runs in the Python interpreter.  This module records
the whole loop once and replays it:

- :func:`compile_attack_loop` traces the masked step update into a
  :class:`~repro.nn.graph.CompiledKernel` (the ``sign``/``maximum``/
  ``minimum``/``select`` ops registered in :mod:`repro.nn.graph`),
  closes the loop with a per-row continuation mask and the attack's
  ``steps`` trip cap, and **bit-validates the recorded loop against the
  step-at-a-time engine** (:func:`repro.attacks.engine.
  run_scheduled_steps`) on a small slice before the plan exists — the
  same trace/plan → bit-validate → loud-fallback contract every
  compiled leg follows.  Any refusal (an attack whose gradient or step
  rule is overridden, an untraceable model, a validation mismatch)
  returns the engine path, never an error.

- :func:`try_run_loop` is the router ``run_scheduled`` consults: it
  resolves the attack's :meth:`~repro.attacks.base.Attack._loop_spec`
  (the compiled gradient programs plus seed/aux adapters), fetches the
  validated loop plan from the attack's
  :class:`~repro.serve.PlanCache`, and drives all steps with per-row
  **early exit via masking instead of re-slicing**: retired rows leave
  the select mask, and the batch is compacted only at retirement
  boundaries — exactly the engine's active-slot semantics, so per-row
  trajectories (and deadline poll cadence) are bit-identical.

Loop-carried state per active row: ``(x_adv, steps_done, done)`` plus
the loop-invariant clip bounds ``lo``/``hi`` (the keep-best "best"
iterate *is* ``x_adv`` — a row stops stepping at its first success, so
the held iterate never diverges from the carried one; the engine's
``keep``-mask is the continuation mask here).

Deadlines: the loop replays in bounded chunks of ``attack.loop_chunk``
gradient passes (default 1) and polls the
:class:`~repro.serve.resilience.DeadlineToken` between chunks, so
deadline-degraded jobs retire with best-so-far iterates exactly like
the engine.  With a deadline attached the loop additionally disables
fixed-point fast-forwarding, keeping the engine's pass-for-pass fault
and clock cadence (``attack.step`` latency faults fire per poll).

Fixed-point fast-forward (no deadline only): when a row's masked step
reproduces its iterate bit-for-bit, every future pass provably would
too (the gradient is a pure function of the iterate, so the next pass
replays the same bytes into the same bytes), and the row's returned
iterate can never change again — it skips straight to the trip cap.
CW rows hit this hinge fixed point a few steps after success (the
margin subgradient goes exactly zero); PGD/DIVA rows typically do not.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Optional, Sequence, Tuple

import numpy as np

from ..nn.graph import GraphUnsupported, compile_step_kernel
from .engine import PairedExecutor

#: rows of the caller's batch used for loop validation (matching the
#: model-compile example discipline)
_VALIDATE_ROWS = 8
#: trip cap for the validation run: enough passes to cover the no-check
#: first pass, the shifted success check and step-cap retirement
#: without paying the caller's full step count twice per compile
_VALIDATE_STEPS = 3

_LOOP_TAG = "attack-loop"

PIXEL_MIN = 0.0
PIXEL_MAX = 1.0


class LoopSpec:
    """An attack's recipe for direct program-level stepping.

    ``programs`` are the compiled forward programs the attack's
    ``gradient_with_logits`` would replay — a sequence, or the attack's
    own :class:`~repro.attacks.engine.PairedExecutor` (whose
    ``lane_steps`` then counts the loop's steps too);
    ``seeds(outs, y, variant)`` maps their logits to one backward seed
    per program; ``aux_of(outs)`` shapes the logits into the payload
    ``_success_mask`` expects.  Driving the programs directly (forwards,
    seeds, summed backwards) is bit-identical to the attack's own
    compiled gradient path — it is the same paired step minus the
    per-step wrapper dispatch.
    """

    __slots__ = ("executor", "seeds", "aux_of")

    def __init__(self, programs,
                 seeds: Callable[[Sequence[np.ndarray], np.ndarray,
                                  Optional[Dict[str, np.ndarray]]],
                                 Sequence[np.ndarray]],
                 aux_of: Callable[[Sequence[np.ndarray]], Any]):
        self.executor = (programs if isinstance(programs, PairedExecutor)
                         else PairedExecutor(programs))
        self.seeds = seeds
        self.aux_of = aux_of

    @property
    def programs(self) -> list:
        return self.executor.programs


class CompiledAttackLoop:
    """The cached whole-loop plan: one validated masked step kernel.

    The gradient programs are *not* pinned here — they stay in the
    attack's plan cache under their own keys (rebuilt/refreshed on
    their own contract) and are re-resolved per run; the loop plan owns
    only the step kernel plus the fact that the loop composition
    validated bit-for-bit against the engine.
    """

    def __init__(self, kernel):
        self.kernel = kernel
        self.runs = 0

    def refresh(self) -> None:
        """No constants to re-fold: the kernel's every array is a
        per-replay input.  Defined so :meth:`PlanCache.refresh` treats
        loop plans uniformly with model programs."""


def _gradient_and_aux(spec: LoopSpec, adv_c: np.ndarray, y_c: np.ndarray,
                      variant) -> Tuple[np.ndarray, Any]:
    """Forwards, seeds and summed backwards over the spec's programs:
    the engine's paired step (:func:`~repro.attacks.engine.lane_step`;
    a single program is the case with nothing on the lane), bit-identical
    to the attack's compiled gradient path."""
    outs, g = spec.executor.value_and_input_grad(
        adv_c, lambda zs: spec.seeds(zs, y_c, variant))
    return g, spec.aux_of(outs)


def _run_loop(attack, spec: LoopSpec, kernel, x, y, adv, eps, alpha, check,
              params, capacity: int, deadline=None,
              steps: Optional[int] = None, fast_forward: bool = True
              ) -> np.ndarray:
    """Replay the recorded loop; mirrors ``run_scheduled_steps`` exactly.

    Active rows live compacted in loop-carried arrays; the kernel's
    ``select`` mask (the continuation mask) does the per-row early exit,
    and compaction happens only when rows retire — the engine's
    slot-refill boundary, preserving its fill → poll → gradient → check
    → step → retire order (and therefore its deadline/fault cadence).
    ``adv`` is advanced in place, including on an exception mid-loop
    (the engine's in-place contract the scheduler's retry ladder reads).
    """
    n_items = len(x)
    steps = attack.steps if steps is None else int(steps)
    chunk = max(1, int(getattr(attack, "loop_chunk", 1)))
    ff = fast_forward and deadline is None
    one = (1,) * (x.ndim - 1)
    trailing = x.shape[1:]

    idx = np.zeros(0, dtype=np.intp)
    adv_c = np.zeros((0,) + trailing, dtype=adv.dtype)
    lo_c = np.zeros((0,) + trailing, dtype=x.dtype)
    hi_c = np.zeros((0,) + trailing, dtype=x.dtype)
    alpha_c = np.zeros((0,) + one, dtype=alpha.dtype)
    y_c = y[:0]
    check_c = np.zeros(0, dtype=bool)
    sd_c = np.zeros(0, dtype=np.intp)
    pv_c = ({k: v[:0] for k, v in params.items()} if params else None)
    next_item = 0
    pass_i = 0

    try:
        while idx.size or next_item < n_items:
            if idx.size < capacity and next_item < n_items:
                stop = min(next_item + (capacity - idx.size), n_items)
                new = np.arange(next_item, stop, dtype=np.intp)
                next_item = stop
                eps_col = eps[new].reshape((-1,) + one)
                idx = np.concatenate([idx, new])
                adv_c = np.concatenate([adv_c, adv[new]])
                # loop-invariant clip bounds: a single max/min clamp
                # against clip(x ± eps, 0, 1) is bit-identical to the
                # engine's two-stage project_linf (clamp composition is
                # a selection among the same candidates, in np.clip's
                # lower-then-upper order; NaN propagates identically)
                lo_c = np.concatenate(
                    [lo_c, np.clip(x[new] - eps_col, PIXEL_MIN, PIXEL_MAX)])
                hi_c = np.concatenate(
                    [hi_c, np.clip(x[new] + eps_col, PIXEL_MIN, PIXEL_MAX)])
                alpha_c = np.concatenate(
                    [alpha_c, alpha[new].reshape((-1,) + one)])
                y_c = np.concatenate([y_c, y[new]])
                check_c = np.concatenate([check_c, check[new]])
                sd_c = np.concatenate(
                    [sd_c, np.zeros(len(new), dtype=np.intp)])
                if pv_c is not None:
                    pv_c = {k: np.concatenate([pv_c[k], params[k][new]])
                            for k in pv_c}

            if deadline is not None and pass_i % chunk == 0:
                exp = np.asarray(deadline.poll(idx), dtype=bool)
                if exp.any():
                    rows = idx[exp]
                    deadline.expire(rows, sd_c[exp])
                    adv[rows] = adv_c[exp]
                    live = ~exp
                    (idx, adv_c, lo_c, hi_c, alpha_c, y_c, check_c,
                     sd_c) = (a[live] for a in
                              (idx, adv_c, lo_c, hi_c, alpha_c, y_c,
                               check_c, sd_c))
                    if pv_c is not None:
                        pv_c = {k: v[live] for k, v in pv_c.items()}
                    if idx.size == 0:
                        continue
            pass_i += 1

            variant = pv_c if pv_c else None
            g, aux = _gradient_and_aux(spec, adv_c, y_c, variant)

            # shifted success check — identical to the engine's
            keep = np.ones(idx.size, dtype=bool)
            elig = (sd_c > 0) & check_c
            if elig.any():
                mask = attack._success_mask(aux, adv_c, y_c)
                if mask is not None:
                    keep = ~(np.asarray(mask, dtype=bool) & elig)

            if keep.any():
                stepped = kernel.replay(adv_c, g, keep.reshape((-1,) + one),
                                        alpha_c, lo_c, hi_c)
                if ff:
                    frozen = keep & (stepped == adv_c).reshape(
                        idx.size, -1).all(axis=1)
                np.copyto(adv_c, stepped)
                sd_c[keep] += 1
                if ff and frozen.any():
                    # P1 fixed point: this pass reproduced the iterate
                    # bit-for-bit, so every remaining pass would too —
                    # the returned bytes cannot change; skip to the cap
                    sd_c[frozen] = steps

            retired = ~keep | (sd_c >= steps)
            if retired.any():
                rows = idx[retired]
                adv[rows] = adv_c[retired]
                live = ~retired
                (idx, adv_c, lo_c, hi_c, alpha_c, y_c, check_c,
                 sd_c) = (a[live] for a in
                          (idx, adv_c, lo_c, hi_c, alpha_c, y_c,
                           check_c, sd_c))
                if pv_c is not None:
                    pv_c = {k: v[live] for k, v in pv_c.items()}
    except BaseException:
        if idx.size and idx.size == len(adv_c):
            adv[idx] = adv_c        # in-flight rows keep their progress
        raise
    return adv


def _validate_loop(attack, spec: LoopSpec, kernel, x, y, adv0, eps, alpha,
                   check, params, capacity: int) -> None:
    """Bit-validate the recorded loop against the step-at-a-time engine.

    Runs both paths on a small slice of the caller's actual batch with a
    reduced trip cap (the loop mechanics — no-check first pass, shifted
    check, masked stepping, cap retirement — are all exercised within
    :data:`_VALIDATE_STEPS` passes; the step kernel itself already
    bit-validated at build).  Mismatch raises :class:`GraphUnsupported`,
    which pins the engine fallback per the contract.
    """
    from .engine import run_scheduled_steps
    rows = min(len(x), _VALIDATE_ROWS)
    vsteps = min(int(attack.steps), _VALIDATE_STEPS)
    sl = slice(0, rows)
    pv = ({k: v[sl].copy() for k, v in params.items()} if params else None)
    ref = adv0[sl].copy()
    got = adv0[sl].copy()
    saved = attack.steps
    attack.steps = vsteps
    try:
        run_scheduled_steps(attack, x[sl], y[sl], ref, eps[sl], alpha[sl],
                            check[sl], pv, capacity)
    finally:
        attack.steps = saved
    _run_loop(attack, spec, kernel, x[sl], y[sl], got, eps[sl], alpha[sl],
              check[sl], pv, capacity, steps=vsteps)
    if not np.array_equal(ref, got):
        raise GraphUnsupported(
            "recorded attack loop does not match the step-at-a-time engine")


def compile_attack_loop(attack, x, y, adv0, eps, alpha, check, params,
                        capacity: int) -> CompiledAttackLoop:
    """Build and bit-validate the whole-loop plan for ``attack``.

    Traces the masked step kernel, then validates the *composition* —
    kernel, direct program stepping, continuation-mask bookkeeping —
    against :func:`~repro.attacks.engine.run_scheduled_steps` on a
    slice of the caller's batch.  Raises :class:`GraphUnsupported` when
    the attack declares no loop spec (overridden gradient/step rules,
    untraceable models) or validation fails; callers treat that as
    "use the engine", never as an error.
    """
    spec = attack._loop_spec(x)
    if spec is None:
        raise GraphUnsupported(
            f"{type(attack).__name__} declares no whole-loop spec")
    kernel = compile_step_kernel(x.shape[1:], x.dtype)
    _validate_loop(attack, spec, kernel, x, y, adv0, eps, alpha, check,
                   params, capacity)
    return CompiledAttackLoop(kernel)


def try_run_loop(attack, x, y, adv, eps, alpha, check, params, capacity: int,
                 deadline=None) -> Optional[np.ndarray]:
    """Route one scheduled batch through the recorded loop, or None.

    None means "the engine must run this one": the attack opted out
    (``use_loop`` / ``use_compiled`` — the scheduler's eager rung forces
    the latter off), declares no loop spec, its programs don't match the
    batch's dtype/shape, the loop plan failed to build (pinned by the
    plan cache, re-probed per its cooldown contract), or a deadline
    arrived before any plan exists — a cold compile under a deadline
    would reorder the engine's poll-before-build fault/clock cadence,
    so the first bounded call takes the engine and warms nothing.
    """
    if not getattr(attack, "use_loop", True) or not attack.use_compiled:
        return None
    spec_fn = getattr(attack, "_loop_spec", None)
    if spec_fn is None:
        return None
    owners = tuple(attack._plan_owners() or ())
    # keyed like the model plans: per attack type and model identity, so
    # shape-twin attacks in a shared session cache never thrash one
    # entry, and each attack type's loop composition validates once
    from ..nn import rowrep
    key = (_LOOP_TAG, type(attack).__qualname__,
           tuple(id(o) for o in owners), x.shape[1:], x.dtype.str,
           rowrep.mode_key())
    if deadline is not None and key not in attack.plan_cache:
        return None
    spec = spec_fn(x)
    if spec is None:
        return None
    trailing = x.shape[1:]
    # programs run in the framework default dtype and cast their inputs
    # (same as the attack's own compiled path); only the trailing shape
    # must match the traced example
    if adv.dtype != x.dtype or any(
            p._trailing != trailing for p in spec.programs):
        return None

    def build():
        try:
            return compile_attack_loop(attack, x, y, adv, eps, alpha, check,
                                       params, capacity)
        except GraphUnsupported:
            return None

    plan = attack.plan_cache.get(key, owners, build, scope=attack)
    if plan is None:
        return None
    plan.runs += 1
    return _run_loop(attack, spec, plan.kernel, x, y, adv, eps, alpha, check,
                     params, capacity, deadline=deadline)
