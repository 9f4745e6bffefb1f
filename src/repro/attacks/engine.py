"""Paired-program attack engine (§5.2 economics, engineered).

Three cooperating pieces turn the attack loop from "one model pass at a
time, one configuration at a time" into a single scheduled computation:

- :class:`PairedExecutor` — compiles the (original, adapted) model pair
  into replayable programs, each owning its
  :class:`~repro.nn.graph.ScratchPool`, and runs one DIVA Eq. 5 step
  over both as a single fused unit (:func:`lane_step`).
  Program 0 replays on the calling thread and the others on one
  module-level lane thread, with two join points: the forwards run
  together and the *one* combined softmax-seeded gradient is computed
  from every logit block once they join; then the backwards run
  together and the input gradients are summed in program order
  (``g0 += g1``).  Each program replays exactly the ops it would
  alone, so the lanes change wall-time, never bytes; numpy releases
  the GIL inside the conv GEMMs and col2im that dominate a step, so a
  second core does real work.

- :func:`run_scheduled` / :func:`run_scheduled_steps` — the active-slot
  scheduler behind ``Attack.generate`` / ``Attack.generate_sweep``.
  Work items (sample, variant) occupy up to ``capacity`` slots; each
  pass runs one gradient batch over the occupied slots, retires items
  that satisfied their success criterion (checked against the logits
  the gradient pass already produced — the shifted keep-best check),
  and refills freed slots with pending items from later batches /
  variants (cross-batch work stealing).  Because every per-sample
  trajectory is independent, the produced iterates are bit-identical to
  the per-batch sequential loop; the trailing success forward the
  sequential loop paid is dropped entirely (it cannot change the
  returned iterate when done samples stop stepping).

- variant tiling — ``Attack.generate_sweep`` maps an (eps, c, ...) grid
  onto per-item parameter vectors so a whole figure's configuration
  sweep shares one compiled program pair and one scheduler pass.
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import ThreadPoolExecutor, wait
from functools import partial
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..nn.graph import compile_forward_or_none

#: variant keys interpreted by the scheduler itself (all attacks)
SCHEDULER_KEYS = frozenset({"eps", "alpha", "keep_best"})

# The lane thread: one worker, created on first use and shared by every
# paired step in the process.  Work on it never submits to it again, so
# callers on several threads only queue on it, never deadlock.
_lane_lock = threading.Lock()
_lane_pool: Optional[ThreadPoolExecutor] = None


def _lane() -> ThreadPoolExecutor:
    global _lane_pool
    with _lane_lock:
        if _lane_pool is None:
            _lane_pool = ThreadPoolExecutor(max_workers=1,
                                            thread_name_prefix="repro-lane")
        return _lane_pool


def _reset_lane() -> None:
    """A forked child inherits the executor but not its thread."""
    global _lane_pool, _lane_lock
    _lane_pool = None
    _lane_lock = threading.Lock()


os.register_at_fork(after_in_child=_reset_lane)


def _on_lanes(calls: Sequence[Callable[[], Any]]) -> List[Any]:
    """Run ``calls[0]`` here and ``calls[1:]``, in order, on the lane
    thread; return every result in call order.

    Both lanes have stopped before anything propagates: an exception
    raised here wins (after the lane finished), and one raised on the
    lane surfaces only after ``calls[0]`` returned.  A single call
    submits nothing.
    """
    if len(calls) == 1:
        return [calls[0]()]
    fut = _lane().submit(lambda: [call() for call in calls[1:]])
    try:
        first = calls[0]()
    finally:
        wait((fut,))
    return [first] + fut.result()


def lane_step(programs: Sequence, x: np.ndarray,
              seeds_fn: Callable[[Sequence[np.ndarray]],
                                 Sequence[np.ndarray]],
              ) -> Tuple[Tuple[np.ndarray, ...], np.ndarray]:
    """One paired step over ``programs``: every logit block plus the
    summed d(loss)/dx.

    Join point 1: the forwards run on both lanes; ``seeds_fn`` sees all
    logit blocks at once.  Join point 2: the backwards run on both
    lanes; the gradients are summed into program 0's in program order.
    Every program owns its scratch pool, so the lanes share no scratch.
    The logits are buffer views valid until each program's next replay;
    the gradient is freshly owned.
    """
    xs = [prog._check_input(x) for prog in programs]
    outs = tuple(_on_lanes([partial(prog._forward, xc)
                            for prog, xc in zip(programs, xs)]))
    seeds = seeds_fn(outs)
    grads = _on_lanes([partial(prog._backward_from_seed, np.asarray(seed), xc)
                       for prog, xc, seed in zip(programs, xs, seeds)])
    gx = grads[0]                            # freshly owned by contract
    for g in grads[1:]:
        np.add(gx, g, out=gx)
    return outs, gx


class PairedExecutor:
    """N compiled programs driven in lockstep over one input batch.

    Built for the two-model DIVA objective (hence the name), but any
    number of frozen models over the same input works.  Each program
    owns its transient scratch, so the programs of one step can replay
    on two lanes at once (:func:`lane_step`).
    ``lane_steps`` counts the steps whose programs ran on two lanes.
    """

    def __init__(self, programs: Sequence):
        self.programs = list(programs)
        self.lane_steps = 0

    @classmethod
    def compile(cls, models: Sequence, example: np.ndarray
                ) -> Optional["PairedExecutor"]:
        """Compile every model against ``example``; None (eager
        fallback) unless all of them compile."""
        programs = []
        for model in models:
            prog = compile_forward_or_none(model, example)
            if prog is None:
                return None
            programs.append(prog)
        return cls(programs)

    def refresh(self) -> None:
        for prog in self.programs:
            prog.refresh()

    def replay(self, x: np.ndarray, copy: bool = True) -> Tuple[np.ndarray, ...]:
        """Forward-only logits for every program (views when ``copy``
        is False, valid until that program's next replay)."""
        return tuple(prog.replay(x, copy=copy) for prog in self.programs)

    def value_and_input_grad(self, x: np.ndarray,
                             seeds_fn: Callable[[Sequence[np.ndarray]],
                                                Sequence[np.ndarray]],
                             ) -> Tuple[Tuple[np.ndarray, ...], np.ndarray]:
        """One fused paired step: all logits plus the summed d(loss)/dx.

        ``seeds_fn`` maps the tuple of logit blocks to one seed per
        program (computed together — DIVA does a single stacked softmax
        for both models).  The returned logits are buffer views valid
        until the next replay; the gradient is freshly owned.
        """
        result = lane_step(self.programs, x, seeds_fn)
        if len(self.programs) > 1:
            self.lane_steps += 1
        return result


def generate_grid(attacks: Dict[str, Any], x: np.ndarray, y: np.ndarray,
                  variants: Optional[Dict[str, Sequence[Dict[str, Any]]]] = None,
                  batch_size: int = 64) -> Dict[str, Any]:
    """Run a named grid of attacks over one attack set.

    The experiment drivers' per-configuration loops collapse into one
    call: every attack runs on the slot scheduler, and entries with
    parameter ``variants`` (``{name: [variant, ...]}``) run as a single
    vectorized sweep sharing that attack's compiled programs.  Returns
    ``{name: adversarial_batch}`` — or a list of per-variant batches for
    swept entries.  Distinct attacks hold distinct model pairs, so they
    cannot share programs with each other; the win across entries is
    scheduling, the win within an entry is the sweep.
    """
    out: Dict[str, Any] = {}
    for name, attack in attacks.items():
        v = (variants or {}).get(name)
        if v is None:
            out[name] = attack.generate(x, y, batch_size=batch_size)
        else:
            out[name] = attack.generate_sweep(x, y, v, batch_size=batch_size)
    return out


def _per_item(value, n: int, dtype) -> np.ndarray:
    """Broadcast a scalar (or per-item array) to an (n,) vector."""
    arr = np.asarray(value, dtype=dtype)
    if arr.ndim == 0:
        return np.full(n, arr, dtype=dtype)
    if arr.shape != (n,):
        raise ValueError(f"per-item parameter has shape {arr.shape}, "
                         f"expected ({n},)")
    return arr


def run_scheduled(attack, x: np.ndarray, y: np.ndarray, adv: np.ndarray,
                  eps: np.ndarray, alpha: np.ndarray, check: np.ndarray,
                  params: Optional[Dict[str, np.ndarray]],
                  capacity: int,
                  snaps: Optional[np.ndarray] = None,
                  deadline=None) -> np.ndarray:
    """The scheduled attack loop: forwards to :func:`run_scheduled_steps`.

    Kept as its own function because ``perfbench/layers.py`` probes this
    name and counts calls at every module that binds it; it goes when a
    benchmark change drops that probe.
    """
    return run_scheduled_steps(attack, x, y, adv, eps, alpha, check, params,
                               capacity, snaps=snaps, deadline=deadline)


def run_scheduled_steps(attack, x: np.ndarray, y: np.ndarray, adv: np.ndarray,
                        eps: np.ndarray, alpha: np.ndarray, check: np.ndarray,
                        params: Optional[Dict[str, np.ndarray]],
                        capacity: int,
                        snaps: Optional[np.ndarray] = None,
                        deadline=None) -> np.ndarray:
    """Active-slot keep-best loop with cross-batch work stealing.

    ``adv`` holds the initialized iterates and is advanced in place;
    items enter slots in order, step until their criterion fires (only
    where ``check`` is set) or ``attack.steps`` is exhausted, and their
    freed slot is refilled from the pending tail.  ``snaps[t, i]`` — when
    requested — receives item ``i``'s iterate after ``t + 1`` steps,
    frozen at the success iterate once done (the AttackTrace contract).

    Per-sample trajectories depend only on that sample's own gradients,
    so outputs are bit-identical to running each item in its own
    sequential batch — scheduling only changes wall-time.

    ``deadline`` — a :class:`~repro.serve.resilience.DeadlineToken` (or
    anything with its ``poll``/``expire`` surface) — is checked once per
    pass, *before* the next gradient is paid: rows whose deadline has
    passed retire immediately with their current best-so-far iterate and
    are recorded on the token.  Rows that already retired normally are
    never polled, so a completed row can never be marked expired.
    """
    n_items = len(x)
    steps = attack.steps
    steps_done = np.zeros(n_items, dtype=np.intp)
    active: List[int] = []
    next_item = 0

    while active or next_item < n_items:
        while len(active) < capacity and next_item < n_items:
            active.append(next_item)
            next_item += 1
        act = np.asarray(active, dtype=np.intp)
        if deadline is not None:
            exp = np.asarray(deadline.poll(act), dtype=bool)
            if exp.any():
                rows = act[exp]
                deadline.expire(rows, steps_done[rows])
                if snaps is not None:
                    for i in rows:
                        snaps[steps_done[i]:, i] = adv[i]
                active = [i for i, e in zip(active, exp) if not e]
                if not active:
                    continue
                act = act[~exp]
        variant = ({k: v[act] for k, v in params.items()}
                   if params else None)
        g, aux = attack.gradient_with_logits(adv[act], y[act], variant)

        # shifted success check: the logits of this pass describe the
        # current iterates, which earlier passes produced
        keep = np.ones(len(act), dtype=bool)
        elig = (steps_done[act] > 0) & check[act]
        if elig.any():
            mask = attack._success_mask(aux, adv[act], y[act])
            if mask is not None:
                keep = ~(np.asarray(mask, dtype=bool) & elig)

        kact = act[keep]
        if kact.size:
            adv[kact] = attack._step(adv[kact], x[kact], g[keep],
                                     eps=eps[kact], alpha=alpha[kact])
            steps_done[kact] += 1
            if snaps is not None:
                snaps[steps_done[kact] - 1, kact] = adv[kact]

        retired = ~keep | (steps_done[act] >= steps)
        if retired.any():
            if snaps is not None:
                for i in act[retired]:
                    snaps[steps_done[i]:, i] = adv[i]
            active = [i for i, r in zip(active, retired) if not r]
    return adv
