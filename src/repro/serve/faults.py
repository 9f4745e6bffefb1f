"""Deterministic, seeded fault injection for the serving control plane.

Chaos testing the resilience layer needs faults that are *named* (so a
test can say "plan validation corrupts on rebuild"), *seeded* (so a CI
failure replays bit-for-bit from ``REPRO_FAULT_SEED``) and *free of
wall-clock time* (latency faults advance a
:class:`~repro.serve.resilience.ManualClock` instead of sleeping).

Production code is instrumented with a handful of **named injection
points** — a single ``faults.fire(point)`` / ``faults.corrupt(point,
arr)`` call that is a no-op unless an injector is installed:

======================  ================================================
``attack.plan.build``   :meth:`Attack._executor
                        <repro.attacks.base.Attack._executor>`, before
                        compiling a model's program — an error fault is
                        a failed plan build.
``edge.plan.build``     :class:`~repro.edge.program.EdgeProgram`
                        construction — an error fault aborts lowering
                        (caught by the loud eager-fallback path).
``edge.plan.validate``  the compiled-vs-eager bit comparison — a
                        corruption fault flips one element of the
                        compiled output, so validation *must* catch it;
                        an error fault aborts validation outright.
``edge.dispatch``       :meth:`EdgeProgram.run` — an error fault is a
                        kernel failure at dispatch time.
``dispatch.attack``     scheduler attack dispatch (compiled rungs only).
``dispatch.predict``    scheduler inference dispatch (compiled rungs
                        only).
``dispatch.predict_float``
                        scheduler float-inference dispatch (compiled
                        rungs only) — an error fault quarantines the
                        coalesced float key and walks members down the
                        ladder.
``attack.step``         between compiled attack steps (fired by
                        :meth:`DeadlineToken.poll <repro.serve.
                        resilience.DeadlineToken.poll>`) — latency
                        faults burn deadline budget mid-attack.
``queue.tick``          once per scheduler dispatch round — latency
                        faults model queueing delay.
``net.client.send``     every request frame the networked client puts
                        on the wire (:mod:`repro.serve.net`) — frame
                        faults (``drop`` / ``duplicate`` /
                        ``truncate``) and latency apply here.
``net.client.recv``     every response frame the client takes off the
                        wire — same frame-fault menu, modelling lost,
                        repeated and cut-off replies.
======================  ================================================

The three **frame-fault kinds** act on whole frames at the network
boundary instead of raising: ``drop`` deletes the frame (the peer never
sees it — the retry/timeout path must recover), ``duplicate`` delivers
it twice (the idempotency window must dedup), and ``truncate`` cuts it
mid-byte and kills the connection (the CRC-checked framing must refuse
the prefix and the client must reconnect).  They are consulted through
:func:`frame` rather than :func:`fire`, and compose deterministically
in spec order.

Corruption faults are deliberately only injectable *upstream of a
validator* (plan validation): the serving layer's defence against
silent corruption **is** bit-validation, so the harness corrupts where
a validator must catch it and never where nothing could.  Likewise the
eager rung of the degradation ladder is never instrumented — it is the
reference implementation the ladder degrades *to*, which is what lets
the chaos suite assert that every completed job is still bit-identical
to a solo eager run.

Doctest — deterministic, seeded, clock-driven::

    >>> from .resilience import ManualClock
    >>> clock = ManualClock()
    >>> inj = FaultInjector([FaultSpec("queue.tick", "latency", rate=1.0,
    ...                                delay_s=0.25)], seed=7, clock=clock)
    >>> with inject(inj):
    ...     fire("queue.tick")
    ...     fire("queue.tick")
    >>> clock.now()
    0.5
    >>> inj.fired("queue.tick", "latency")
    2
    >>> fire("queue.tick")        # no injector installed: no-op
    >>> clock.now()
    0.5
"""

from __future__ import annotations

import threading
import zlib
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from .resilience import ManualClock, ServeError

#: every fault kind the injector understands; the last three are
#: frame faults, meaningful only at ``net.*`` points (see :func:`frame`)
KINDS = ("error", "latency", "corrupt", "drop", "duplicate", "truncate")


class InjectedFault(ServeError):
    """An error fault fired at a named injection point."""

    def __init__(self, point: str):
        super().__init__(f"injected fault at {point!r}")
        self.point = point


@dataclass
class FaultSpec:
    """One fault stream: where, what, how often.

    ``rate`` is the per-probe fire probability (1.0 = every probe);
    ``max_fires`` bounds total fires so a spec can model a *transient*
    fault that heals (None = unbounded); ``delay_s`` is the clock
    advance per latency fire.
    """

    point: str
    kind: str
    rate: float = 1.0
    max_fires: Optional[int] = None
    delay_s: float = 0.05

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown fault kind {self.kind!r}; "
                             f"expected one of {KINDS}")
        if not (0.0 <= self.rate <= 1.0):
            raise ValueError("rate must be in [0, 1]")
        if self.delay_s < 0:
            raise ValueError("delay_s must be >= 0")


class _Stream:
    """Runtime state of one spec: its own RNG stream and fire budget."""

    def __init__(self, spec: FaultSpec, seed: int, index: int):
        self.spec = spec
        # one independent, reconstructible stream per (seed, point, slot)
        self.rng = np.random.default_rng(
            [seed, zlib.crc32(spec.point.encode()), index])
        self.fires = 0
        self.probes = 0

    def draw(self) -> bool:
        self.probes += 1
        if (self.spec.max_fires is not None
                and self.fires >= self.spec.max_fires):
            return False
        if self.spec.rate < 1.0 and self.rng.random() >= self.spec.rate:
            return False
        self.fires += 1
        return True


class FaultInjector:
    """Seeded fault plan over the named injection points.

    Every spec owns an independent RNG stream keyed by (seed, point,
    slot), so adding or removing one spec never perturbs another's
    draw sequence — the property that makes "same seed, same chaos"
    hold as fault plans evolve.
    """

    def __init__(self, specs: Sequence[FaultSpec], seed: int = 0,
                 clock: Optional[ManualClock] = None):
        self.seed = int(seed)
        self.clock = clock
        self._streams: Dict[str, List[_Stream]] = {}
        for i, spec in enumerate(specs):
            self._streams.setdefault(spec.point, []).append(
                _Stream(spec, self.seed, i))
        self.log: List[Dict[str, Any]] = []
        self._log_lock = threading.Lock()

    def _log_event(self, rec: Dict[str, Any]) -> None:
        with self._log_lock:
            self.log.append(rec)

    # -- the two hooks --------------------------------------------------- #
    def fire(self, point: str) -> None:
        """Probe ``point``: latency faults advance the clock, then an
        error fault (if drawn) raises :class:`InjectedFault`."""
        err = False
        for stream in self._streams.get(point, ()):
            kind = stream.spec.kind
            if kind == "corrupt" or not stream.draw():
                continue
            if kind == "latency":
                if self.clock is not None:
                    self.clock.advance(stream.spec.delay_s)
                self._log_event({"point": point, "kind": "latency",
                                 "delay_s": stream.spec.delay_s})
            else:
                self._log_event({"point": point, "kind": "error"})
                err = True
        if err:
            raise InjectedFault(point)

    def frame(self, point: str, payload: bytes
              ) -> List[Tuple[str, bytes]]:
        """Probe ``point`` with one wire frame; returns the delivery
        plan as ``(action, bytes)`` pairs.

        The default plan is ``[("deliver", payload)]``.  Fired frame
        faults rewrite it in spec order: ``drop`` empties it,
        ``duplicate`` doubles it, ``truncate`` replaces it with a
        single ``("truncate", prefix)`` — the transport must send only
        the prefix and then sever the connection, which is what makes
        truncation indistinguishable from a real mid-frame connection
        loss.  Latency specs at the same point advance the clock, as
        with :meth:`fire`.  Composition is deterministic because every
        stream draws from its own seeded RNG.
        """
        plan: List[Tuple[str, bytes]] = [("deliver", payload)]
        for stream in self._streams.get(point, ()):
            kind = stream.spec.kind
            if kind not in ("drop", "duplicate", "truncate", "latency"):
                continue
            if not stream.draw():
                continue
            if kind == "latency":
                if self.clock is not None:
                    self.clock.advance(stream.spec.delay_s)
                self._log_event({"point": point, "kind": "latency",
                                 "delay_s": stream.spec.delay_s})
            elif kind == "drop":
                plan = []
                self._log_event({"point": point, "kind": "drop"})
            elif kind == "duplicate":
                plan = plan + plan
                self._log_event({"point": point, "kind": "duplicate"})
            else:   # truncate: cut the frame and sever the stream there
                cut = int(stream.rng.integers(1, max(len(payload), 2)))
                plan = [("truncate", payload[:cut])]
                self._log_event({"point": point, "kind": "truncate",
                                 "cut": cut})
        return plan

    def corrupt(self, point: str, arr: np.ndarray) -> bool:
        """Probe ``point`` with a corruption target: flips one element
        of ``arr`` in place when the fault fires.  Returns whether it
        did (tests assert the downstream validator caught it)."""
        hit = False
        for stream in self._streams.get(point, ()):
            if stream.spec.kind != "corrupt" or not stream.draw():
                continue
            flat = arr.reshape(-1)
            idx = int(stream.rng.integers(flat.size))
            flat[idx] += np.asarray(1, dtype=arr.dtype)
            self._log_event({"point": point, "kind": "corrupt",
                             "index": idx})
            hit = True
        return hit

    # -- accounting ------------------------------------------------------ #
    def fired(self, point: Optional[str] = None,
              kind: Optional[str] = None) -> int:
        return sum(1 for rec in self.log
                   if (point is None or rec["point"] == point)
                   and (kind is None or rec["kind"] == kind))

    @property
    def stats(self) -> Dict[str, Dict[str, int]]:
        """``{point: {kind: fires}}`` over everything fired so far."""
        out: Dict[str, Dict[str, int]] = {}
        for rec in self.log:
            by_kind = out.setdefault(rec["point"], {})
            by_kind[rec["kind"]] = by_kind.get(rec["kind"], 0) + 1
        return out


# --------------------------------------------------------------------- #
# module-level installation (what the instrumented code calls)
# --------------------------------------------------------------------- #

_ACTIVE: Optional[FaultInjector] = None


def active() -> Optional[FaultInjector]:
    return _ACTIVE


@contextmanager
def inject(injector: FaultInjector):
    """Install ``injector`` for the duration of the block (no nesting —
    the previous injector, if any, is restored on exit)."""
    global _ACTIVE
    previous = _ACTIVE
    _ACTIVE = injector
    try:
        yield injector
    finally:
        _ACTIVE = previous


def fire(point: str) -> None:
    """Production-side hook: no-op unless an injector is installed."""
    if _ACTIVE is not None:
        _ACTIVE.fire(point)


def corrupt(point: str, arr: np.ndarray) -> bool:
    if _ACTIVE is not None:
        return _ACTIVE.corrupt(point, arr)
    return False


def frame(point: str, payload: bytes) -> List[Tuple[str, bytes]]:
    """Production-side frame hook: delivered unchanged unless an
    injector is installed (the networked client consults this on every
    frame it sends or receives)."""
    if _ACTIVE is not None:
        return _ACTIVE.frame(point, payload)
    return [("deliver", payload)]


def default_chaos_specs(deadline_pressure: bool = True) -> List[FaultSpec]:
    """The stock chaos plan: every fault class at every point family.

    Error faults are transient (bounded fires) so the cool-down
    re-probe story is exercised end to end; latency faults are
    unbounded and, with ``deadline_pressure``, aggressive enough to
    expire realistic per-job deadlines mid-attack.
    """
    specs = [
        FaultSpec("attack.plan.build", "error", rate=0.5, max_fires=2),
        FaultSpec("edge.plan.build", "error", rate=0.5, max_fires=1),
        FaultSpec("edge.plan.validate", "corrupt", rate=0.5, max_fires=2),
        FaultSpec("edge.dispatch", "error", rate=0.3, max_fires=1),
        FaultSpec("dispatch.attack", "error", rate=0.25, max_fires=2),
        FaultSpec("dispatch.predict", "error", rate=0.25, max_fires=1),
        FaultSpec("dispatch.predict_float", "error", rate=0.25, max_fires=1),
        FaultSpec("queue.tick", "latency", rate=1.0, delay_s=0.02),
    ]
    if deadline_pressure:
        specs.append(FaultSpec("attack.step", "latency", rate=0.5,
                               delay_s=0.05))
    return specs


def default_net_chaos_specs() -> List[FaultSpec]:
    """The stock *network* chaos plan: every frame-fault kind on both
    directions of the wire, plus send-side latency.

    Fire budgets are bounded so a finite retry policy always converges:
    the client's ``max_retries`` must only outlast the worst per-key
    burst, not an unbounded fault stream.  Use alongside
    :func:`default_chaos_specs` to chaos both the wire and the control
    plane at once.
    """
    return [
        FaultSpec("net.client.send", "drop", rate=0.2, max_fires=3),
        FaultSpec("net.client.send", "duplicate", rate=0.2, max_fires=3),
        FaultSpec("net.client.send", "truncate", rate=0.1, max_fires=2),
        FaultSpec("net.client.send", "latency", rate=0.3, delay_s=0.02),
        FaultSpec("net.client.recv", "drop", rate=0.15, max_fires=2),
        FaultSpec("net.client.recv", "duplicate", rate=0.15, max_fires=2),
        FaultSpec("net.client.recv", "truncate", rate=0.1, max_fires=1),
    ]
