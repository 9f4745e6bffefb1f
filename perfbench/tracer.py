"""Span tracer installed from outside the program.

The benchmark never edits the library.  It wraps each layer's public
entry points at their lookup sites instead: a module-level function is
replaced in every loaded ``repro`` module that holds it (``run_scheduled``
is bound by name in ``attacks/base.py``, ``attacks/fgsm.py`` and
``serve/scheduler.py``), a method is replaced on its class, and a module
reference such as ``serve/session.py``'s ``gc`` is swapped for a proxy.
:meth:`Tracer.uninstall` restores every original object, so identity
checks in the library (``type(self).f is not DIVA.f``) hold in both
states.

Spans are ``[name, start, end, parent, round]`` lists kept in memory:
``parent`` is the index of the enclosing open span (-1 at the root) and
``round`` the tag the run loop set when the span opened (``-1`` for the
traced set-up, a round number inside the timed loop, None elsewhere).
Counters are keyed by ``(name, round)`` the same way.
"""

from __future__ import annotations

import gc
import gzip
import importlib
import json
import sys
import time
import weakref
from collections import defaultdict
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

from . import stats

SETUP = -1


@dataclass(frozen=True)
class Probe:
    """One entry point to wrap.

    ``kind`` says how the lookup sites are found: ``fn`` (every loaded
    ``repro`` module attribute bound to the function), ``site`` (one
    module attribute only), ``method`` (one class attribute) or
    ``subclasses`` (the attribute on a class and on every loaded
    subclass that defines its own).  ``make(tracer, original)`` builds
    the replacement.
    """

    kind: str
    module: str
    attr: str
    make: Callable[["Tracer", Any], Any]
    cls: Optional[str] = None


class Tracer:
    def __init__(self, probes: Iterable[Probe]):
        self.probes = list(probes)
        self.spans: List[list] = []
        self.stack: List[int] = []
        self.names: List[str] = []
        self.counts: Dict[Tuple[str, Any], int] = defaultdict(int)
        self.gc_events: List[Tuple[float, float, Any]] = []
        self.caches: "weakref.WeakSet" = weakref.WeakSet()
        self.round: Any = None
        self._depth: Dict[str, int] = defaultdict(int)
        self._patches: List[Tuple[Any, str, Any, bool]] = []
        self._gc_start: Optional[float] = None

    # -- wrappers -------------------------------------------------------- #
    def wrap(self, fn: Callable, name: str, skip_under: Tuple[str, ...] = ()
             ) -> Callable:
        """``fn`` recording one span per call (none while a span named in
        ``skip_under`` is open)."""
        spans, stack, names = self.spans, self.stack, self.names
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if skip_under:
                for open_name in names:
                    if open_name in skip_under:
                        return fn(*args, **kwargs)
            rec = [name, clock(), 0.0, stack[-1] if stack else -1, self.round]
            stack.append(len(spans))
            names.append(name)
            spans.append(rec)
            try:
                return fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
                names.pop()

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced

    def counter(self, fn: Callable, name: str, outermost: bool = False,
                when: Optional[Callable[[Any], bool]] = None,
                skip_under: Tuple[str, ...] = ()) -> Callable:
        """``fn`` bumping counter ``name`` per call: only the outermost
        of re-entrant calls with ``outermost``, only when ``when(result)``
        holds if given, never while a ``skip_under`` span is open."""
        counts, names, depth = self.counts, self.names, self._depth

        def counted(*args, **kwargs):
            if skip_under and any(n in skip_under for n in names):
                return fn(*args, **kwargs)
            depth[name] += 1
            try:
                result = fn(*args, **kwargs)
            finally:
                depth[name] -= 1
            if (not outermost or depth[name] == 0) and (
                    when is None or when(result)):
                counts[(name, self.round)] += 1
            return result

        counted.__wrapped__ = fn
        counted.__name__ = getattr(fn, "__name__", name)
        counted.__doc__ = getattr(fn, "__doc__", None)
        return counted

    def count(self, name: str) -> None:
        self.counts[(name, self.round)] += 1

    # -- install / uninstall -------------------------------------------- #
    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        for probe in self.probes:
            for owner, attr, original, owned in _sites(probe):
                self._patches.append((owner, attr, original, owned))
                setattr(owner, attr, probe.make(self, original))
        gc.callbacks.append(self._on_gc)

    def uninstall(self) -> None:
        for owner, attr, original, owned in reversed(self._patches):
            if owned:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)
        self._patches.clear()
        if self._on_gc in gc.callbacks:
            gc.callbacks.remove(self._on_gc)

    def _on_gc(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._gc_start = time.perf_counter()
        elif self._gc_start is not None:
            self.gc_events.append((self._gc_start, time.perf_counter(),
                                   self.round))
            self._gc_start = None

    # -- results --------------------------------------------------------- #
    def table(self, rounds: Iterable[Any]) -> Dict[str, Dict[str, float]]:
        """Per span name: calls, inclusive ms and self ms over the spans
        opened in ``rounds``."""
        want = set(rounds)
        selfs = stats.self_times(self.spans)
        out: Dict[str, Dict[str, float]] = {}
        for s, self_s in zip(self.spans, selfs):
            if s[4] not in want:
                continue
            row = out.setdefault(s[0], {"calls": 0, "total_ms": 0.0,
                                        "self_ms": 0.0})
            row["calls"] += 1
            row["total_ms"] += (s[2] - s[1]) * 1e3
            row["self_ms"] += self_s * 1e3
        return out

    def root_ms(self, rounds: Iterable[Any]) -> float:
        """Inclusive ms of the outermost spans opened in ``rounds``."""
        want = set(rounds)
        return sum((s[2] - s[1]) * 1e3 for s in self.spans
                   if s[3] == -1 and s[4] in want)

    def counted(self, name: str, rounds: Iterable[Any]) -> int:
        want = set(rounds)
        return sum(v for (n, r), v in self.counts.items()
                   if n == name and r in want)

    def gc_ms(self, rounds: Iterable[Any]) -> float:
        want = set(rounds)
        return sum((b - a) * 1e3 for a, b, r in self.gc_events if r in want)

    def dump(self, path: str) -> None:
        """Write every span as one JSON list per line (gzip)."""
        with gzip.open(path, "wt") as fh:
            for s in self.spans:
                fh.write(json.dumps(s))
                fh.write("\n")


def _sites(probe: Probe) -> List[Tuple[Any, str, Any, bool]]:
    """(owner, attribute, original, owner defined it itself) for every
    lookup site of ``probe``."""
    module = importlib.import_module(probe.module)
    if probe.kind == "site":
        return [(module, probe.attr, getattr(module, probe.attr), True)]
    if probe.kind == "fn":
        fn = getattr(module, probe.attr)
        found = []
        for mod in list(sys.modules.values()):
            name = getattr(mod, "__name__", "")
            if not (name == "repro" or name.startswith("repro.")):
                continue
            for key, val in list(vars(mod).items()):
                if val is fn:
                    found.append((mod, key, fn, True))
        return found
    cls = getattr(module, probe.cls)
    if probe.kind == "method":
        owned = probe.attr in cls.__dict__
        return [(cls, probe.attr, getattr(cls, probe.attr), owned)]
    if probe.kind == "subclasses":
        found, todo = [], [cls]
        while todo:
            c = todo.pop()
            todo.extend(c.__subclasses__())
            if probe.attr in c.__dict__:
                found.append((c, probe.attr, c.__dict__[probe.attr], True))
        return found
    raise ValueError(f"unknown probe kind {probe.kind!r}")
