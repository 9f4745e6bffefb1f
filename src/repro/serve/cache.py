"""Budgeted LRU cache over compiled plans — the serving layer's shared
program store.

Before this module, every compiled-executor leg grew its own ad-hoc
per-(model, shape, dtype) cache: ``Attack._exec_cache`` (a plain dict of
``CompiledForward`` / ``PairedExecutor`` entries), ``EdgeModel._programs``
(a never-evicting dict of :class:`~repro.edge.program.EdgeProgram`
plans), and :func:`repro.training.evaluate.predict_logits` recompiling a
fresh replay on every large evaluation.  A multi-tenant server cannot
afford N independent unbounded caches: compiled plans pin preallocated
activation and scratch buffers, so their footprint is real memory, and
the set of (model, shape) pairs in flight is open-ended once many users
drive many model variants (the EI-MTD moving-target setting).

:class:`PlanCache` is the one home for all of them:

- **keyed plans with pinned owners** — every entry holds a strong
  reference to the model object(s) it was compiled from and is only a
  hit while those references are identity-equal, preserving the PR 2
  id-reuse fix (a garbage-collected model's ``id()`` may be recycled;
  a pinned owner cannot be collected, and a rebound owner misses);
- **an explicit memory budget** — entry sizes are estimated by walking
  the plan for numpy buffers (:func:`plan_nbytes`); inserting past the
  budget evicts least-recently-used entries.  Evicted plans are simply
  rebuilt on the next request, and every rebuild re-runs the leg's own
  compile-time bit-validation, so eviction can never change results —
  only warm-up cost;
- **failure pinning with cool-down re-probe** — a builder returning
  ``None`` (the shared "fall back to eager" contract) is cached too, so
  an uncompilable (model, shape) pays the failed compile once, not per
  request.  With ``failure_cooldown_s`` set, a pinned failure expires
  after the cool-down and the next request re-runs the builder — a
  *transient* compile fault (an OOM spike, an injected chaos fault)
  heals instead of pinning eager forever.

The cache is deliberately single-threaded, like the scheduler that
drives it, and makes no attempt to share eviction pressure across
processes.

Doctest — the full lifecycle on toy plans::

    >>> import numpy as np
    >>> cache = PlanCache(budget_bytes=3500)
    >>> class Plan:
    ...     def __init__(self, tag):
    ...         self.buf = np.zeros(128, dtype=np.float64)   # 1024 B
    ...         self.tag = tag
    >>> owner = object()
    >>> a = cache.get("a", (owner,), lambda: Plan("a"))
    >>> cache.get("a", (owner,), lambda: Plan("never built")) is a
    True
    >>> _ = cache.get("b", (owner,), lambda: Plan("b"))
    >>> _ = cache.get("c", (owner,), lambda: Plan("c"))
    >>> _ = cache.get("d", (owner,), lambda: Plan("d"))   # evicts LRU ("a")
    >>> "a" in cache, "d" in cache, cache.stats["evictions"]
    (False, True, 1)
    >>> rebuilt = cache.get("a", (owner,), lambda: Plan("a2"))  # rebuild
    >>> rebuilt.tag
    'a2'
    >>> cache.stats["hits"], cache.stats["misses"]
    (1, 5)
"""

from __future__ import annotations

import weakref
from collections import OrderedDict
from typing import (Any, Callable, Dict, Iterator, Optional, Sequence,
                    Tuple)

import numpy as np

from .resilience import Clock

#: traversal guard for :func:`plan_nbytes` — compiled plans are shallow
#: (steps -> buffers), so a tight depth keeps the walk cheap and safe
_MAX_WALK_DEPTH = 6

#: accounting charge for a pinned-failure entry (plan is None): small
#: but non-zero so a flood of uncompilable shapes still ages out
_FAILURE_NBYTES = 256

#: cap on remembered evicted keys (rebuild-stat bookkeeping only)
_EVICTED_KEYS_MAX = 4096


def plan_nbytes(plan: Any) -> int:
    """Estimated resident bytes of a compiled plan.

    Walks the object's attributes, sequences and dict values collecting
    numpy arrays, summing each distinct backing allocation once (views
    are charged to their base, so a pool slice does not double-count its
    slab).  Buffers drawn from a :class:`~repro.nn.graph.ScratchPool`
    shared with *other* plans are charged to every plan that references
    them — the estimate is deliberately conservative for eviction
    purposes, not an exact accounting.

    >>> import numpy as np
    >>> class P:
    ...     def __init__(self):
    ...         base = np.zeros((4, 256), dtype=np.float32)  # 4096 B
    ...         self.view = base[:2]         # charged via its base
    ...         self.parts = [base, np.zeros(2, dtype=np.int64)]
    >>> plan_nbytes(P())
    4112
    """
    if plan is None:
        return _FAILURE_NBYTES
    seen_objs = set()
    bases: Dict[int, int] = {}

    def visit(obj, depth):
        if depth > _MAX_WALK_DEPTH or obj is None:
            return
        oid = id(obj)
        if oid in seen_objs:
            return
        seen_objs.add(oid)
        if isinstance(obj, PlanCache):
            # owners may hold the very cache charging them (EdgeModel's
            # plan_cache): walking into it would charge every resident
            # plan to every new entry, compounding quadratically
            return
        if isinstance(obj, np.ndarray):
            base = obj
            while isinstance(base.base, np.ndarray):
                base = base.base
            bases[id(base)] = base.nbytes
            return
        if isinstance(obj, (str, bytes, int, float, complex, bool)):
            return
        if isinstance(obj, dict):
            for v in obj.values():
                visit(v, depth + 1)
            return
        if isinstance(obj, (list, tuple, set, frozenset)):
            for v in obj:
                visit(v, depth + 1)
            return
        for slot in getattr(type(obj), "__slots__", ()):
            visit(getattr(obj, slot, None), depth + 1)
        d = getattr(obj, "__dict__", None)
        if d:
            for v in d.values():
                visit(v, depth + 1)

    visit(plan, 0)
    return sum(bases.values())


class _Entry:
    """One cached plan.  ``owners`` are strong references on purpose
    (they make the ids in the key stable for the entry's lifetime);
    ``scope`` is a *weak* reference — a scope tag holding its own cache
    entries strongly would form uncollectable-by-refcount cycles
    (attack -> cache -> entry -> attack), and a long-lived serving
    process churning sessions would accumulate dead programs until the
    generational GC got around to them."""

    __slots__ = ("owners", "plan", "nbytes", "_scope", "failed_at")

    def __init__(self, owners: Tuple, plan: Any, nbytes: int, scope: Any,
                 failed_at: Optional[float] = None):
        self.owners = owners
        self.plan = plan
        self.nbytes = nbytes
        self._scope = None if scope is None else weakref.ref(scope)
        # when the plan is a pinned failure (None), the clock reading at
        # pin time — drives the cool-down re-probe
        self.failed_at = failed_at

    def scope_is(self, scope: Any) -> bool:
        return self._scope is not None and self._scope() is scope


class PlanCache:
    """LRU cache of compiled plans with pinned owners and a byte budget.

    Parameters
    ----------
    budget_bytes:
        Soft ceiling on the summed :func:`plan_nbytes` of resident
        entries (each entry is charged for its plan *and* the owner
        objects it pins); None (the default) never evicts, matching the
        historic per-attack / per-edge-model dict behaviour.  The most
        recently inserted entry is never evicted, so a single plan
        larger than the whole budget still serves (everything else
        goes).
    failure_cooldown_s:
        How long a pinned failure (builder returned None) stays pinned
        before the next request re-runs the builder; None (the default)
        pins failures for the cache's lifetime, the historic behaviour.
    clock:
        Monotonic time source for the cool-down; injectable so chaos
        tests drive re-probes with a
        :class:`~repro.serve.resilience.ManualClock`.
    """

    def __init__(self, budget_bytes: Optional[int] = None,
                 failure_cooldown_s: Optional[float] = None,
                 clock: Optional[Clock] = None):
        if budget_bytes is not None and budget_bytes <= 0:
            raise ValueError("budget_bytes must be positive or None")
        self.budget_bytes = budget_bytes
        self.failure_cooldown_s = failure_cooldown_s
        self.clock = clock if clock is not None else Clock()
        self._entries: "OrderedDict[Any, _Entry]" = OrderedDict()
        # evicted keys awaiting a possible rebuild, kept only so a miss
        # can be classified as a rebuild in the stats; bounded (oldest
        # dropped) so an open-ended key stream cannot leak through a
        # bookkeeping side-channel the byte budget cannot see
        self._evicted_keys: "OrderedDict[Any, None]" = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.rebuilds = 0
        self.reprobes = 0

    # -- core ----------------------------------------------------------- #
    def get(self, key, owners: Tuple, build: Callable[[], Any],
            scope: Any = None) -> Any:
        """The one lookup path: cached plan, or build-insert-and-return.

        ``owners`` are identity-checked against the entry (a recycled
        ``id()`` in ``key`` therefore cannot alias a dead model's plan);
        ``build`` runs on miss and may return None to pin an eager
        fallback for this key.  ``scope`` tags the entry for scoped
        iteration/refresh (e.g. one attack instance inside a shared
        session cache).
        """
        entry = self._entries.get(key)
        if entry is not None:
            if (len(entry.owners) == len(owners)
                    and all(a is b for a, b in zip(entry.owners, owners))):
                if (entry.plan is None
                        and self.failure_cooldown_s is not None
                        and entry.failed_at is not None
                        and (self.clock.now() - entry.failed_at
                             >= self.failure_cooldown_s)):
                    # pinned failure past its cool-down: drop it and
                    # give the builder another chance
                    del self._entries[key]
                    self.reprobes += 1
                else:
                    self.hits += 1
                    self._entries.move_to_end(key)
                    return entry.plan
            else:
                # stale entry under a recycled/rebound key: rebuild
                del self._entries[key]
        self.misses += 1
        if key in self._evicted_keys:
            self.rebuilds += 1
            del self._evicted_keys[key]
        plan = build()
        # entries pin their owners, so an owner's arrays are resident
        # for exactly as long as the entry is: charge them to the
        # budget too (double-charged when several entries pin one
        # owner — conservative, i.e. errs toward evicting)
        nbytes = plan_nbytes(plan) + sum(plan_nbytes(o) for o in owners)
        failed_at = self.clock.now() if plan is None else None
        self._insert(key, _Entry(tuple(owners), plan, nbytes, scope,
                                 failed_at=failed_at))
        return plan

    def _insert(self, key, entry: _Entry) -> None:
        self._entries[key] = entry
        self._entries.move_to_end(key)
        if self.budget_bytes is None:
            return
        while (self.total_bytes() > self.budget_bytes
               and len(self._entries) > 1):
            victim = next(iter(self._entries))
            if victim == key:        # never evict the entry just inserted
                break
            del self._entries[victim]
            self.evictions += 1
            self._evicted_keys[victim] = None
            self._evicted_keys.move_to_end(victim)
            while len(self._evicted_keys) > _EVICTED_KEYS_MAX:
                self._evicted_keys.popitem(last=False)

    # -- introspection -------------------------------------------------- #
    def total_bytes(self) -> int:
        return sum(e.nbytes for e in self._entries.values())

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key) -> bool:
        return key in self._entries

    @property
    def stats(self) -> Dict[str, int]:
        return {"hits": self.hits, "misses": self.misses,
                "evictions": self.evictions, "rebuilds": self.rebuilds,
                "reprobes": self.reprobes,
                "entries": len(self._entries),
                "resident_bytes": self.total_bytes()}

    def items(self, scope: Any = None) -> Iterator[Tuple[Any, _Entry]]:
        """(key, entry) pairs, optionally restricted to one scope tag."""
        for key, entry in list(self._entries.items()):
            if scope is None or entry.scope_is(scope):
                yield key, entry

    def refresh(self, owners: Optional[Sequence] = None) -> None:
        """Re-fold constants on cached plans with a ``refresh`` method.

        The parameters a plan snapshot may have been mutated since it
        was built (optimizer steps between ``generate`` calls); attacks
        call this once per run.  ``owners`` restricts the pass to
        entries pinning at least one of the given objects (identity) —
        a plan's constants can only go stale through the models it was
        compiled from, so refreshing by owner is exact while staying
        O(own plans) in a shared multi-tenant store.  None refreshes
        everything.
        """
        for _, entry in self.items():
            if entry.plan is None or not hasattr(entry.plan, "refresh"):
                continue
            if owners is not None and not any(
                    e is o for e in entry.owners for o in owners):
                continue
            entry.plan.refresh()

    def discard(self, key) -> None:
        self._entries.pop(key, None)

    def clear(self) -> None:
        self._entries.clear()
        self._evicted_keys.clear()
