"""Budgeted LRU cache over compiled plans — the serving layer's shared
program store — and the one rule for where a model's programs live.

Before this module, every compiled-executor leg grew its own ad-hoc
per-(model, shape, dtype) cache: a per-attack dict of compiled pairs,
``EdgeModel._programs`` (a never-evicting dict of
:class:`~repro.edge.program.EdgeProgram` plans), and
:func:`repro.training.evaluate.predict_logits` recompiling a fresh
replay on every large evaluation.  Today every model's programs — float
forwards (:func:`repro.nn.graph.compile_forward_cached`) and int8 edge
programs (``EdgeModel._program_for``) alike — go through
:func:`model_program`: they live in the session cache the model was
adopted into (``model.plan_cache``), else in a store of the model's own
that pins nothing and dies with it.  A multi-tenant server cannot
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
  budget evicts least-recently-used entries.  A compiled program sizes
  its buffers to the largest batch it has replayed (its ``alloc_rows``),
  so an entry whose plan grew is walked again and re-charged, and the
  budget re-enforced, on the next lookup or size query.  Evicted plans
  are simply rebuilt on the next request, and every rebuild re-runs the
  leg's own compile-time bit-validation, so eviction can never change
  results — only warm-up cost;
- **failure pinning with cool-down re-probe** — a builder returning
  ``None`` (the shared "fall back to eager" contract) is cached too, so
  an uncompilable (model, shape) pays the failed compile once, not per
  request.  With ``failure_cooldown_s`` set, a pinned failure expires
  after the cool-down and the next request re-runs the builder — a
  *transient* compile fault (an OOM spike, an injected chaos fault)
  heals instead of pinning eager forever.

Lookups take a lock, because a model's store is shared by every
thread that attacks or evaluates the model (a build runs under it, so
two threads never compile one key twice); the cache makes no attempt to
share eviction pressure across processes.

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

import threading
import weakref
from collections import OrderedDict
from typing import Any, Callable, Dict, Iterator, Optional, Tuple

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
            # an adopted model holds the very cache charging it (its
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
    (they make the ids in the key stable for the entry's lifetime).
    ``rows`` is the batch the plan's buffers are sized for when it grows
    with the batch (a compiled float program's ``alloc_rows``), None for
    fixed-size plans."""

    __slots__ = ("owners", "plan", "nbytes", "owner_nbytes", "rows",
                 "failed_at")

    def __init__(self, owners: Tuple, plan: Any, owner_nbytes: int,
                 failed_at: Optional[float] = None):
        self.owners = owners
        self.plan = plan
        self.owner_nbytes = owner_nbytes
        self.rows = getattr(plan, "alloc_rows", None)
        self.nbytes = plan_nbytes(plan) + owner_nbytes
        # when the plan is a pinned failure (None), the clock reading at
        # pin time — drives the cool-down re-probe
        self.failed_at = failed_at


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
        self._lock = threading.RLock()
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

    def __reduce__(self):
        """Copies and pickles of a store are None.  A store is a shared
        resource, not model state (it holds locks and compiled
        programs), and a deep copy or an unpickled copy of an adopted
        model (``Module.copy_structure``, ``prepare_qat``, a model sent
        to another process) is not adopted: its ``plan_cache`` is None,
        so it builds into a store of its own (:func:`_program_store`)
        and never keeps the session cache, or the models that cache
        pins, alive after the session closes."""
        return type(None), ()

    # -- core ----------------------------------------------------------- #
    def get(self, key, owners: Tuple, build: Callable[[], Any],
            _unused: Any = None) -> Any:
        """The one lookup path: cached plan, or build-insert-and-return.

        ``owners`` are identity-checked against the entry (a recycled
        ``id()`` in ``key`` therefore cannot alias a dead model's plan);
        ``build`` runs on miss and may return None to pin an eager
        fallback for this key.  ``_unused`` is ignored: the benchmark's
        traced ``get`` wrapper (``perfbench/layers.py``) still passes a
        fifth argument.
        """
        with self._lock:
            return self._get(key, owners, build)

    def _get(self, key, owners: Tuple, build: Callable[[], Any]) -> Any:
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
                    if self._recharge():
                        self._evict(keep=key)
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
        owner_nbytes = sum(plan_nbytes(o) for o in owners)
        failed_at = self.clock.now() if plan is None else None
        self._entries[key] = _Entry(tuple(owners), plan, owner_nbytes,
                                    failed_at=failed_at)
        self._entries.move_to_end(key)
        self._evict(keep=key)
        return plan

    def _recharge(self) -> bool:
        """Re-measure the entries whose plans grew since they were
        charged; only those are walked.  True if any grew."""
        grew = False
        for entry in self._entries.values():
            rows = getattr(entry.plan, "alloc_rows", None)
            if rows != entry.rows:
                entry.rows = rows
                entry.nbytes = plan_nbytes(entry.plan) + entry.owner_nbytes
                grew = True
        return grew

    def _evict(self, keep) -> None:
        """Evict least-recently-used entries until the budget holds,
        never ``keep`` (the entry being handed out)."""
        if self.budget_bytes is None:
            return
        while (self.total_bytes() > self.budget_bytes
               and len(self._entries) > 1):
            victim = next(iter(self._entries))
            if victim == keep:
                break
            del self._entries[victim]
            self.evictions += 1
            self._evicted_keys[victim] = None
            self._evicted_keys.move_to_end(victim)
            while len(self._evicted_keys) > _EVICTED_KEYS_MAX:
                self._evicted_keys.popitem(last=False)

    # -- introspection -------------------------------------------------- #
    def total_bytes(self) -> int:
        with self._lock:
            self._recharge()
            return sum(e.nbytes for e in self._entries.values())

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key) -> bool:
        return key in self._entries

    @property
    def stats(self) -> Dict[str, int]:
        """Counters plus memory: ``resident_bytes`` is the budget's
        charge; ``arena_bytes`` and ``fill_bytes`` split the resident
        float programs' buffers into the planned arena and the
        pre-filled padding buffers outside it."""
        progs = [e.plan for _, e in self.items()
                 if hasattr(e.plan, "arena_bytes")]
        return {"hits": self.hits, "misses": self.misses,
                "evictions": self.evictions, "rebuilds": self.rebuilds,
                "reprobes": self.reprobes,
                "entries": len(self._entries),
                "resident_bytes": self.total_bytes(),
                "arena_bytes": sum(p.arena_bytes()[0] for p in progs),
                "fill_bytes": sum(p.fill_bytes() for p in progs)}

    def items(self) -> Iterator[Tuple[Any, _Entry]]:
        """(key, entry) pairs, least recently used first."""
        with self._lock:
            snapshot = list(self._entries.items())
        return iter(snapshot)

    def clear(self) -> None:
        self._entries.clear()
        self._evicted_keys.clear()


#: program stores of models no session adopted, one per model; a store
#: never references its model, so it dies with it
_own_stores: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()
_own_stores_lock = threading.Lock()


def _program_store(model, create: bool = True):
    """``(store, owners)`` for ``model``'s compiled programs.

    The store is the session :class:`PlanCache` the model was adopted
    into (``model.plan_cache``; its entries pin the model, so ``owners``
    is ``(model,)``), else the model's own store, which pins nothing.
    Adoption drops the own store.
    """
    shared = getattr(model, "plan_cache", None)
    own = None
    try:
        with _own_stores_lock:
            if shared is not None:
                _own_stores.pop(model, None)
            else:
                own = _own_stores.get(model)
                if own is None and create:
                    own = _own_stores[model] = PlanCache()
    except TypeError:           # not weak-referenceable: nothing to keep
        own = PlanCache() if create else None
    return (shared, (model,)) if shared is not None else (own, ())


def model_program(model, key: Tuple, build: Callable[[], Any]) -> Any:
    """``model``'s compiled program under ``key`` — ``(kind, *rest)``,
    stored as ``(kind, id(model), *rest)`` — from the model's store;
    ``build`` runs on a miss and may return None to pin the eager
    fallback.  The one lookup of float and edge programs alike."""
    store, owners = _program_store(model)
    return store.get((key[0], id(model)) + key[1:], owners, build)


def model_programs(model, kind: str) -> Dict[Tuple, Any]:
    """Every ``kind`` program ``model``'s store holds for it, keyed by
    the key's ``rest`` (see :func:`model_program`); pinned failures map
    to None."""
    store, _ = _program_store(model, create=False)
    if store is None:
        return {}
    head = (kind, id(model))
    return {key[2:]: entry.plan for key, entry in store.items()
            if isinstance(key, tuple) and key[:2] == head}
