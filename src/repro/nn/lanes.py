"""The lane thread: one worker beside the calling thread.

Two callers split their work across it with :func:`_on_lanes`: the
paired attack step (:func:`repro.attacks.engine.lane_step`) replays
program 0 here and the other programs on the lane, and an int8 edge
program (:meth:`repro.edge.program.EdgeProgram.run`) walks the first
half of its full row tiles here and the second half on the lane.
numpy releases the GIL inside the GEMMs and copies both spend their
time in, so the lane gives a second core real work.

The worker is created on first use and shared by the whole process;
a forked child starts with none.  Work on the lane takes no lock and
never submits to the lane: a runner call made on the lane itself runs
its calls inline, so callers on several threads only queue on it and
never deadlock.
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import ThreadPoolExecutor, wait
from typing import Any, Callable, List, Optional, Sequence

_lane_lock = threading.Lock()
_lane_pool: Optional[ThreadPoolExecutor] = None
_thread = threading.local()


def _mark_lane() -> None:
    _thread.is_lane = True


def _lane() -> ThreadPoolExecutor:
    global _lane_pool
    with _lane_lock:
        if _lane_pool is None:
            _lane_pool = ThreadPoolExecutor(max_workers=1,
                                            thread_name_prefix="repro-lane",
                                            initializer=_mark_lane)
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
    submits nothing, and neither does a call made on the lane thread:
    it runs every call inline, in order.
    """
    if len(calls) == 1 or getattr(_thread, "is_lane", False):
        return [call() for call in calls]
    fut = _lane().submit(lambda: [call() for call in calls[1:]])
    try:
        first = calls[0]()
    finally:
        wait((fut,))
    return [first] + fut.result()
