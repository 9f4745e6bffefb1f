"""What the host looked like while a run measured.

Throughput on a shared machine moves with load and steal time even
when the code does not, so every result records the CPU, the BLAS build
and its thread setting, the interpreter, and ``/proc`` load and steal
readings taken at the start and at the end of the run.
"""

from __future__ import annotations

import os
import platform
import sys
from typing import Any, Dict, List, Optional

#: environment variables that pick BLAS/OpenMP thread counts
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _read(path: str) -> Optional[str]:
    try:
        with open(path) as fh:
            return fh.read()
    except OSError:
        return None


def cpu_model() -> str:
    text = _read("/proc/cpuinfo") or ""
    for line in text.splitlines():
        if line.startswith("model name"):
            return line.split(":", 1)[1].strip()
    return platform.processor() or "unknown"


def nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def blas() -> Dict[str, Any]:
    """BLAS name, version and build line as numpy reports them."""
    import numpy as np
    try:
        cfg = np.show_config(mode="dicts")
        dep = cfg.get("Build Dependencies", {}).get("blas", {})
        return {"name": dep.get("name"), "version": dep.get("version"),
                "config": dep.get("openblas configuration")}
    except (TypeError, ValueError):     # older numpy: no dict mode
        return {"name": "unknown", "version": None, "config": None}


def load_sample() -> Dict[str, Any]:
    """Load averages and the aggregate ``cpu`` line of ``/proc/stat``."""
    loadavg = (_read("/proc/loadavg") or "").split()
    cpu: List[int] = []
    for line in (_read("/proc/stat") or "").splitlines():
        if line.startswith("cpu "):
            cpu = [int(v) for v in line.split()[1:]]
            break
    return {"loadavg": [float(v) for v in loadavg[:3]], "cpu_jiffies": cpu}


def steal_share(start: Dict[str, Any], end: Dict[str, Any]) -> Optional[float]:
    """Share of CPU time stolen by the hypervisor between two samples
    (field 8 of the ``cpu`` line), or None when ``/proc/stat`` is
    unavailable."""
    a, b = start["cpu_jiffies"], end["cpu_jiffies"]
    if len(a) < 8 or len(b) < 8:
        return None
    total = sum(b) - sum(a)
    return (b[7] - a[7]) / total if total > 0 else 0.0


def host_block() -> Dict[str, Any]:
    import numpy as np
    return {
        "nproc": nproc(),
        "cpu_model": cpu_model(),
        "blas": blas(),
        "blas_threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "numpy": np.__version__,
        "python": sys.version.split()[0],
        "platform": platform.platform(),
    }
