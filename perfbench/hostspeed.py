"""A fixed probe of how fast the host runs right now.

On a shared machine the same code runs at different speeds in episodes
of many seconds, with the load of other tenants: on a 2-vCPU VM with
almost no steal time reported, one edge predict measured 175 ms in one
stretch and 290 ms in the next.  A run that lands in a slow stretch
reads slow from start to end, so no statistic over the run's own ops
removes it.

The benchmark therefore times this probe right before every op and
reports each op's time rescaled to a host on which the probe takes
``REF_S``: ``seconds * REF_S / probe_seconds``.  The probe is numpy and
Python code of the benchmark's own (elementwise passes into a
preallocated buffer, a float32 GEMM of conv shape, a dict loop), so no
change to the library moves it, and a change that slows the library's
ops moves the rescaled figures as much as the raw ones.  Over five runs
of one workload on that VM, rescaling cut the interquartile spread of
throughput from 12-30% to 3-8% on edge_int8, surrogate_distill and
serve_mixed; whitebox_diva's was 7% either way.

    OPENBLAS_NUM_THREADS=1 python3 perfbench/hostspeed.py   # probe times
"""

from __future__ import annotations

import time

import numpy as np

#: probe seconds on the reference host: about the median of the probes
#: taken between ops in benchmark runs on a 2-vCPU VM (Intel Xeon, one
#: BLAS thread), which read 6-7 ms; rescaled figures read as if the host
#: ran at that speed
REF_S = 0.0065


class Probe:
    """``Probe()()`` runs the fixed work once and returns its seconds."""

    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        self.x = rng.random((64, 8, 32, 32), dtype=np.float32)
        self.a = rng.random((256, 576), dtype=np.float32)
        self.b = rng.random((576, 128), dtype=np.float32)
        self.keys = list(range(5000))
        # outputs are preallocated: a fresh 2 MB temporary is mapped and
        # faulted in or not depending on the allocator's state, which
        # the ops before the probe set
        self.y = np.empty_like(self.x)
        self.c = np.empty((256, 128), dtype=np.float32)

    def work(self) -> None:
        x, y = self.x, self.y
        for _ in range(4):
            np.maximum(x, 0.5, out=y)
            np.multiply(y, 1.7, out=y)
            np.add(y, x, out=y)
            y.sum()
        for _ in range(4):
            np.matmul(self.a, self.b, out=self.c)
        d: dict = {}
        for i in self.keys:
            d[i & 255] = d.get(i & 255, 0) + i

    def __call__(self) -> float:
        t0 = time.perf_counter()
        self.work()
        return time.perf_counter() - t0

    def scale(self) -> float:
        """Factor that maps seconds measured now to the reference host."""
        return REF_S / self()


if __name__ == "__main__":
    import statistics
    probe = Probe()
    probe()
    times = [probe() for _ in range(200)]
    q1, med, q3 = statistics.quantiles(times, n=4)
    print(f"probe median {med * 1e3:.3f} ms  quartiles "
          f"{q1 * 1e3:.3f}-{q3 * 1e3:.3f} ms  (REF_S {REF_S * 1e3:.3f} ms)")
