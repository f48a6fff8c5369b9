"""Speed probes: a fixed kernel timed inside the sample's own process.

On a shared host the speed of a core drifts by tens of percent over seconds
to minutes, so plain wall times of the same code differ from run to run by
more than a regression bound.  A sample therefore times a small fixed kernel
that never touches porodrift, right after set-up and every ``INTERVAL_S``
during ``dispatch`` (from a ``SIGALRM`` handler, which Python runs between
bytecodes of the main thread), and its wall times are scaled by ``REF_S``
over the median kernel time of the same stretch of time: seconds on a host
where the kernel takes ``REF_S``.  A change to porodrift moves the
scaled times by the same share as the wall times; the kernel does not change
with it.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np
import scipy.sparse as sparse
from scipy.sparse.linalg import splu

REF_S = 0.002         # kernel time the reported times are scaled to
INTERVAL_S = 0.1      # kernel period during dispatch: about 4 % of its time
GRID = 20             # a sparse LU and solve of a 400-unknown 5-point operator
LOOP = 10_000         # then a plain Python float loop


class SpeedProbe:
    """Times the kernel on demand and, inside ``with``, every ``INTERVAL_S``."""

    def __init__(self):
        eye = sparse.identity(GRID)
        line = sparse.diags([-1.0, 2.2, -1.0], [-1, 0, 1], shape=(GRID, GRID))
        self.matrix = (sparse.kron(eye, line) + sparse.kron(line, eye)).tocsc()
        self.rhs = np.ones(self.matrix.shape[0])
        self.times = []   # kernel times of the current ``with`` block
        self.spent = 0.0  # time the handler took inside the block

    def _work(self):
        splu(self.matrix).solve(self.rhs)
        total = 0.0
        for i in range(LOOP):
            total += i * 0.5

    def kernel(self) -> float:
        """Wall time of one warm run of the kernel: SuperLU work, then Python work.

        An untimed run first brings the kernel's data and code into the
        caches, so the time follows the core's speed rather than what the
        program left in the caches.
        """
        self._work()
        start = time.perf_counter()
        self._work()
        return time.perf_counter() - start

    def scale(self, times) -> float:
        """``REF_S`` over the median kernel time.

        The median, because one kernel can read slow right after a large
        native call (the first kernel after the ``micro_large`` Poisson
        factorization sometimes takes 40 % longer than the rest).
        """
        return REF_S / statistics.median(times)

    def _on_alarm(self, signum, frame):
        start = time.perf_counter()
        self.times.append(self.kernel())
        self.spent += time.perf_counter() - start

    def __enter__(self):
        self.times = [self.kernel()]
        self.spent = 0.0
        signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self.times.append(self.kernel())
        return False
