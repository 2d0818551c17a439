"""Reference-speed clock: timings corrected for the shared machine's speed.

The benchmark's host is shared, and the speed at which it runs this process
drifts by up to 2.5x within minutes (one filmloop solve took 0.70-1.79 s over
five minutes, with the same inputs), which no bound on raw seconds could
absorb.  While a pass runs, a fixed reference kernel (this module's code and
data, never filmloop's) is timed every INTERVAL_S seconds from a SIGALRM
handler.  Time spent in the kernel is subtracted from every timing, and each
pass's seconds are scaled by REFERENCE_S / (mean kernel time during the
pass, or around a point): the seconds it would take on the host when the
host runs the kernel in REFERENCE_S.  Over ten runs of each workload the
quartile spread of the pass time (quartile distance over median) fell from
0.31 / 0.17 / 0.12 in raw seconds to 0.066 / 0.077 / 0.028 (sweep_elongated /
relax_ladder / saddle_family).
"""

import contextlib
import signal
import statistics
import time

import numpy as np
import scipy.sparse

INTERVAL_S = 0.1
PAD_S = 0.25     # a point is scaled by the samples within PAD_S of it
# Kernel seconds on a quiet host: 2-core Intel Xeon VM, Python 3.11.7,
# numpy 2.4.6, scipy 1.17.1.  Only a scale; it cancels in any comparison.
REFERENCE_S = 0.002


def _kernel_data():
    """A disk-sized sparse matrix and point set, fixed by seed 0."""
    rng = np.random.default_rng(0)
    n = 817
    rows = np.repeat(np.arange(n), 6)
    cols = rng.integers(0, n, 6 * n)
    a = scipy.sparse.csr_matrix((rng.random(6 * n), (rows, cols)),
                                shape=(n, n))
    return a, rng.random((n, 3)), np.arange(0, n, 8)


class RefClock:
    """A clock that excludes the reference kernel, and the kernel's times."""

    def __init__(self):
        self._a, self._x, self._loop = _kernel_data()
        self.spent = 0.0          # seconds inside the kernel so far
        self.samples = []         # (now() when taken, kernel seconds)

    def kernel(self):
        """Small sparse and dense array work, like filmloop's inner loops."""
        a, x, loop = self._a, self._x, self._loop
        acc = 0.0
        for _ in range(40):
            y = a @ x
            e = np.roll(x[loop], -1, axis=0) - x[loop]
            s = np.einsum("ij,ij->i", e, e)
            g = np.zeros_like(x)
            np.add.at(g, loop, e / (1.0 + s[:, None]))
            acc += float(np.sum(y * x)) + float(s.sum())
            x = x + 1e-12 * g
        return acc

    def sample(self, *_):
        t0 = time.perf_counter()
        self.kernel()
        dt = time.perf_counter() - t0
        self.samples.append((t0 - self.spent, dt))
        self.spent += dt

    def now(self):
        """perf_counter minus the time spent in the kernel."""
        return time.perf_counter() - self.spent

    def scale(self, first, start=None, end=None):
        """REFERENCE_S over the mean kernel time of samples[first:], or of
        those taken within PAD_S of the now() interval [start, end] when
        there are any."""
        dts = [dt for _, dt in self.samples[first:]]
        if start is not None:
            near = [dt for t, dt in self.samples[first:]
                    if start - PAD_S <= t <= end + PAD_S]
            dts = near or dts
        return REFERENCE_S / statistics.fmean(dts)

    @contextlib.contextmanager
    def sampling(self):
        """Sample the kernel at the start and then every INTERVAL_S."""
        self.sample()
        previous = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)
            self.sample()
