"""Times a region of code at a fixed reference speed of the machine.

The 2-vCPU VM this benchmark was built on runs each vCPU at one of two
speeds, up to 1.8x apart, and switches between them every second to every
twenty seconds; over half an hour the share of slow time drifts as well.
A whole-pass time therefore says as much about the host as about the
program: ten 15-second runs of one workload spread by up to 28% between
their first and third quartiles.

A `SpeedClock` times a region and, every PERIOD_S seconds, interrupts it
(SIGALRM, in the main thread) to time a short calibration kernel.  Each
stretch of the region is scaled by the kernel's reference time over the
kernel time measured right after it, and the scaled stretches are summed:
the region's time had the whole of it run at the reference speed.  The
kernel's own time is left out of the region.  The kernel runs twice per
tick and only the second call is timed, so that what the program left in
the caches does not reach the kernel's time: the kernel is fixed here, and
a change to the program moves the scaled time and the raw time alike.

How much a slow spell stretches code depends on the code: small numpy
calls slow down by about 1.8x, interpreted Python by about 1.4x, a stream
over a few megabytes by about 1.3x.  Passes of verify-catalog and
prox-closed are timed with `small_arrays`.  Measured as the spread
(standard deviation over mean) of pass times in one 60-100 s stretch, raw
against scaled: verify-catalog 8.5% against 1.3%; prox-closed (4-second
blocks) 18% against 4%.  envelope-parsed spends a fifth of its time in the
kernel, faulting in the pages of its large temporaries, and is timed with
`small_arrays_faults`, which faults in pages of its own; over ten runs its
spread (first to third quartile over the median) fell from 7.7% raw to
4.4%.  With `small_arrays` alone it was wider than raw.  A kernel that only
streams a large array follows it as well, but takes 4x longer inside the
program than on its own: it would time the program's memory traffic, not
the machine.  Set-up probes use `python`, which runs before numpy is
imported.
"""

from __future__ import annotations

import math
import mmap
import signal
import time

PERIOD_S = 0.05

_perf = time.perf_counter
_small: list = []


def _python_loop() -> None:
    """Interpreted integer arithmetic; needs no numpy, so that a set-up
    probe can run it before it imports anything."""
    s = 0
    for i in range(3000):
        s += i * i % 7


def _small_arrays() -> None:
    """Small numpy calls between Python arithmetic, as a single-point
    solve makes them."""
    import numpy as np
    if not _small:
        _small.append(np.arange(8.0))
    a = _small[0]
    s = 0.0
    for i in range(150):
        b = a * 1.5 + i
        s += float(b.sum()) + math.sqrt(i)



def _small_arrays_faults() -> None:
    """_small_arrays, then a write to every page of a fresh 1 MB mapping:
    256 page faults, as a grid scan takes them for its large temporaries."""
    _small_arrays()
    m = mmap.mmap(-1, 1 << 20)
    for off in range(0, 1 << 20, mmap.PAGESIZE):
        m[off] = 1
    m.close()


# name -> (kernel, its time in seconds at the reference speed: on the VM
# above, the 5th percentile of calls, each timed after a first one)
KERNELS = {
    "python": (_python_loop, 0.000180),
    "small_arrays": (_small_arrays, 0.000381),
    "small_arrays_faults": (_small_arrays_faults, 0.00127),
}


class SpeedClock:
    """Context manager timing one region; `kernel=None` times it plainly.

    After the region: `raw` is its wall time without the kernel's, `scaled`
    its time at the reference speed (equal to `raw` without a kernel), and
    `samples` the (start, time spent, timed kernel call) of every tick.
    """

    def __init__(self, kernel: str | None):
        self.fn, self.reference = KERNELS[kernel] if kernel else (None, None)
        self.samples: list = []
        self.raw = self.scaled = math.nan

    def _tick(self, signum, frame) -> None:
        t = _perf()
        self.fn()
        k = _perf()
        self.fn()
        end = _perf()
        self.samples.append((t, end - t, end - k))

    def __enter__(self) -> "SpeedClock":
        self.samples = []
        if self.fn is not None:
            self.fn()  # first-call costs (imports, allocation) stay outside
            self._old = signal.signal(signal.SIGALRM, self._tick)
            signal.siginterrupt(signal.SIGALRM, False)
            self.t0 = _perf()
            signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        else:
            self.t0 = _perf()
        return self

    def __exit__(self, *exc) -> None:
        if self.fn is not None:
            signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        t1 = _perf()
        if self.fn is not None:
            signal.signal(signal.SIGALRM, self._old)
        # a tick already pending when the timer stopped may run after t1
        self.samples = [s for s in self.samples if s[0] < t1]
        kernel_s = sum(spent for _, spent, _ in self.samples)
        self.raw = t1 - self.t0 - kernel_s
        if self.fn is None:
            self.scaled = self.raw
            return
        # stretch k ends where sample k starts; the last one ends at t1 and
        # takes the speed of the last sample (or a fresh one, if none came)
        if self.samples:
            last = self.samples[-1][2]
        else:
            self._tick(None, None)
            last = self.samples.pop()[2]
        scaled, start = 0.0, self.t0
        for t, spent, kernel in self.samples:
            scaled += (t - start) * self.reference / kernel
            start = t + spent
        self.scaled = scaled + (t1 - start) * self.reference / last
