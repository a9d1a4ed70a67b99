"""A clock in seconds at a fixed reference speed of the host.

On a shared virtual machine the speed of one core changes by half
within seconds, as other tenants come and go, and raw wall times of the
same pass spread by more than that across runs.  `HostClock` measures
the host's speed while the workload runs: every PERIOD seconds a timer
signal interrupts the workload and times PROBE, a fixed piece of
pure-Python exact-rational and dict work like the library's own inner
loops.  The clock advances at the rate REFERENCE_PROBE_S / (median of
the last WINDOW probe times), so it reads wall seconds on a host where
the probe takes REFERENCE_PROBE_S, and the probes' own time is left
out.  A change that makes the library faster leaves the probe as it is
and shows in full.

`now()` takes no lock: the signal handler replaces the clock's state
in one assignment, and a handler that lands between the two reads of
`now()` moves its result by at most one probe's time.
"""

import gc
import signal
from collections import deque
from fractions import Fraction
from statistics import median
from time import perf_counter

PERIOD = 0.05
WINDOW = 5
REFERENCE_PROBE_S = 300e-6


def probe():
    acc, table = Fraction(1, 3), {}
    for i in range(1, 40):
        acc = acc * Fraction(i + 1, i + 2) + Fraction(1, i)
        key = (i % 5, i % 3)
        table[key] = table.get(key, 0) + acc.denominator % 7
    return acc, table


def probe_time():
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = perf_counter()
        probe()
        return perf_counter() - start
    finally:
        if enabled:
            gc.enable()


class HostClock:
    def __init__(self):
        self.recent = deque(maxlen=WINDOW)
        self.probes = []
        self.state = (0.0, perf_counter(), 1.0)   # (reading, at, rate)

    def start(self):
        for _ in range(WINDOW):
            self.recent.append(probe_time())
        self.state = (0.0, perf_counter(),
                      REFERENCE_PROBE_S / median(self.recent))
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD, PERIOD)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def _tick(self, signum, frame):
        reached = perf_counter()
        reading, at, rate = self.state
        took = probe_time()
        self.recent.append(took)
        self.probes.append(took)
        self.state = (reading + (reached - at) * rate, perf_counter(),
                      REFERENCE_PROBE_S / median(self.recent))

    def now(self):
        t = perf_counter()
        reading, at, rate = self.state
        return reading + (t - at) * rate
