"""Host-speed probe: a fixed reference computation timed while the benchmark runs.

The benchmark's machine shares its host, and the host's speed drifts by up
to half over minutes: the same code runs at 130 steps/s for a while, then at
190.  Longer runs do not average this out, because the drift is slower than
any run.  The probe runs a fixed piece of work of the same kind as
equicast's (an interpreted loop, many small numpy calls, a small BLAS
product) every PERIOD_S of process CPU time while operations are timed, and
once more after each round of them.  Its mean time, over NOMINAL_S, is the
host's slowness during the run; `norm_throughput` is the measured rate times
that factor, i.e. the rate the run would have had on a host where the probe
takes NOMINAL_S.

Probe time is kept out of the operations' time: `clock()` is the wall clock
minus all the time spent probing.  The probe's code and data live here, not
in equicast, so a change to equicast cannot change the probe's work.
"""

from __future__ import annotations

import signal
import time

import numpy as np

# The probe's median time over 300 back-to-back calls on the 2-vCPU Intel
# Xeon VM this benchmark was written on (Python 3.11, numpy 2.4,
# scipy-openblas 0.3.31).
NOMINAL_S = 0.008
PERIOD_S = 0.5  # process CPU time between probes during operations

_rng = np.random.default_rng(20240604)
_SMALL = _rng.standard_normal((16, 16))
_VEC = _rng.standard_normal(64)
_BLAS = _rng.standard_normal((96, 96)) / 10.0


def reference_work() -> float:
    """The fixed work one probe times; returns a checksum so none of it is skipped."""
    acc, table = 0, {}
    for i in range(20_000):
        acc += i * i % 7
        table[i & 255] = acc
    x = _VEC
    for _ in range(600):
        x = np.tanh(x) * 0.5 + float((_SMALL @ _SMALL[0]).sum()) * 1e-3
    y = _BLAS
    for _ in range(12):
        y = np.tanh(y @ _BLAS)
    return acc + float(x.sum()) + float(y.sum())


class SpeedProbe:
    """Samples the reference work's time on an interval timer of process CPU time."""

    def __init__(self):
        self.times: list[float] = []
        self._spent = 0.0
        self._busy = False

    def sample(self, *_signal_args) -> None:
        if self._busy:  # the timer fired during a probe
            return
        self._busy = True
        try:
            t0 = time.perf_counter()
            reference_work()
            dt = time.perf_counter() - t0
            self.times.append(dt)
            self._spent += dt
        finally:
            self._busy = False

    def clock(self) -> float:
        """Wall-clock seconds with every probe's time taken out."""
        return time.perf_counter() - self._spent

    def start(self) -> None:
        signal.signal(signal.SIGVTALRM, self.sample)
        signal.setitimer(signal.ITIMER_VIRTUAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_VIRTUAL, 0.0)
        signal.signal(signal.SIGVTALRM, signal.SIG_DFL)

    def slowness(self) -> float:
        """Mean probe time over NOMINAL_S: above 1 on a slower host than nominal."""
        return sum(self.times) / len(self.times) / NOMINAL_S
