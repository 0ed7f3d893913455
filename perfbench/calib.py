"""Machine-speed calibration: a fixed benchmark-local kernel sampled during items.

The hosts this benchmark runs on share their cores, and their speed moves
all the time: the same fixed work took 1.6 times as long for a minute at a
time on a 2-core Xeon host, in process CPU time as well as in wall time, and
within that it wanders on a sub-second scale.  A run is too short to average
that out.  So while items are timed, an interval timer (SIGALRM, handled in
the main thread between bytecodes: no thread or process is started) runs a
short probe of a fixed kernel every PROBE_INTERVAL_S.  The kernel is small
dense linear algebra, as in qcorr's inner loops, written here in plain numpy,
so no change under ``src/qcorr`` can move it.

Probe times are subtracted from the item they fall in, which gives the raw
item time.  The scaled item time adds up the item's stretches between probes,
each divided by the slowdown the two probes around it saw (interpolated to
the stretch's midpoint):

    t_scaled = sum over stretches of  length * (KERNEL_REF_S / probe time) ** SLOWDOWN_EXPONENT

qcorr slows down a little more than the probe when the core is contended.
The exponent was fitted on three recordings of four to five minutes each on
the reference host, of fig1 states and of measure items with probes every
20 ms: among 0.8, 1.0, 1.2, 1.4 and 1.6, 1.2 gave the lowest or nearly the
lowest spread of both per-item and per-block times in each.

``t_scaled`` estimates the item's time on the reference host when nothing
else competes for its core.  A program change moves the stretches' lengths,
not the probes.  Raw times are kept in each run's record next to the scaled
ones.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time

import numpy as np

# probe time on the reference host (2-core 2.0 GHz Xeon) at its fastest: the
# 5th percentile of several thousand probes
KERNEL_REF_S = 0.6e-3
SLOWDOWN_EXPONENT = 1.2
PROBE_INTERVAL_S = 0.025

_rng = np.random.default_rng(20260810)
_S = _rng.standard_normal((4, 4))
_S = _S + _S.T
_M = _rng.standard_normal((4, 4)) + 1j * _rng.standard_normal((4, 4))


def kernel(n: int = 30) -> float:
    """Fixed work: real 4x4 eigvalsh, an entropy-like sum, a complex 4x4 product."""
    total = 0.0
    for _ in range(n):
        w = np.linalg.eigvalsh(_S)
        total += float(np.log(np.abs(w) + 1.0).sum())
        total += float((_M @ _M.conj().T).trace().real)
    return total


class Clock:
    """Times consecutive items while a timer samples the machine's speed.

    Use it as a context manager; call ``start()`` before the first item and
    ``lap()`` after each one.  ``raw`` holds one time per item without the
    probes in it, and ``scaled()`` the same times at the reference speed, in
    seconds.  ``probes`` holds (start, duration) of every probe.
    """

    def __init__(self, interval: float = PROBE_INTERVAL_S):
        self.interval = interval
        self.bounds: list[tuple[float, float]] = []
        self.probes: list[tuple[float, float]] = []
        self._t0 = 0.0
        self._previous = None

    def _tick(self, signum, frame) -> None:
        t0 = time.perf_counter()
        kernel()
        self.probes.append((t0, time.perf_counter() - t0))

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        self._tick(None, None)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        self._tick(None, None)

    def start(self) -> None:
        self._t0 = time.perf_counter()

    def lap(self) -> None:
        """Close the current item and open the next."""
        t1 = time.perf_counter()
        self.bounds.append((self._t0, t1))
        self._t0 = t1

    def _inside(self, a: float, b: float) -> list[tuple[float, float]]:
        """The probes that started within [a, b); probes are in time order."""
        starts = [s for s, _ in self.probes]
        return self.probes[bisect.bisect_left(starts, a):bisect.bisect_left(starts, b)]

    @property
    def raw(self) -> list[float]:
        return [b - a - sum(d for _, d in self._inside(a, b)) for a, b in self.bounds]

    def scaled(self) -> list[float]:
        starts = np.array([s for s, _ in self.probes])
        durations = np.array([d for _, d in self.probes])
        mids = starts + durations / 2
        slow = (durations / KERNEL_REF_S) ** SLOWDOWN_EXPONENT
        out = []
        for a, b in self.bounds:
            edges = [a]
            for s, d in self._inside(a, b):
                edges += [s, s + d]
            edges.append(b)
            total = 0.0
            for lo, hi in zip(edges[0::2], edges[1::2]):
                total += (hi - lo) / float(np.interp((lo + hi) / 2, mids, slow))
            out.append(total)
        return out

    def probe_summary(self) -> dict:
        d = [1e3 * d for _, d in self.probes]
        return {"reference_ms": 1e3 * KERNEL_REF_S, "count": len(d),
                "median_ms": statistics.median(d), "min_ms": min(d), "max_ms": max(d)}
