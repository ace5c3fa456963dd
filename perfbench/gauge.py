"""A speed gauge: puts times measured on a drifting shared CPU on one scale.

On the shared hosts this benchmark runs on, the same code runs up to twice
as fast in one second as in the next, because other tenants contend for
the physical core.  That drift swamps any change worth measuring.  The
gauge times a small fixed kernel of numpy calls from a SIGALRM handler
every INTERVAL_S while a workload runs, on the same CPU (run.py pins the
whole process tree to one CPU).  A span of wall time is then rescaled by
REFERENCE_S / (kernel time around it): the result is the time the span
would have taken at the speed where the kernel takes REFERENCE_S, about
this kernel's time on an uncontended core of the reference machine.  The
gauge's own time is taken out of every span it interrupted.  Raw times
are kept next to the rescaled ones in each record.
"""
from __future__ import annotations

import signal
import time
from array import array

import numpy as np

INTERVAL_S = 0.05
WINDOW_S = 0.25
REFERENCE_S = 200e-6
_VECTOR = np.arange(8.0)
_MATRIX = np.arange(64.0).reshape(8, 8)


def kernel() -> float:
    """Fixed work of the kind the library spends its time on: small numpy
    calls, each mostly interpreter and dispatch overhead."""
    s = 0.0
    for i in range(40):
        a = np.asarray(_VECTOR) + i
        s += float(np.maximum(a, 3.0).sum() + (_MATRIX @ a).max())
    return s


class SpeedGauge:
    """Collects (start, duration) samples of the kernel while running."""

    def __init__(self):
        self.starts = array("d")
        self.durations = array("d")
        self._previous = None

    def _tick(self, signum, frame) -> None:
        t0 = time.monotonic()
        kernel()
        self.starts.append(t0)
        self.durations.append(time.monotonic() - t0)

    def __enter__(self) -> "SpeedGauge":
        self._tick(None, None)  # so that even a phase shorter than INTERVAL_S has a sample
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def rescale(self, t0, t1) -> np.ndarray:
        """Reference-speed durations of the spans [t0, t1] (arrays of clock readings)."""
        t0 = np.atleast_1d(np.asarray(t0, dtype=float))
        t1 = np.atleast_1d(np.asarray(t1, dtype=float))
        starts = np.asarray(self.starts)
        durs = np.asarray(self.durations)
        if len(starts) == 0:
            raise RuntimeError("the speed gauge took no samples")
        # Gauge time spent inside a span is not the span's own work.
        spent = np.concatenate([[0.0], np.cumsum(durs)])
        own = (t1 - t0) - (spent[np.searchsorted(starts, t1)] - spent[np.searchsorted(starts, t0)])
        # Local speed at each sample: the median kernel time of the samples
        # within WINDOW_S of it, which shrugs off the odd sample that was
        # itself interrupted.  A span is rescaled by the mean of the local
        # factors over the samples within WINDOW_S of it (at least the
        # nearest one): the local factor for a short span, the time-weighted
        # average over the phases a long span runs through.
        lo = np.searchsorted(starts, starts - WINDOW_S)
        hi = np.searchsorted(starts, starts + WINDOW_S, side="right")
        local = np.array([np.median(durs[a:b]) for a, b in zip(lo, hi)])
        cum = np.concatenate([[0.0], np.cumsum(REFERENCE_S / local)])
        lo = np.minimum(np.searchsorted(starts, t0 - WINDOW_S), len(starts) - 1)
        hi = np.maximum(np.searchsorted(starts, t1 + WINDOW_S), lo + 1)
        return own * (cum[hi] - cum[lo]) / (hi - lo)

    def summary(self) -> dict:
        durs = np.asarray(self.durations)
        return {
            "samples": len(durs),
            "kernel_median_s": float(np.median(durs)) if len(durs) else None,
            "kernel_min_s": float(durs.min()) if len(durs) else None,
        }
