"""Timing in reference-host seconds.

The host this benchmark was built on runs the same Python code at speeds up
to 1.7x apart, and the speed changes within seconds.  A fixed piece of
pure-Python work, the probe, slows down with the library, so each timed
window is scaled by ``PROBE_REF_S`` over the probe's mean time around it.
The probe runs just before and just after the window, and every
``PERIOD_S`` inside it from a SIGALRM handler, whose time is taken
out of the window.  A result therefore reads as the time the call
would take on a host where the probe takes ``PROBE_REF_S``.
"""

from __future__ import annotations

import gc
import signal
import statistics
import subprocess
import sys
import time

PROBE_REF_S = 0.006
PERIOD_S = 0.25
BARE_REF_S = 0.05


# A 300-crossing one-bridge code; the probe parses and labels it like the
# library does, so it slows down with the library when the host does.
_CODE = " ".join([f"O{i}" for i in range(1, 301)] + [f"U{7 * i % 300 + 1}" for i in range(300)])
_REPS = 12


def probe() -> float:
    """Seconds taken by a fixed piece of parsing and labeling.

    The collector is paused so that the time does not depend on how many
    objects the workload holds.
    """
    collecting = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        for _ in range(_REPS):
            passes = [(int(tok[1:]), tok[0] == "O") for tok in _CODE.split()]
            seen: set[int] = set()
            level = 0
            for c, over in passes:
                if c not in seen:
                    seen.add(c)
                    level += not over
            counts: dict[int, int] = {}
            for _, over in passes:
                level += 1 if over else -1
                counts[level] = counts.get(level, 0) + 1
            sorted(counts.items())
        return time.perf_counter() - start
    finally:
        if collecting:
            gc.enable()


def bare_start() -> float:
    """Seconds to start and end a Python interpreter that runs nothing.

    Set-up is mostly interpreter start and imports, which speed up and slow
    down with the host less than the probe does (1.5x against 1.8x here), so
    set-up times are scaled by this instead.
    """
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", "pass"], check=True)
    return time.perf_counter() - start


def scale(samples) -> float:
    """Factor from wall seconds to reference-host seconds, from probe times."""
    return PROBE_REF_S / statistics.fmean(samples)


def setup_scale(samples) -> float:
    """The same factor for set-up, from ``bare_start`` times."""
    return BARE_REF_S / statistics.fmean(samples)


class Clock:
    """Times calls; ``scaled=False`` gives plain wall time and runs no probe."""

    def __init__(self, scaled: bool):
        self.scaled = scaled
        self.active = False
        self.samples: list[float] = []
        self.stolen = 0.0
        if scaled:
            # installed once and never removed, so a late alarm finds a handler
            signal.signal(signal.SIGALRM, self._on_alarm)

    def _on_alarm(self, signum, frame):
        if self.active:
            start = time.perf_counter()
            self.samples.append(probe())
            self.stolen += time.perf_counter() - start

    def time(self, fn):
        """Call ``fn()``; return (result, wall seconds, reference seconds).

        Garbage is collected first, so that the call does not pay for
        collecting what the benchmark left between calls.
        """
        gc.collect()
        if not self.scaled:
            start = time.perf_counter()
            result = fn()
            wall = time.perf_counter() - start
            return result, wall, wall
        self.samples = [probe()]
        self.stolen = 0.0
        self.active = True
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        start = time.perf_counter()
        try:
            result = fn()
        finally:
            self.active = False
            end = time.perf_counter()
            signal.setitimer(signal.ITIMER_REAL, 0, 0)
        wall = end - start - self.stolen
        self.samples.append(probe())
        return result, wall, wall * scale(self.samples)
