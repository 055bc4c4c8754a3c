"""Op times at a fixed reference host speed.

The benchmark runs on a few cores of a shared host whose speed drifts: the
same op can take 0.8 s one second and 1.6 s a few seconds later, with CPU
time equal to wall time (the CPU runs slower, nothing waits). To take that
drift out of the end-to-end times, a fixed probe kernel is timed while the
op runs, and the op's time is scaled by how much slower or faster than
usual the kernel ran.

During an op, a SIGALRM handler runs the kernel every ``PERIOD_S`` seconds
of wall time. Python runs the handler between two bytecodes of the main
thread, so it interrupts the op and runs on the same CPU at that moment.
The kernel is also timed once just before and once just after the op. Then

    scaled time = (op wall time - time spent in the handler)
                  * (REFERENCE_S / median kernel time) ** sensitivity

that is, about the time the op would have taken on a host where the kernel
takes ``REFERENCE_S``. The sensitivity is a workload's: when the host's
speed changes the kernel's time by a factor f, that workload's ops change
by about f ** sensitivity (see ``Workload.host_sensitivity``).

The kernel is a mix like the program's own work: pure-Python float
arithmetic, row rotations of a small numpy matrix, regex parsing of
bracket cells and string splitting. It uses no sympca code, so a change to
the program can move the yardstick only through the cache state an op
leaves behind.
"""

from __future__ import annotations

import re
import signal
import statistics
import time

import numpy as np

# The kernel's time on the reference host (about its median during ops on
# the host described in README.md). Scaled times read as on that host.
REFERENCE_S = 0.002

# Kernel samples during an op are this far apart in wall time.
PERIOD_S = 0.1

_CELL = re.compile(r"^\[([^,]+),([^\]]+)\]$")
_FLOATS = [float(i) * 0.37 + 1.0 for i in range(256)]
_CELLS = [f"[{x!r},{x + 0.5!r}]" for x in _FLOATS[:200]]
_MATRIX = np.linspace(-1.0, 1.0, 64 * 64).reshape(64, 64)


def kernel() -> float:
    """The fixed probe workload; returns a value so nothing is skipped."""
    acc = 0.0
    a = _FLOATS
    for _ in range(16):
        for i in range(1, 255):
            acc += a[i] * a[i - 1] - a[i + 1] * 0.5
    m = _MATRIX.copy()
    for k in range(60):
        p, q = k % 64, (k * 7) % 63 + 1
        row_p, row_q = m[p, :].copy(), m[q, :].copy()
        m[p, :] = 0.6 * row_p - 0.8 * row_q
        m[q, :] = 0.8 * row_p + 0.6 * row_q
        acc += float(m[q, q])
    for _ in range(2):
        for cell in _CELLS:
            match = _CELL.match(cell)
            acc += float(match.group(1)) - float(match.group(2))
        acc += len(",".join(_CELLS).split(","))
    return acc


def kernel_time(samples: int) -> float:
    """Median wall time of ``samples`` kernel runs, after one untimed run."""
    kernel()
    times = []
    for _ in range(samples):
        t0 = time.perf_counter()
        kernel()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def scale(seconds: float, kernel_s: float, sensitivity: float = 1.0) -> float:
    """``seconds`` measured while the kernel took ``kernel_s``, at the reference speed."""
    return seconds * (REFERENCE_S / kernel_s) ** sensitivity


class SpeedSampler:
    """Times the kernel before, during and after one op.

        with SpeedSampler(sensitivity) as speed:
            op()
        scaled = speed.scale(wall)

    Only one sampler may be active at a time, in the main thread.
    """

    def __init__(self, sensitivity: float) -> None:
        self.sensitivity = sensitivity
        self.samples: list[float] = []
        self.spent = 0.0  # wall time inside the handler while the op ran
        self._busy = False
        self._previous = None

    def _sample(self, signum=None, frame=None) -> None:
        if self._busy:  # a late signal while the kernel still runs
            return
        self._busy = True
        t0 = time.perf_counter()
        kernel()
        t1 = time.perf_counter()
        self.samples.append(t1 - t0)
        self.spent += time.perf_counter() - t0
        self._busy = False

    def __enter__(self) -> "SpeedSampler":
        self._sample()
        self.spent = 0.0
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        spent = self.spent
        self._sample()
        self.spent = spent

    def scale(self, wall: float) -> float:
        """``wall`` without the handler's time, at the reference speed.

        The median ignores a sample that a preemption of this process
        stretched: it weighs far more in a 2 ms sample than in the op.
        """
        return scale(wall - self.spent, statistics.median(self.samples), self.sensitivity)
