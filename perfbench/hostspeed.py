"""Host-speed normalization of measured wall time.

On a shared host the same pure-Python work runs at very different speeds
from minute to minute: on the 2-core reference VM a fixed ~0.1 s unit of
work took anywhere from 0.05 s to 0.14 s, in phases that last seconds to
minutes, and five back-to-back cold studies took 15.5 to 22.1 s.  Process
CPU time moves with wall time, so the slowdown is the host's, not waiting.

:class:`HostClock` measures the host's current speed with a fixed
calibration kernel that does not touch the program: a ``SIGALRM`` timer
interrupts the timed work every :data:`TICK_S` seconds, and the handler
takes one :func:`kernel` sample; so does every read of the clock.  Each
stretch of program time between two samples is credited at the mean
of the speeds they measured, rescaled to :data:`REFERENCE_KERNEL_S`, the
kernel's typical duration on the reference host.  The kernel's own time
is never credited.  On the reference host this turned a 24-34% spread of
fixed work over 15-30 s windows into 3-5%.
"""

from __future__ import annotations

import gc
import signal
import statistics
import time
from typing import List

#: Seconds of program work between two calibration samples.
TICK_S = 0.5
#: The kernel's typical duration on the reference host.
REFERENCE_KERNEL_S = 0.01
#: Runs of the calibration work per kernel sample.  On the reference host
#: one run's duration is noisy; crediting at the mean of three more than
#: halved the run-to-run spread of a normalized 11 s phase (0.044 to
#: 0.019).
KERNEL_RUNS = 3


class _Node:
    __slots__ = ("op", "args", "name")

    def __init__(self, op: int, args: tuple, name: str):
        self.op = op
        self.args = args
        self.name = name


def _order(node: _Node):
    return node.op, node.name


def kernel() -> float:
    """Mean time of one run of the calibration work over
    :data:`KERNEL_RUNS` runs: object construction, attribute access, dict
    grouping and sorting, the operations the program's IR passes are made
    of.  The collector is off while it runs, so the program's heap size
    cannot change how long it takes."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        for _ in range(KERNEL_RUNS):
            nodes = [_Node(i % 7, tuple(range(i % 5)), f"v{i}")
                     for i in range(8000)]
            groups: dict = {}
            for node in nodes:
                groups.setdefault((node.op, len(node.args)),
                                  []).append(node.name)
            sorted(nodes, key=_order)
        return (time.perf_counter() - start) / KERNEL_RUNS
    finally:
        if enabled:
            gc.enable()


class HostClock:
    """A clock that advances in reference-host seconds.

    Use as a context manager around the timed work and read :meth:`now`
    at its boundaries; differences of :meth:`now` are durations rescaled
    to the reference host's speed.  Every read and every timer tick runs
    the kernel and closes the stretch since the last one, crediting it at
    the mean of the speeds measured at its two ends.  Only one may be
    active per process (it owns ``SIGALRM``), and only in the main thread.
    """

    def __init__(self) -> None:
        self.samples: List[float] = []
        self._credited = 0.0
        self._busy = False

    def __enter__(self) -> "HostClock":
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        self.samples.append(kernel())
        self._mark = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def _tick(self, signum, frame) -> None:
        if not self._busy:  # a tick inside now() is skipped
            self.now()

    def now(self) -> float:
        """Reference-host seconds of program time since the clock started."""
        self._busy = True
        try:
            stretch = time.perf_counter() - self._mark
            self.samples.append(kernel())
            before, after = self.samples[-2:]
            self._credited += rescale(stretch, before, after)
            self._mark = time.perf_counter()
            return self._credited
        finally:
            self._busy = False

    def speed(self) -> float:
        """The host's median speed relative to the reference (1 = same)."""
        return REFERENCE_KERNEL_S / statistics.median(self.samples)


def rescale(seconds: float, before: float, after: float) -> float:
    """Rescale a duration to the reference host at the mean of the speeds
    the kernel measured just *before* and *after* it."""
    return seconds * REFERENCE_KERNEL_S * (1 / before + 1 / after) / 2
