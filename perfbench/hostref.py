"""Host speed: fixed reference loops, and a sampler that runs one while qotto runs.

This machine's speed drifts by tens of percent from minute to minute (other
tenants share it).  A reference loop is timed while the workload runs, and
each op's wall time is scaled to a nominal host on which the loop runs at
its ``nominal`` speed:

    nominal time = wall time * (measured loop speed / nominal loop speed)

A slower spell of the host slows the loop and the ops alike, so the scaled
time stays put.  The loops are benchmark code and never change with the
program, so a change in the program still shows in full.

``NUMPY`` (eigh and matmul on 4x4, the kind of call qotto makes) tracks the
ops best; ``PYTHON`` (dict updates) needs no numpy, so it can run while
``import qotto`` is itself importing numpy.  This module imports numpy only
when the numpy loop first runs, and nothing that qotto would import, so that
a set-up probe can load it before the imports it times.
"""

from __future__ import annotations

import signal
import time

_h0 = None


def _numpy_loop(iterations: int) -> None:
    global _h0
    import numpy as np

    if _h0 is None:
        rng = np.random.default_rng(0)
        a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        _h0 = a + a.conj().T
    h = _h0
    for _ in range(iterations):
        vals, vecs = np.linalg.eigh(h)
        h = (vecs * vals) @ vecs.conj().T


def _python_loop(iterations: int) -> None:
    d: dict[int, int] = {}
    for i in range(iterations):
        d[i & 255] = d.get(i & 255, 0) + i * 3


class RefLoop:
    def __init__(self, body, slice_iterations: int, nominal: float):
        self.body = body
        self.slice_iterations = slice_iterations  # one sample: a few milliseconds
        self.nominal = nominal  # iterations per second on the nominal host

    def speed(self, iterations: int) -> float:
        """Iterations per second over ``iterations`` iterations."""
        t = time.perf_counter()
        self.body(iterations)
        return iterations / (time.perf_counter() - t)


NUMPY = RefLoop(_numpy_loop, slice_iterations=300, nominal=50_000.0)
PYTHON = RefLoop(_python_loop, slice_iterations=3000, nominal=6_000_000.0)


def reference_speed(iterations: int) -> float:
    """Speed of the numpy loop over ``iterations`` iterations, after a short warm-up."""
    NUMPY.speed(50)
    return NUMPY.speed(iterations)


IMPORT_SAMPLE_EVERY_S = 0.05


def timed_import(*names: str) -> tuple[float, float]:
    """(wall, nominal-host) seconds to import ``names`` in order, sampling ``PYTHON``."""
    with HostSampler(PYTHON, IMPORT_SAMPLE_EVERY_S) as sampler:
        t0 = time.perf_counter()
        for name in names:
            __import__(name)
        t1 = time.perf_counter()
    wall, scaled = sampler.scale([t0], [t1])
    return float(wall[0]), float(scaled[0])


class HostSampler:
    """Times a slice of ``loop`` every ``every`` seconds of wall time, from SIGALRM.

    Python runs the handler between bytecodes, so a slice lies wholly
    inside or wholly outside any interval the caller timed with
    ``time.perf_counter()``; ``scale`` removes the slices from each op's
    time and scales the rest by the loop speed measured during the op (or,
    for an op shorter than the period, by the two slices around it).
    """

    def __init__(self, loop: RefLoop, every: float):
        self.loop = loop
        self.every = every
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.speeds: list[float] = []

    def _sample(self, *_):
        t = time.perf_counter()
        speed = self.loop.speed(self.loop.slice_iterations)
        self.starts.append(t)
        self.ends.append(time.perf_counter())
        self.speeds.append(speed)

    def __enter__(self):
        self._sample()
        self._old = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.every, self.every)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._old)
        self._sample()
        return False

    def scale(self, op_starts, op_ends):
        """(wall time without slices, nominal-host time) for each op interval, as arrays."""
        import numpy as np

        a, b = np.asarray(op_starts), np.asarray(op_ends)
        starts, speeds = np.asarray(self.starts), np.asarray(self.speeds)
        paused = np.concatenate([[0.0], np.cumsum(np.asarray(self.ends) - starts)])
        summed = np.concatenate([[0.0], np.cumsum(speeds)])
        j0 = np.searchsorted(starts, a)
        j1 = np.searchsorted(starts, b)
        wall = (b - a) - (paused[j1] - paused[j0])
        inside = j1 > j0
        before = speeds[np.maximum(j0 - 1, 0)]
        after = speeds[np.minimum(j0, speeds.size - 1)]
        speed = np.where(inside, (summed[j1] - summed[j0]) / np.maximum(j1 - j0, 1), 0.5 * (before + after))
        return wall, wall * speed / self.loop.nominal

    def median_speed(self) -> float:
        return sorted(self.speeds)[len(self.speeds) // 2]
