"""Reference-speed timing: wall time scaled by a calibration kernel.

The machine the reference figures come from shares its two cores with other
jobs, and its speed changes by up to 2x, within seconds and over hours.
Wall time alone would then compare the machine's load, not two commits.  So
each piece of timed work is followed at once by a fixed calibration kernel,
run for about SHARE of the work's wall time, and the work's time is scaled
by how much slower than its ``unit_s`` one kernel unit ran just then.  The
result is in reference seconds: what the work would have taken on the
reference machine when nothing else ran on it.

The kernel must slow down with the work it calibrates.  Pure-Python degbal
code follows ``PythonKernel``: over 50 alternations, a
``decompose_balanced`` call at n = 1000 and the kernel correlated at 0.72.
The oracle's NumPy enumeration does not (scaled by ``PythonKernel`` its runs
spread 0.22 against 0.06 in wall time), so it is calibrated with
``NumpyKernel``, a copy of its inner step.

The kernels are benchmark code and no degbal change can move them, so a
change that makes degbal faster or slower moves reference seconds as it
moves wall time.
"""

from __future__ import annotations

from time import perf_counter_ns

SHARE = 0.15


class PythonKernel:
    """Breadth-first search over a fixed 512-vertex graph: dict, set and list work."""

    unit_s = 1.0e-4  # one unit on the reference machine, uncontended

    def __init__(self):
        n = 512
        self._adj = [((v + 1) % n, (v - 1) % n, (v * 7 + 3) % n) for v in range(n)]

    def unit(self) -> int:
        seen = {0}
        queue = [0]
        for v in queue:
            for w in self._adj[v]:
                if w not in seen:
                    seen.add(w)
                    queue.append(w)
        return len(queue)


class NumpyKernel:
    """Masked popcount over 2^20 uint64 masks, the oracle's inner step."""

    unit_s = 2.5e-3

    def __init__(self):
        import numpy as np

        self._np = np
        self._masks = np.arange(1 << 20, dtype=np.uint64)

    def unit(self) -> int:
        deg = self._np.bitwise_count(self._masks & self._np.uint64(0x2A5A5A))
        return int((deg == 3).sum())


class ReferenceClock:
    """Scales wall times of work just done to reference seconds."""

    def __init__(self, kernel=None):
        self.kernel = kernel or PythonKernel()
        self._unit_s = self.kernel.unit_s  # wall time of one kernel unit when last run
        self.wall_s = 0.0  # wall time of the work scaled so far
        self.reference_s = 0.0  # the same work in reference seconds
        self.kernel_s = 0.0  # wall time spent in the kernel itself

    def scale(self, wall_s: float) -> float:
        """wall_s of work that has just ended, in reference seconds."""
        self.wall_s += wall_s
        units = max(1, round(wall_s * SHARE / self._unit_s))
        started = perf_counter_ns()
        for _ in range(units):
            self.kernel.unit()
        kernel_s = (perf_counter_ns() - started) / 1e9
        self._unit_s = kernel_s / units
        reference_s = wall_s * self.kernel.unit_s / self._unit_s
        self.reference_s += reference_s
        self.kernel_s += kernel_s
        return reference_s
