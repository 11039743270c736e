"""Host-speed gauge: a fixed reference kernel timed next to the measured work.

The reference box is a shared host whose vCPUs switch, for seconds to tens
of minutes at a time, between a fast and a slow state (README.md, "Host
normalisation"): the same Chr.1 iteration takes up to 1.75x longer in the
slow state, and CPU time still equals wall time. No statistic over the
program's own times removes that. So every measured interval is paired with
readings of a reference kernel that runs no program code, taken just before
and just after it, and the benchmark reports the interval at the nominal
host speed:

    slowdown         = kernel time / NOMINAL_S
    normalised rate  = measured rate * slowdown ** sensitivity
    normalised time  = measured time / slowdown ** sensitivity

``sensitivity`` is the workload's own (``Workload.host_sensitivity``): how
much of the host's slowdown its work feels, measured on the reference box
by comparing its iterations in the two states. A change to the program
moves the measured rate and not the kernel, so it shows in full.
"""
from __future__ import annotations

import time

import numpy as np

#: Kernel time on the reference box (2-vCPU Xeon at 2.0 GHz) in its fast
#: state. It only fixes the scale of the reported figures; parent and child
#: of a comparison use the same constant.
NOMINAL_S = 2.75e-3

_ROUNDS = 400


class HostGauge:
    """The reference kernel: interpreter work and small NumPy calls, the
    per-call overhead that binds the Chr.1 workloads."""

    def __init__(self) -> None:
        self._x = np.arange(64, dtype=np.float64)
        self._buf = np.zeros(4096)
        self._idx = (np.arange(64) * 37) % self._buf.size
        self.sample()

    def sample(self) -> float:
        """Seconds one run of the kernel takes now."""
        x, buf, idx = self._x, self._buf, self._idx
        t0 = time.perf_counter()
        for i in range(_ROUNDS):
            y = x * 1.0001 + 0.5
            np.add.at(buf, idx, np.sqrt(y * y + 1.0))
            s = 0
            for j in range(40):
                s += j * i
        return time.perf_counter() - t0

    @staticmethod
    def slowdown(kernel_s: float) -> float:
        """How much slower than nominal the host ran, from a kernel time."""
        return kernel_s / NOMINAL_S
