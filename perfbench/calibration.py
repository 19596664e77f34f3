"""Machine-speed calibration: timings in reference-machine seconds.

The reference machine (2 vCPUs of an Intel Xeon at 2.1 GHz, shared with
other tenants) runs the same code up to 1.5x slower for stretches of tens
of seconds, and the slowdown differs between interpreter work, small
numpy calls, memory-bound sweeps and dense contractions.  Each workload
therefore names the kernel parts that resemble its own work.  The parts
call no convderiv code.  A timing is scaled by the reference time of the
parts over their time measured next to it, so a change to the program
moves the figures and a slow stretch of the machine does not.
"""

from __future__ import annotations

import statistics
from time import perf_counter

import numpy as np

_SMALL = np.arange(64.0)
_POINTS = np.linspace(0.0, 0.5, 50000)
_CENTRES = 0.4 + 0.01j * np.arange(1, 17)
_INTS = np.arange(1500, dtype=np.int64) % 19 - 9
_TENSOR = (np.arange(16 ** 3) % 5 - 2).reshape(16, 16, 16).astype(complex)


def _interp():
    total = 0.0
    for i in range(1, 8000):
        total += (i % 7) / (i + 0.5) ** 2
    return total


def _small():
    return sum(float(np.abs(_SMALL * 0.5 + 1.0).max()) for _ in range(300))


def _sweep():
    return float(np.abs(_POINTS[:, None] - _CENTRES[None, :]).max())


def _conv():
    return float(np.convolve(_INTS, _INTS).sum())


def _einsum():
    return float(np.abs(np.einsum("ijm,mkl->ijkl", _TENSOR, _TENSOR)).max())


PARTS = {"interp": _interp, "small": _small, "sweep": _sweep,
         "conv": _conv, "einsum": _einsum}

# Median seconds each part took between the jobs of all four workloads on
# the reference machine; they only fix the unit.
REFERENCE_S = {"interp": 0.0016, "small": 0.0015, "sweep": 0.0064,
               "conv": 0.0018, "einsum": 0.0035}


class Kernel:
    """The calibration parts that resemble one workload's work."""

    def __init__(self, parts):
        self.parts = [PARTS[name] for name in parts]
        self.reference = sum(REFERENCE_S[name] for name in parts)

    def time(self) -> float:
        start = perf_counter()
        for part in self.parts:
            part()
        return perf_counter() - start

    def speed(self, samples: list) -> float:
        """Machine speed relative to the reference, from kernel samples."""
        return self.reference / statistics.median(samples)
