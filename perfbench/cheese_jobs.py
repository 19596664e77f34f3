"""Workload ``cheese``: ``cheese {build,verify,demo}`` CLI jobs.

Why: this is the only grid-sweep layer.  The ratio of nmax to grid moves
the weight between the scalar height search and the O(n^2 * grid) sweeps,
and every other layer stays idle.

The reference disc family is rebuilt here from the construction's
specification (largest admissible power-of-two height per level, three
checks), and every sum, margin and separation is recomputed with numpy.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from jobs import cli_job, interleave, ints, mismatch, strata

KERNEL = ("sweep", "small")  # calibration parts like this work
REL = 1e-12
NMAX = (8, 25)
GRID = (2001, 100001)


def _admissible(n: int, y: float) -> bool:
    x = 0.5 - 3.0 * 2.0 ** -(n + 2)
    r = y * y
    if math.hypot(x, y) + r >= 1.0 or 1.0 / (1.0 - y) ** 2 >= 2.0:
        return False
    inner = 2.0 ** (-2 * (n + 1)) - y * y
    if inner < 0.0:
        return False
    den = min(math.sqrt(inner) + r,
              math.sqrt(2.0 ** (-2 * (n + 1)) + y * y) - r,
              math.sqrt(2.0 ** (-2 * (n + 2)) + y * y) - r)
    return den > 0.0 and r / den ** 2 < 2.0 ** -(n + 1)


def reference_discs(n_max: int):
    """(x, y, r) arrays of the reference family for levels 1..n_max."""
    levels = range(1, n_max + 1)
    ys = [next(2.0 ** -m for m in range(1, 41) if _admissible(n, 2.0 ** -m))
          for n in levels]
    xs = [0.5 - 3.0 * 2.0 ** -(n + 2) for n in levels]
    ys = np.array(ys)
    return np.array(xs), ys, ys * ys


def _bound_sums(discs, grid: int) -> np.ndarray:
    x, y, r = discs
    pts = np.linspace(0.0, 0.5, grid)
    s = np.abs(pts[:, None] - (x + 1j * y)[None, :]) - r[None, :]
    return 1.0 / (1.0 - pts) ** 2 + (r[None, :] / s ** 2).sum(1)


def build_job(n_max: int):
    def check(result: dict) -> Optional[str]:
        x, y, r = reference_discs(n_max)
        got = np.array([[d["x"], d["y"], d["r"]] for d in result["discs"]])
        return mismatch("discs (x, y, r)", got, np.stack([x, y, r], 1), 0.0)

    return cli_job("build", ["cheese", "build", "--nmax", str(n_max)], 0,
                   check)


def verify_job(n_max: int, grid: int):
    def check(result: dict) -> Optional[str]:
        sums = _bound_sums(reference_discs(n_max), grid)
        top = float(sums.max())
        if result["n_max"] != n_max or result["grid"] != grid:
            return "verification echoes the wrong nmax or grid"
        return (mismatch("max_sum", result["max_sum"], top, REL)
                or mismatch("max_certified", result["max_certified"],
                            top + 2.0 ** -(n_max + 1), REL))

    argv = ["cheese", "verify", "--nmax", str(n_max), "--grid", str(grid)]
    return cli_job("verify", argv, 0, check)


def demo_job(rng, n_max: int, grid: int):
    pairs = [tuple(sorted(rng.choice(n_max, size=2, replace=False)))
             for _ in range(2)]

    def check(result: dict) -> Optional[str]:
        x, y, r = reference_discs(n_max)
        c = x + 1j * y
        pts = np.concatenate([np.linspace(0.0, 0.5, grid), x])
        values = -r[None, :] / (pts[:, None] - c[None, :]) ** 2
        matrix = np.abs(values[grid:, :]).T
        cause = mismatch("|f_n'(x_m)|", np.array(result["matrix"]), matrix,
                         REL, 1e-300)
        seps = np.array(result["separations"])
        for i, j in pairs:
            want = float(np.abs(values[:, i] - values[:, j]).max())
            cause = cause or mismatch(f"separation {i + 1},{j + 1}",
                                      seps[i, j], want, REL)
        off = seps[~np.eye(n_max, dtype=bool)]
        if not cause and result["min_separation"] != off.min():
            cause = "min_separation is not the least reported separation"
        return cause

    argv = ["cheese", "demo", "--nmax", str(n_max), "--grid", str(grid)]
    return cli_job("demo", argv, 0, check)


def deck(rng, defects: bool = False) -> list:
    """nmax and grid stratified, paired by a fixed design."""
    del defects  # this workload has no known-defect shape
    lo, hi = NMAX
    jobs = [build_job(n) for n in ints(strata(rng, 6, lo, hi, log=False))]
    jobs += [verify_job(n, g) for n, g in zip(
        ints(strata(rng, 12, lo, hi, log=False)),
        ints(strata(rng, 12, *GRID, 5)))]
    jobs += [demo_job(rng, n, g) for n, g in zip(
        ints(strata(rng, 12, lo, hi, 5, log=False)),
        ints(strata(rng, 12, *GRID, 7)))]
    return interleave(jobs)


def warmup(rng) -> list:
    return [build_job(10), verify_job(10, 2001), demo_job(rng, 10, 2001)]
