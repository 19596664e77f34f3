"""Jobs, the in-process CLI runner and the seeded draws shared by workloads.

A job is one certified request as a user would make it: ``run`` calls the
program (the timed part) and ``check`` compares the returned output with
the benchmark's own reference, returning the cause of a failure or None.
"""

from __future__ import annotations

import contextlib
import io
import json
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

import convderiv.cli


@dataclass
class Job:
    kind: str
    label: str
    run: Callable[[], object]
    check: Callable[[object], Optional[str]]
    defect: bool = False


@dataclass
class CliRun:
    code: int
    out: str
    err: str


def call_cli(argv: list) -> CliRun:
    """Run ``convderiv.cli.main`` in-process, capturing its output.

    ``main`` is looked up at call time so the traced run sees its wrapper;
    an exception that escapes it fails the job in the worker.
    """
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = convderiv.cli.main(argv)
    return CliRun(code, out.getvalue(), err.getvalue())


def cli_job(kind: str, argv: list, expect_code: int,
            check_result: Optional[Callable[[dict], Optional[str]]] = None,
            defect: bool = False) -> Job:
    """A CLI job whose exit code must be ``expect_code``; on exit 0 every
    certificate must pass and ``check_result`` must accept the result."""

    def check(run: CliRun) -> Optional[str]:
        if run.code not in (0, 1, 2):
            return f"exit {run.code} outside {{0, 1, 2}}"
        start = run.out.find("{")
        report = json.loads(run.out[start:]) if start >= 0 else None
        failed = [f"{c['name']} {c['details']}"
                  for c in (report or {}).get("certificates", [])
                  if not c["passed"]]
        if run.code != expect_code:
            detail = "; ".join(failed) if failed else run.err.strip()
            return f"exit {run.code}, expected {expect_code}: {detail}"
        if expect_code != 0:
            return None
        if report is None:
            return "exit 0 without a report"
        if failed:
            return f"exit 0 with failed certificates: {'; '.join(failed)}"
        return check_result(report["result"]) if check_result else None

    return Job(kind, " ".join(argv), lambda: call_cli(argv), check, defect)


JITTER = 0.1  # share of a slice over which a draw may fall


def strata(rng: np.random.Generator, count: int, lo: float, hi: float,
           step: int = 1, log: bool = True) -> np.ndarray:
    """One seeded draw near the middle of each of ``count`` equal slices of
    [lo, hi].

    Slot i takes slice (step * i) mod count (``step`` coprime to ``count``,
    which pairs slots of different draws differently) and a draw within the
    middle JITTER of it.  Every deck has the same slots, so seeds and decks
    differ in the draws and constants but not in the mix; that keeps the
    end-to-end figures steady.  Slices are equal in log-space when ``log``
    is set.
    """
    slots = (step * np.arange(count)) % count
    u = (slots + 0.5 + JITTER * (rng.random(count) - 0.5)) / count
    return lo * (hi / lo) ** u if log else lo + (hi - lo) * u


def ints(values: np.ndarray) -> list:
    return [int(v) for v in np.rint(values)]


def interleave(jobs: list) -> list:
    """A deck's jobs in a fixed interleaved order, the same for every deck."""
    order = np.random.default_rng(0).permutation(len(jobs))
    return [jobs[i] for i in order]


def mismatch(name: str, got, want, rel: float, floor: float = 0.0
             ) -> Optional[str]:
    """Cause string when |got - want| > rel * |want| + floor, else None."""
    got, want = np.asarray(got), np.asarray(want)
    if got.shape != want.shape:
        return f"{name}: shape {got.shape}, expected {want.shape}"
    err = np.abs(got - want)
    bad = err > rel * np.abs(want) + floor
    if np.any(bad):
        i = int(np.flatnonzero(bad.ravel())[0])
        return (f"{name}: {got.ravel()[i]!r} differs from reference "
                f"{want.ravel()[i]!r}")
    return None


def complex_array(pairs) -> np.ndarray:
    """Decode the reports' ``[re, im]`` pairs (nested lists allowed)."""
    arr = np.asarray(pairs, dtype=float)
    return arr[..., 0] + 1j * arr[..., 1]
