"""One workload in one process: a seeded closed-loop job mix.

One client replays the mix: the next job starts when the previous one has
returned and its output has been checked.  Started by run.py, which sets
the thread-count environment; prints readable lines and, last, one JSON
object with the attempt counts and the metrics.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S
                                --trace 0|1 [--defects]
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import sys
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Optional

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"

sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

import convderiv  # noqa: E402

if Path(convderiv.__file__).resolve().parent != SRC / "convderiv":
    raise SystemExit(f"convderiv was imported from {convderiv.__file__}, "
                     f"not from {SRC}")

import algebra_ops  # noqa: E402
import bimodule_jobs  # noqa: E402
import calibration  # noqa: E402
import cheese_jobs  # noqa: E402
import deriv_rules  # noqa: E402
import tracing  # noqa: E402
from jobs import Job  # noqa: E402

WORKLOADS = ("deriv-rules", "algebra-ops", "cheese", "bimodule")
SAMPLE_EVERY_S = 0.2  # calibration kernel between jobs, at most this often


@dataclass
class Record:
    job: Job
    seconds: float        # measured wall time
    cause: Optional[str]  # why the job failed, or None
    sample: int           # index of the kernel sample taken before it


def workload(name: str, workdir: Path, seed: int):
    """(deck(rng, defects), warmup(rng), calibration parts) for a workload."""
    if name == "bimodule":
        files = bimodule_jobs.Files(str(workdir), np.random.default_rng(
            [seed, 1]))
        return (lambda rng, defects: bimodule_jobs.deck(rng, files, defects),
                lambda rng: bimodule_jobs.warmup(files), bimodule_jobs.KERNEL)
    module = {"deriv-rules": deriv_rules, "algebra-ops": algebra_ops,
              "cheese": cheese_jobs}[name]
    return module.deck, module.warmup, module.KERNEL


def execute(job: Job, tracer=None, job_id: int = 0):
    """Run one job; returns (cause of failure or None, seconds)."""
    if tracer is not None:
        tracer.begin_job(job_id)
    start = perf_counter()
    try:
        out, raised = job.run(), None
    except Exception as exc:  # an escaped exception is a failed job
        out, raised = None, exc
    elapsed = perf_counter() - start
    if tracer is not None:
        elapsed = tracer.end_job()
    if raised is not None:
        return f"uncaught {type(raised).__name__}: {raised}", elapsed
    try:
        return job.check(out), elapsed
    except Exception as exc:  # malformed output fails the job
        return f"output check raised {type(exc).__name__}: {exc}", elapsed


class Loop:
    """The closed loop, with calibration samples taken between jobs."""

    def __init__(self, kernel: calibration.Kernel):
        self.kernel = kernel
        self.samples = []
        self._last = -float("inf")

    def run(self, jobs, seconds: float, tracer=None) -> list:
        records = []
        start = perf_counter()
        for i, job in enumerate(jobs):
            now = perf_counter()
            if now - start >= seconds:
                break
            if now - self._last >= SAMPLE_EVERY_S:
                self.samples.append(self.kernel.time())
                self._last = perf_counter()
            cause, elapsed = execute(job, tracer, i)
            records.append(Record(job, elapsed, cause, len(self.samples) - 1))
        return records

    def run_decks(self, deck, rng, defects: bool, seconds: float) -> list:
        """Whole decks until ``seconds`` have passed: every run times the
        same mix, whatever the speed of the program."""
        records = []
        start = perf_counter()
        while not records or perf_counter() - start < seconds:
            records += self.run(deck(rng, defects), float("inf"))
        return records

    def scaled(self, records) -> np.ndarray:
        """Latencies in reference-machine seconds, each scaled by the
        machine speed over the five kernel samples around it."""
        return np.array([r.seconds * self.kernel.speed(
            self.samples[max(0, r.sample - 2):r.sample + 3])
            for r in records])


def end_to_end(loop: Loop, records) -> dict:
    seconds = loop.scaled(records)
    passed = sum(r.cause is None for r in records)
    raw = np.array([r.seconds for r in records])
    print(f"machine speed {loop.kernel.speed(loop.samples):.3f} of the "
          f"reference; unscaled: {passed / raw.sum():.4f} jobs/s, p50 "
          f"{1e3 * np.percentile(raw, 50):.3f} ms, p90 "
          f"{1e3 * np.percentile(raw, 90):.3f} ms")
    return {
        # the client pauses while outputs are checked, so the program's
        # wall time is the sum of the job latencies
        "jobs_per_s": ("1/s", passed / seconds.sum()),
        "job_p50_ms": ("ms", 1e3 * float(np.percentile(seconds, 50))),
        "job_p90_ms": ("ms", 1e3 * float(np.percentile(seconds, 90))),
        "fail_frac": ("frac", (len(records) - passed) / len(records)),
        "peak_rss_mb": ("MB", resource.getrusage(resource.RUSAGE_SELF)
                        .ru_maxrss / 1024.0),
        "jobs": ("count", float(len(records))),
    }


def traced_pass(loop: Loop, name: str, seed: int, seconds: float,
                untraced: list):
    """Replay the untraced jobs with every layer wrapped."""
    tracer = tracing.Tracer()
    tracing.install(tracer)
    traced = loop.run([r.job for r in untraced], seconds, tracer)
    # both passes in reference-machine time, so drift between them cancels
    overhead = loop.scaled(traced).sum() / loop.scaled(
        untraced[:len(traced)]).sum() - 1.0
    covered = sum(tracer.self_s.values())
    if abs(covered - tracer.job_s) > 1e-6 * tracer.job_s:
        raise SystemExit(f"self times sum to {covered:.6f} s but the job "
                         f"spans to {tracer.job_s:.6f} s")
    metrics = tracing.layer_metrics(tracer)
    metrics["trace.overhead_frac"] = ("ratio", overhead)
    metrics["trace.jobs"] = ("count", float(tracer.jobs))
    missing = [m for m in tracing.REQUIRED[name] if not metrics[m][1] > 0]
    if missing:
        raise SystemExit(f"per-layer metrics zero on {name}: {missing}; a "
                         f"wrapper missed its binding site")
    OUT.mkdir(exist_ok=True)
    spans = OUT / f"spans-{name}-seed{seed}.jsonl"
    tracer.write_spans(str(spans), {"workload": name, "seed": seed,
                                    "jobs": tracer.jobs})
    print(f"traced {tracer.jobs} jobs ({len(tracer.spans)} spans -> "
          f"{spans.relative_to(ROOT)}); self time per job by layer:")
    for layer, total in sorted(tracer.self_s.items(), key=lambda kv: -kv[1]):
        print(f"  {layer:12s} {1e3 * total / tracer.jobs:10.3f} ms")
    print(f"  {'sum':12s} {1e3 * covered / tracer.jobs:10.3f} ms = job span "
          f"{1e3 * tracer.job_s / tracer.jobs:.3f} ms; tracing overhead "
          f"{100 * metrics['trace.overhead_frac'][1]:+.1f}% over the "
          f"untraced run of the same jobs")
    return traced, metrics


def report(name: str, warm: list, records: list) -> int:
    """Readable summary: counts, latency by kind, causes of failures."""
    failed = [r for r in warm + records if r.cause is not None]
    print(f"{name}: {len(records)} timed jobs, {len(warm)} warm-up jobs, "
          f"{len(failed)} failed")
    if len(records) < 100:
        print("  fewer than 100 timed jobs: p90 rests on under ten samples")
    by_kind = defaultdict(list)
    for r in records:
        by_kind[r.job.kind].append(r.seconds)
    for kind, times in sorted(by_kind.items()):
        print(f"  {kind:16s} n={len(times):4d}  "
              f"p50={1e3 * np.median(times):9.2f} ms  "
              f"max={1e3 * max(times):9.2f} ms")
    causes = defaultdict(list)
    for r in failed:
        causes[r.cause].append(r.job)
    for cause, jobs in sorted(causes.items(), key=lambda kv: -len(kv[1])):
        tag = " [known defect]" if jobs[0].defect else ""
        print(f"  FAILED x{len(jobs)}{tag}: {jobs[0].label}\n"
              f"    cause: {cause}")
    return len(failed)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--defects", action="store_true",
                        help="add the known-defect inputs to the mix")
    args = parser.parse_args()

    os.chdir(ROOT)  # the CLI reads the @file algebras relative to the root
    workdir = OUT.relative_to(ROOT) / f"work-{os.getpid()}"
    try:
        deck, warmup, parts = workload(args.workload, workdir, args.seed)
        loop = Loop(calibration.Kernel(parts))
        rng = np.random.default_rng(args.seed)
        warm = loop.run(warmup(rng), float("inf"))
        if args.trace:
            # half the time untraced, then the same jobs traced
            records = loop.run_decks(deck, rng, args.defects, args.seconds / 2)
            traced, metrics = traced_pass(loop, args.workload, args.seed,
                                          args.seconds / 2, records)
            records += traced
        else:
            records = loop.run_decks(deck, rng, args.defects, args.seconds)
            metrics = end_to_end(loop, records)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed = report(args.workload, warm, records)
    print(json.dumps({
        "correct": failed == 0, "attempted": len(warm) + len(records),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (unit, value) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
