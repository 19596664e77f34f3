"""convderiv benchmark: seeded certified-job mixes, timed end to end.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all [--defects]

Each workload runs in a fresh worker process with one BLAS/OpenMP thread;
set-up is timed in separate fresh interpreters.  ``--trace 0`` prints the
end-to-end metrics and ``--trace 1`` the per-layer ones; the last line of
standard output is one JSON object.  ``--workload all`` prints every
end-to-end metric of every workload, with sample counts and the cause of
each failed job.  ``--defects`` adds the known-defect inputs to the mix
(see README.md).
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

WORKLOADS = ("deriv-rules", "algebra-ops", "cheese", "bimodule")
END_TO_END = ("jobs_per_s", "job_p50_ms", "job_p90_ms", "peak_rss_mb",
              "setup_s")
SETUP_RUNS = 11
DEADLINE_S = 170.0  # every run must end within 180 s
THREADS = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
           "MKL_NUM_THREADS": "1", "NUMEXPR_NUM_THREADS": "1"}

# A fresh interpreter imports numpy, then the CLI, notes when it is ready
# for its first job, and times every calibration part three times.
PROBE = """
import os, statistics, sys, time
start = time.perf_counter()
import numpy
numpy_s = time.perf_counter() - start
sys.path.insert(0, sys.argv[1])
import convderiv.cli
ready = time.time()
convderiv_s = time.perf_counter() - start - numpy_s
if os.path.dirname(convderiv.cli.__file__) != os.path.join(sys.argv[1],
                                                           "convderiv"):
    sys.exit("convderiv was not imported from " + sys.argv[1])
sys.path.insert(0, sys.argv[2])
import calibration
kernel = calibration.Kernel(calibration.PARTS)
speed = kernel.speed([kernel.time() for _ in range(3)])
print(ready, numpy_s, convderiv_s, speed)
"""


def environment() -> dict:
    env = dict(os.environ, **THREADS)
    env.pop("PYTHONPATH", None)
    return env


def measure_setup(deadline: float) -> dict:
    """Start-to-ready wall time of fresh interpreters, in reference-machine
    seconds: the median over SETUP_RUNS launches."""
    samples = []
    for _ in range(SETUP_RUNS):
        launched = time.time()
        done = subprocess.run(
            [sys.executable, "-c", PROBE, str(SRC), str(HERE)], cwd=ROOT,
            env=environment(), capture_output=True, text=True,
            timeout=max(1.0, deadline - time.monotonic()), check=True)
        ready, numpy_s, convderiv_s, speed = map(float, done.stdout.split())
        samples.append([t * speed for t in
                        (ready - launched, numpy_s, convderiv_s)])
    setup_s, numpy_s, convderiv_s = (statistics.median(column)
                                     for column in zip(*samples))
    return {"setup_s": ("s", setup_s),
            "setup.numpy_import_s": ("s", numpy_s),
            "setup.convderiv_import_s": ("s", convderiv_s)}


def run_workload(name: str, seed: int, seconds: int, trace: int,
                 defects: bool, deadline: float):
    """Set-up probes, then the worker; returns (result, readable lines)."""
    setup = measure_setup(deadline)
    argv = [sys.executable, str(HERE / "worker.py"), "--workload", name,
            "--seed", str(seed), "--seconds", str(seconds),
            "--trace", str(trace)] + (["--defects"] if defects else [])
    done = subprocess.run(argv, cwd=ROOT, env=environment(),
                          capture_output=True, text=True,
                          timeout=max(1.0, deadline - time.monotonic()))
    if done.returncode != 0:
        sys.stderr.write(done.stdout + done.stderr)
        raise RuntimeError(f"{name} worker exited {done.returncode}")
    *lines, last = done.stdout.rstrip("\n").split("\n")
    result = json.loads(last)
    result["metrics"].update({key: {"value": value, "unit": unit}
                              for key, (unit, value) in setup.items()})
    return result, lines


def main() -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS + ("all",),
                        required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--defects", action="store_true",
                        help="add the known-defect inputs to the mix")
    args = parser.parse_args()
    if args.workload == "all" and args.trace:
        parser.error("--workload all prints the end-to-end metrics; "
                     "trace one workload at a time")
    if not (SRC / "convderiv" / "__init__.py").is_file():
        print(f"error: no convderiv sources under {SRC}", file=sys.stderr)
        return 2

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    deadline = time.monotonic() + DEADLINE_S * len(names)
    results = {}
    try:
        for name in names:
            results[name], lines = run_workload(
                name, args.seed, args.seconds, args.trace, args.defects,
                deadline)
            print("\n".join(lines))
    except (RuntimeError, subprocess.SubprocessError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    if args.workload == "all":
        print(f"\n{'workload':12s} {'metric':12s} {'value':>12s} unit  jobs")
        for name, result in results.items():
            jobs = int(result["metrics"]["jobs"]["value"])
            for key in END_TO_END[:-1] + ("fail_frac", "setup_s"):
                metric = result["metrics"][key]
                print(f"{name:12s} {key:12s} {metric['value']:12.4f} "
                      f"{metric['unit']:5s} {jobs}")
        return 0 if all(r["correct"] for r in results.values()) else 1

    result = results[args.workload]
    if args.trace:
        del result["metrics"]["setup_s"]
    else:
        result["metrics"] = {key: result["metrics"][key] for key in END_TO_END}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
