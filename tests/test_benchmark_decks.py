"""The benchmark's decks run green: every job of one seed-1 deck per
workload passes the check the benchmark itself applies to it, so a change
that breaks a benchmark job fails here, not only when the benchmark runs.
The traced run passes too: its worker checks that every per-layer metric
the workload requires is non-zero, which fails when a wrapped function is
no longer called or its counter stays at zero.

Only reads ``perfbench/``: the bimodule workload writes its algebra files
to a temporary directory, and the traced run writes its spans to the
ignored ``.perfbench/``.
"""

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import run  # noqa: E402
import worker  # noqa: E402


@pytest.mark.parametrize("name", worker.WORKLOADS)
def test_every_job_of_a_deck_passes_its_check(name, tmp_path):
    deck, _, _ = worker.workload(name, tmp_path, 1)
    jobs = deck(np.random.default_rng(1), False)
    assert jobs
    failed = []
    for job in jobs:
        cause, _ = worker.execute(job)
        if cause is not None:
            failed.append(f"{job.label}: {cause}")
    assert not failed, "\n".join(failed)


@pytest.mark.parametrize("name", worker.WORKLOADS)
def test_a_traced_run_passes_its_required_metric_check(name):
    done = subprocess.run(
        [sys.executable, str(run.HERE / "worker.py"), "--workload", name,
         "--seed", "1", "--seconds", "1", "--trace", "1"],
        cwd=run.ROOT, env=run.environment(), capture_output=True, text=True,
        timeout=120)
    assert done.returncode == 0, done.stdout + done.stderr
    assert json.loads(done.stdout.splitlines()[-1])["correct"] is True
