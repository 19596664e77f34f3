"""The benchmark's decks run green: every job of one seed-1 deck per
workload passes the check the benchmark itself applies to it, so a change
that breaks a benchmark job fails here, not only when the benchmark runs.

Only reads ``perfbench/``: the bimodule workload writes its algebra files
to a temporary directory.
"""

import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

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
