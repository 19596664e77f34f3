"""Every demo script runs to completion, and the README names only what
exists."""

import importlib
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_demos_exist():
    assert DEMOS


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.name)
def test_demo_runs(demo):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, str(demo)], env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr


def test_readme_library_tour_names_exist():
    text = (ROOT / "README.md").read_text()
    rows = [line.split("|")[1:3] for line in text.splitlines()
            if line.startswith("| `convderiv.")]
    assert len(rows) == 6
    for modules, contents in rows:
        owners = [importlib.import_module(name)
                  for name in re.findall(r"`(convderiv\.\w+)`", modules)]
        for name in re.findall(r"`([^`]+)`", contents):
            if name.startswith("."):  # a method of the name before it
                continue
            assert any(_resolves(owner, name) for owner in owners), name


def _resolves(owner, dotted):
    for part in dotted.split("."):
        if not hasattr(owner, part):
            return False
        owner = getattr(owner, part)
    return True
