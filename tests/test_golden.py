"""Golden corpus: CLI invocations whose full output is pinned byte for byte.

Each case runs ``cli.main`` in-process from a scratch directory holding the
corpus algebra files, and its exit code, stdout (with the report timestamp
stripped), stderr and any CSV table written are compared with
``tests/golden/<name>.txt``.  A change to an expected file must be justified
on its own.  Regenerate the corpus with ``python tests/test_golden.py``.
"""

import contextlib
import io
import json
import os
import re
import shutil
import sys
from pathlib import Path

import pytest
from test_cli import CERTIFICATE_FAILURES

from convderiv import cli, reports

GOLDEN = Path(__file__).parent / "golden"
README = Path(__file__).parent.parent / "README.md"

CASES = {
    "conv_integers": ["conv", "1,2,3", "4,5"],
    "conv_complex": ["conv", "1+2j,0.5", "0.25,-1j,3"],
    "norm_phi_rational": ["deriv", "norm", "--phi", "1/(n+1)^2",
                          "--depth", "1000"],
    "norm_mu_decay": ["deriv", "norm", "--mu", "2^(1-n)", "--tail", "decay",
                      "--depth", "200"],
    "norm_mu_zero": ["deriv", "norm", "--mu", "1/n", "--tail", "zero:50",
                     "--depth", "100"],
    "norm_phi_none": ["deriv", "norm", "--phi", "(-1)^n/(n+1)^2",
                      "--tail", "none", "--depth", "50"],
    "norm_mu_closed_form": ["deriv", "norm", "--mu", "3^(-n)*n",
                            "--depth", "64"],
    # literal-base powers far past their underflow to zero
    "norm_phi_power_cut": ["deriv", "norm", "--phi", "(-3)^(-n)",
                           "--tail", "decay", "--depth", "2000"],
    "classify_constant": ["deriv", "classify", "--mu", "1"],
    "classify_decay": ["deriv", "classify", "--mu", "n*2^(1-n)",
                       "--tail", "decay"],
    "classify_none": ["deriv", "classify", "--mu", "1/(n+1)",
                      "--tail", "none"],
    "classify_phi_rational": ["deriv", "classify", "--phi", "1/(n+1)^2"],
    "apply_phi_harmonic": ["deriv", "apply", "--phi", "1/(n+1)",
                           "--f", "0,0,1", "--depth", "8"],
    "apply_mu_decay": ["deriv", "apply", "--mu", "2^(1-n)", "--tail",
                       "decay", "--f", "1,2,3,0.5j", "--depth", "40"],
    "apply_mu_power_cut": ["deriv", "apply", "--mu", "5^(-n)", "--tail",
                           "decay", "--f", "1,2", "--depth", "800"],
    "apply_phi_rational": ["deriv", "apply", "--phi", "1/(n+1)^2",
                           "--f", "0.3,-1.7,2.2+1j,0,4", "--depth", "64"],
    "apply_mu_zero": ["deriv", "apply", "--mu", "1/n", "--tail", "zero:20",
                      "--f", "0,1,1", "--depth", "30"],
    "apply_phi_none": ["deriv", "apply", "--phi", "(n+2)/(n+1)^3",
                       "--tail", "none", "--f", "0.1,0,-0.7,0.3",
                       "--depth", "20"],
    "truncate_mu_decay": ["deriv", "truncate", "--mu", "2^(1-n)",
                          "--tail", "decay", "--terms", "3"],
    "truncate_phi_rational": ["deriv", "truncate", "--phi", "1/(n+1)^2",
                              "--terms", "10"],
    "truncate_mu_zero": ["deriv", "truncate", "--mu", "1/n",
                         "--tail", "zero:30", "--terms", "5"],
    "witness_mu_constant": ["deriv", "witness", "--mu", "1", "--eps", "0.5",
                            "--terms", "4"],
    "witness_phi_harmonic": ["deriv", "witness", "--phi", "1/(n+1)",
                             "--eps", "0.5", "--terms", "3"],
    "witness_phi_rational": ["deriv", "witness", "--phi",
                             "(2*n+3)/((n+1)*(n+2))", "--eps", "0.7",
                             "--terms", "3", "--const", "50"],
    "witness_mu_zero_fails": ["deriv", "witness", "--mu", "1/n",
                              "--tail", "zero:10", "--eps", "0.5",
                              "--terms", "2"],
    "error_parse": ["deriv", "norm", "--mu", "n+"],
    "error_unbounded": ["deriv", "norm", "--phi", "n"],
    "error_truncate_undeclared": ["deriv", "truncate", "--mu", "1/n",
                                  "--tail", "none", "--terms", "3"],
    "cheese_build": ["cheese", "build", "--nmax", "6"],
    "cheese_verify": ["cheese", "verify", "--nmax", "8", "--grid", "201"],
    "cheese_verify_csv": ["cheese", "verify", "--nmax", "5", "--grid", "101",
                          "--csv", "table.csv"],
    "cheese_demo": ["cheese", "demo", "--nmax", "6", "--grid", "501"],
    "cheese_demo_csv": ["cheese", "demo", "--nmax", "6", "--grid", "501",
                        "--csv", "table.csv"],
    "bimodule_check_trunc": ["bimodule", "check", "--algebra", "trunc4"],
    "bimodule_check_file": ["bimodule", "check", "--algebra",
                            "@nilsquare.json"],
    "bimodule_check_rounded": ["bimodule", "check", "--algebra",
                               "@rounded.json"],
    "bimodule_rank1_zero": ["bimodule", "rank1", "--algebra", "zero2"],
    "bimodule_rank1_file": ["bimodule", "rank1", "--algebra",
                            "@nilsquare.json"],
    "bimodule_rank1_unital": ["bimodule", "rank1", "--algebra", "trunc3"],
    "bimodule_transfer_trunc4": ["bimodule", "transfer", "--algebra",
                                 "trunc4"],
    "bimodule_transfer_seeded": ["bimodule", "transfer", "--algebra",
                                 "trunc6", "--seed", "7"],
}


def run_case(argv, workdir: Path) -> str:
    """Run one invocation in ``workdir`` and render everything it produced."""
    for algebra in GOLDEN.glob("*.json"):
        shutil.copy(algebra, workdir / algebra.name)
    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(list(argv))
    finally:
        os.chdir(cwd)
    parts = [f"exit: {code}", "--- stdout ---",
             reports.strip_timestamp(out.getvalue()),
             "--- stderr ---", err.getvalue().rstrip("\n")]
    table = workdir / "table.csv"
    if table.exists():
        parts += ["--- table.csv ---", table.read_text().rstrip("\n")]
    return "\n".join(parts) + "\n"


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden(name, tmp_path):
    expected = (GOLDEN / f"{name}.txt").read_text()
    assert run_case(CASES[name], tmp_path) == expected


def test_corpus_has_no_stray_files():
    names = {p.stem for p in GOLDEN.glob("*.txt")}
    assert names == set(CASES)


def test_golden_reports_are_canonical_json():
    # a report is its stdout's lines from "{" to "}"; with the timestamp
    # line stripped it must still be json.dumps(sort_keys, indent=2)
    reports_seen = 0
    for path in sorted(GOLDEN.glob("*.txt")):
        stdout = path.read_text().split("--- stdout ---\n", 1)[1]
        lines = stdout.split("\n--- stderr ---", 1)[0].split("\n")
        if "{" not in lines:
            continue
        text = "\n".join(lines[lines.index("{"):lines.index("}") + 1])
        assert json.dumps(json.loads(text), sort_keys=True,
                          indent=2) == text, path.name
        reports_seen += 1
    assert reports_seen >= 30


def test_every_certificate_is_documented_and_made_to_fail():
    # stderr's "certificate failure: ..." lines name no certificate
    emitted = {match for path in GOLDEN.glob("*.txt")
               for match in re.findall(r"^certificate (\S+): (?:PASS|FAIL)$",
                                       path.read_text(), re.MULTILINE)}
    section = README.read_text().split("### Certificates", 1)[1]
    section = section.split("\n#", 1)[0]
    documented = set(re.findall(r"^\| `([^`]+)` \|", section, re.MULTILINE))
    assert emitted == documented == set(CERTIFICATE_FAILURES)


if __name__ == "__main__":
    import tempfile

    for name, argv in sorted(CASES.items()):
        with tempfile.TemporaryDirectory() as scratch:
            text = run_case(argv, Path(scratch))
        (GOLDEN / f"{name}.txt").write_text(text)
        print(f"wrote {name}.txt", file=sys.stderr)
