"""Command-line surface: dispatch, exit codes, report determinism."""

import argparse
import json
import os
import subprocess
import sys
import time
from collections import Counter
from dataclasses import replace
from pathlib import Path

import jsonschema
import numpy as np
import pytest
from ruletrees import random_expr
from test_bimodules import change_basis, ideal

from convderiv import bimodules, cheese, cli, reports, rules
from convderiv.bimodules import FiniteMap
from convderiv.convolution import (
    UNDECLARED,
    ClosedForm,
    Decay,
    L1Element,
    ZeroTail,
    act_on_dual,
)
from convderiv.derivations import Derivation

SRC = Path(__file__).resolve().parent.parent / "src"
NILSQUARE = Path(__file__).resolve().parent / "golden" / "nilsquare.json"


def run(argv):
    return cli.main(argv)


def run_report(argv, tmp_path, name="report.json"):
    path = tmp_path / name
    code = cli.main(list(argv) + ["--out", str(path)])
    return code, json.loads(path.read_text())


def run_process(argv, module="convderiv"):
    """The CLI run in a fresh interpreter, from this checkout's source."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-m", module, *argv], env=env,
                          capture_output=True, text=True, timeout=60)


def test_norm_harmonic_is_exactly_one(tmp_path):
    code, report = run_report(
        ["deriv", "norm", "--phi", "1/(n+1)", "--depth", "1000"], tmp_path)
    assert code == 0
    assert report["result"]["lower"] == 1.0
    assert report["result"]["exact"] == 1.0
    assert report["inputs"]["tail"]["certificate"] == "constant"


def test_witness_constant_rule(tmp_path):
    code, report = run_report(
        ["deriv", "witness", "--mu", "1", "--eps", "0.5", "--terms", "4"],
        tmp_path)
    assert code == 0
    assert report["result"]["j"][0] == 1001
    assert report["result"]["l"][0] == 1000
    assert report["result"]["separation"] > 0.125
    assert len(report["result"]["gaps"]) == 6
    assert all(c["passed"] for c in report["certificates"])


def test_classify_three_ways(tmp_path):
    code, report = run_report(
        ["deriv", "classify", "--mu", "1"], tmp_path)
    assert code == 0 and report["result"]["verdict"] == "noncompact"
    code, report = run_report(
        ["deriv", "classify", "--mu", "n*2^(1-n)", "--tail", "decay"],
        tmp_path)
    assert code == 0 and report["result"]["verdict"] == "compact"
    code, report = run_report(
        ["deriv", "classify", "--mu", "1/(n+1)", "--tail", "none"], tmp_path)
    assert code == 0 and report["result"]["verdict"] == "inconclusive"


def test_truncate_geometric(tmp_path):
    code, report = run_report(
        ["deriv", "truncate", "--mu", "2^(1-n)", "--tail", "decay",
         "--terms", "3"], tmp_path)
    assert code == 0
    assert report["result"]["error"] == 0.125


def test_apply_polynomial(tmp_path):
    code, report = run_report(
        ["deriv", "apply", "--phi", "1/(n+1)", "--f", "0,0,1",
         "--depth", "8"], tmp_path)
    assert code == 0
    values = report["result"]["values"]
    assert values[0][0] == pytest.approx(1.0)  # 2/(0+2)
    assert values[2][0] == pytest.approx(0.5)  # 2/(2+2)


def test_conv_subcommand(tmp_path):
    code, report = run_report(["conv", "1,1", "1,1"], tmp_path)
    assert code == 0
    assert report["result"]["coefficients"] == [[1, 0], [2, 0], [1, 0]]
    assert report["result"]["l1_norm"] == 4.0


def test_conv_rounding_is_no_certificate_failure(tmp_path):
    # the product norm 7834.4000000000015 passes 7834.4 by one rounding
    code, report = run_report(["conv", "0.6,0.8", "5499,97"], tmp_path)
    assert code == 0
    details = report["certificates"][0]["details"]
    assert details["product_norm"] > details["factor_bound"]
    rng = np.random.default_rng(0)
    over = 0
    for _ in range(2000):
        a, b = (",".join(repr(float(x)) for x in 10.0 ** rng.uniform(
            -3, 6, rng.integers(2, 8))) for _ in range(2))
        cert = cli._cmd_conv(argparse.Namespace(a=a, b=b)).certificates[0]
        assert cert["passed"], (a, b)
        over += cert["details"]["product_norm"] \
            > cert["details"]["factor_bound"]
    assert over > 0  # the rounding shows, and the bound absorbs it


def test_conv_certificate_survives_underflow(tmp_path, monkeypatch):
    # each product 2.96e-324 rounds up to 4.9e-324 while the bound
    # 5.9e-324 rounds down; the moduli of a subnormal a lose digits that
    # the bound multiplies by 1e300
    for argv in (["1.72e-162,1.72e-162", "1.72e-162"],
                 ["1e-320+1e-320j", "1e300"], ["1e-200", "3e-200"]):
        code, report = run_report(["conv", *argv], tmp_path)
        assert code == 0, argv
    # the absolute term does not hide a wrong product on the direct route
    argv = ["conv", "0.6,0.8", "5499,97"]
    assert cli.convolve_with_radius(*map(cli._coeffs, argv[1:]))[2] \
        == "direct"
    monkeypatch.setattr(cli, "convolve_with_radius", _then(
        lambda p: (L1Element(p[0].coeffs * (1 + 1e-9)),) + p[1:])(
            cli.convolve_with_radius))
    code, report = run_report(argv, tmp_path)
    assert code == 1 and not report["certificates"][0]["passed"]


def test_conv_reports_how_exact_it_is(tmp_path):
    code, report = run_report(["conv", "1,1", "1,1"], tmp_path)
    assert (report["result"]["exact"], report["result"]["radius"]) == \
        (True, 0.0)
    # (2^27 + 1)^2 = 18014398777917441 rounds to ...440: not exact, and the
    # radius covers the lost 1
    code, report = run_report(["conv", "134217729", "134217729"], tmp_path)
    assert code == 0
    assert report["result"]["coefficients"] == [[18014398777917440, 0]]
    assert report["result"]["exact"] is False
    assert report["result"]["radius"] >= 1
    # an FFT product: the certificate still passes, with the radius
    terms = ",".join(["0.5"] * 600)
    code, report = run_report(["conv", terms, terms], tmp_path)
    assert code == 0 and report["result"]["exact"] is False
    assert 0 < report["result"]["radius"] < 1e-8
    assert cli.convolve_with_radius(*[cli._coeffs(terms)] * 2)[2] == "fft"


def test_non_associative_algebra_file_is_an_input_error(tmp_path, capsys):
    c = np.zeros((3, 3, 3))
    c[1, 1, 0] = c[0, 1, 1] = c[1, 0, 1] = 1.0
    c[2, 2, 2] = 1e6
    path = tmp_path / "nonassoc.json"
    path.write_text(json.dumps({"dim": 3, "c": c.tolist()}))
    assert run(["bimodule", "check", "--algebra", f"@{path}"]) == 2
    assert "associativity defect 1.000e+00 exceeds 1.0e-12" in \
        capsys.readouterr().err


def test_parse_error_exit_code(capsys):
    assert run(["deriv", "norm", "--phi", "n*"]) == 2
    assert "operand expected at position 3" in capsys.readouterr().err


def test_unbounded_phi_exit_code(capsys):
    assert run(["deriv", "norm", "--phi", "1"]) == 2
    assert "bounded derivation" in capsys.readouterr().err


def test_unknown_tail_truncation_exit_code(capsys):
    assert run(["deriv", "truncate", "--mu", "2^(1-n)", "--terms", "3"]) == 2
    assert "tail" in capsys.readouterr().err


def test_lying_decay_declaration_fails_certificate(capsys):
    code = run(["deriv", "norm", "--mu", "n/(n+1)", "--tail", "decay"])
    assert code == 1
    assert "certificate failure" in capsys.readouterr().err


def test_no_witness_for_compact_rule_exit_code(capsys):
    code = run(["deriv", "witness", "--mu", "2^(1-n)", "--tail", "decay",
                "--eps", "0.5", "--terms", "2"])
    assert code == 1


def test_usage_error_exit_code():
    assert run(["deriv", "norm"]) == 2  # neither --phi nor --mu
    assert run(["nonsense"]) == 2


def test_overflow_is_an_input_error(capsys):
    assert run(["deriv", "norm", "--mu", "10^400"]) == 2
    assert run(["deriv", "norm", "--mu", "55^n", "--depth", "200"]) == 2
    assert "power overflows a double (at n = " in capsys.readouterr().err


def test_deeply_nested_rules_are_an_input_error(capsys):
    # the parser recurses per level, so nesting is capped before Python's
    # recursion limit
    parens = "(" * 400 + "1/(n+1)^2" + ")" * 400
    assert run(["deriv", "norm", "--mu", parens]) == 2
    assert run(["deriv", "norm", "--mu=" + "-" * 1200 + "1/(n+1)^2"]) == 2
    err = capsys.readouterr().err
    assert err.count(f"more than {rules.MAX_NESTING} nested parentheses "
                     f"and minus signs at position 101") == 2


def test_random_rules_exit_with_a_contract_code(capsys):
    # every rule gives 0, 1 or 2; an exception escaping main fails the test
    rng = np.random.default_rng(0)
    for _ in range(100):
        text = rules.format_rule(random_expr(rng, int(rng.integers(1, 5))))
        for flag in ("--mu", "--phi"):
            argv = ["deriv", "norm", flag, text, "--depth", "200"]
            assert run(argv) in (0, 1, 2), argv
    capsys.readouterr()


def test_huge_exact_constant_names_its_cause(capsys):
    assert run(["deriv", "norm", "--mu", "10^400"]) == 2
    err = capsys.readouterr().err
    assert "exact constant of the rule exceeds the float range" in err


@pytest.mark.parametrize("rule", [
    "1/n+1^100000000", "n^2000", "((n+1)/(n+2))^128"])
def test_exact_analysis_past_its_limits_stays_fast(rule):
    # each of these took seconds or minutes of exact arithmetic before the
    # analysis declined past degree 64 and 2^16-bit constant powers
    start = time.perf_counter()
    done = run_process(["deriv", "norm", "--mu", rule], "convderiv.cli")
    assert done.returncode in (0, 1, 2), done.stderr
    assert time.perf_counter() - start < 2.0


def test_the_package_runs_as_a_module():
    done = run_process(["bimodule", "check", "--algebra", "trunc4"])
    assert done.returncode == 0, done.stderr
    report = json.loads(done.stdout)
    jsonschema.validate(report, reports.REPORT_SCHEMA)
    assert report["result"] == {"dim": 4, "square_span_dim": 4,
                                "associativity_defect": 0.0}


@pytest.mark.parametrize("argv", [
    ["--mu", "1", "--tail", "zero:1000000000000"],
    # the exact analysis puts the decay start near 1e11
    ["--mu", "1/(n-100000000000.5)"]], ids=["zero", "decay"])
def test_truncation_past_the_probe_cap_is_refused_at_once(argv):
    start = time.perf_counter()
    done = run_process(["deriv", "truncate", *argv, "--terms", "3"],
                       "convderiv.cli")
    assert done.returncode == 2, done.stderr
    assert "beyond the probe cap" in done.stderr
    assert time.perf_counter() - start < 2.0


@pytest.mark.parametrize("argv, unread", [
    (["--mu", "1/(n+1)^2"], 257),
    (["--mu", "1/n", "--tail", "zero:30"], 30),
    (["--mu", "2"], 257)], ids=["decay", "zero", "constant"])
def test_truncate_reads_each_index_once(monkeypatch, tmp_path, argv, unread):
    seen = Counter()
    compile_rule, compile_block = rules.rule_callable, rules._compile_block

    def counting(expr):
        rule = compile_rule(expr)

        def evaluate(n):
            seen[n] += 1  # a scalar rule: each call is one index
            return rule(n)
        return evaluate

    def counting_block(expr):
        block = compile_block(expr)

        def evaluate(n):
            values = block(n)  # a block sent on per index raises here
            seen.update(n.tolist())  # an array: each element is one index
            return values
        return evaluate

    monkeypatch.setattr(rules, "rule_callable", counting)
    monkeypatch.setattr(rules, "_compile_block", counting_block)
    code, report = run_report(
        ["deriv", "truncate", *argv, "--terms", "10", "--depth", "256"],
        tmp_path)
    assert code == 0
    # the head is read through the truncated derivation, and the
    # certificate's probe reads on from where the truncation error stopped
    assert seen == Counter(range(1, unread))


def _typed_rule_calls(monkeypatch):
    """Records the type of every index passed to a callable that
    rules.rule_callable returns, as a traced benchmark run counts them."""
    types = Counter()
    compile_rule = rules.rule_callable

    def counting(expr):
        rule = compile_rule(expr)

        def evaluate(n):
            types[type(n)] += 1
            return rule(n)
        return evaluate

    monkeypatch.setattr(rules, "rule_callable", counting)
    return types


@pytest.mark.parametrize("argv", [
    ["witness", "--phi", "1/(n+1)", "--eps", "0.5", "--terms", "3"],
    ["witness", "--mu", "1+2^(-n)", "--tail", "decay", "--eps", "0.5",
     "--terms", "3"],
    ["classify", "--mu", "1/(n+1)^2", "--depth", "5000"],
    ["classify", "--phi", "(n+2)/(n^2+1)", "--depth", "5000"]],
    ids=["witness-phi", "witness-mu", "classify-mu", "classify-phi"])
def test_the_compiled_rule_sees_python_ints_only(monkeypatch, capsys, argv):
    # a block of indices is evaluated as an array past the compiled rule;
    # the indices read one at a time (witness indices, the first index
    # below the tolerance, the rechecks) still reach it, as Python ints
    types = _typed_rule_calls(monkeypatch)
    assert run(["deriv", *argv]) == 0
    capsys.readouterr()
    assert types[int] > 0 and set(types) == {int}


@pytest.mark.parametrize("flag, n", [("--mu", 1), ("--phi", 0)])
def test_classify_on_a_rule_that_cannot_be_evaluated_is_an_input_error(
        flag, n, capsys):
    # the default closed-form tail alone would give "inconclusive"
    for command in ("norm", "classify"):
        assert run(["deriv", command, flag, "n^(1/2)"]) == 2
        assert capsys.readouterr().err == \
            f"error: exponent 0.5 is not an integer (at n = {n})\n"


def test_a_rule_failing_at_its_first_index_is_an_input_error(monkeypatch,
                                                             capsys):
    types = _typed_rule_calls(monkeypatch)
    for command in (["norm"], ["classify"], ["truncate", "--terms", "3"]):
        assert run(["deriv", *command, "--mu", "1/(n-1)"]) == 2
        assert capsys.readouterr().err == \
            "error: division by zero (at n = 1)\n"
    assert set(types) == {int}


def test_truncate_probe_that_ends_inside_the_truncation_read(tmp_path):
    # mu vanishes from 1000 on, so the error reads mu up to 999, past the
    # probe; the probe still reports its own maximum, at 256
    code, report = run_report(
        ["deriv", "truncate", "--mu", "n", "--tail", "zero:1000",
         "--terms", "3"], tmp_path)
    assert code == 0 and report["result"]["error"] == 999.0
    assert report["certificates"][0]["details"] == {
        "err": 999.0, "probe_sup": 256.0, "probe_to": 256}


def test_negative_zero_tail_start_is_an_input_error(capsys):
    assert run(["deriv", "norm", "--mu", "1", "--tail", "zero:-3"]) == 2
    assert "bad zero-tail index in 'zero:-3'" in capsys.readouterr().err


_WITNESS_ONE = ["witness", "--mu", "1", "--eps", "0.5", "--terms", "2"]


@pytest.mark.parametrize("argv, message", [
    (["classify", "--mu", "1/(n+1)^2", "--tol", "nan"],
     "tolerance must be positive"),
    (["classify", "--mu", "1", "--tol", "nan"], "tolerance must be positive"),
    (_WITNESS_ONE + ["--const", "0"], "growth constant must be positive"),
    (_WITNESS_ONE + ["--const", "-5"], "growth constant must be positive"),
    (["witness", "--mu", "1", "--eps", "nan", "--terms", "2"],
     "epsilon must be positive"),
], ids=["tol-nan-decay", "tol-nan-constant", "const-zero", "const-negative",
        "eps-nan"])
def test_a_nan_or_non_positive_flag_is_an_input_error(capsys, argv, message):
    assert run(["deriv", *argv]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("argv, message", [
    # an infinite tolerance would be written as Infinity, which is not JSON
    (["classify", "--mu", "1/(n+1)^2", "--tol", "inf"],
     "tolerance must be finite"),
    (["witness", "--mu", "1", "--eps", "inf", "--terms", "2"],
     "epsilon must be finite"),
    (_WITNESS_ONE + ["--const", "inf"], "growth constant must be finite"),
], ids=["tol-inf", "eps-inf", "const-inf"])
def test_an_infinite_flag_is_an_input_error(tmp_path, capsys, argv, message):
    path = tmp_path / "report.json"
    assert run(["deriv", *argv, "--out", str(path)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not path.exists()


def test_tail_flag_parses_to_a_tail():
    assert cli._tail_flag("zero:7") == ZeroTail(7)
    assert cli._tail_flag("decay") == ClosedForm(Decay(1))
    assert cli._tail_flag("none") is UNDECLARED


def test_cheese_verify(tmp_path):
    csv_path = tmp_path / "grid.csv"
    code, report = run_report(
        ["cheese", "verify", "--nmax", "6", "--grid", "501",
         "--csv", str(csv_path)], tmp_path)
    assert code == 0
    assert report["result"]["passed"] is True
    header, *rows = csv_path.read_text().strip().splitlines()
    assert header == "x,sum,certified_lt"
    assert len(rows) == 501


def test_cheese_verify_csv_sweeps_the_grid_once(tmp_path, monkeypatch,
                                               capsys):
    # verify_cheese evaluates screened blocks; only the table sweeps the
    # whole grid
    sizes = []
    sweep = cheese.CheeseSet.bound_sum_grid

    def counting(self, xs):
        sizes.append(len(xs))
        return sweep(self, xs)

    monkeypatch.setattr(cheese.CheeseSet, "bound_sum_grid", counting)
    path = tmp_path / "grid.csv"
    assert run(["cheese", "verify", "--nmax", "5", "--grid", "101",
                "--csv", str(path)]) == 0
    capsys.readouterr()
    assert sizes.count(101) == 1 and max(sizes) == 101
    # the table holds the bound sums with fresh arrays per disc, bit for bit
    X = cheese.build_cheese(5)
    xs = cheese.interval_grid(101)
    sums = X.r0 / (1.0 - xs) ** 2
    for disc in X.discs:
        sums = sums + disc.radius / (np.abs(xs - disc.center)
                                     - disc.radius) ** 2
    rows = np.array([[float(v) for v in line.split(",")]
                     for line in path.read_text().splitlines()[1:]])
    assert rows[:, 0].tobytes() == xs.tobytes()
    assert rows[:, 1].tobytes() == sums.tobytes()
    assert rows[:, 2].tobytes() == (sums + 2.0 ** -6).tobytes()


def test_revalidating_a_csv_report_builds_no_table(tmp_path, monkeypatch,
                                                   capsys):
    table = tmp_path / "grid.csv"
    _, report = run_report(["cheese", "verify", "--nmax", "5", "--grid",
                            "301", "--csv", str(table)], tmp_path)
    capsys.readouterr()
    table.unlink()
    sizes = []
    sweep = cheese.CheeseSet.bound_sum_grid

    def counting(self, xs):
        sizes.append(len(xs))
        return sweep(self, xs)

    monkeypatch.setattr(cheese.CheeseSet, "bound_sum_grid", counting)
    assert cli.revalidate_report(report)
    assert sizes and max(sizes) < 301
    assert not table.exists()


@pytest.mark.parametrize("argv, message", [
    (["verify", "--grid", "0"], "grid must be at least 2"),
    (["verify", "--grid", "1"], "grid must be at least 2"),
    (["verify", "--grid", "-3"], "grid must be at least 2"),
    (["demo", "--grid", "0"], "grid must be at least 2"),
    (["demo", "--grid", "1"], "grid must be at least 2"),
    (["demo", "--grid", "-3"], "grid must be at least 2"),
    # one disc has no pair, and its separation would be written Infinity
    (["demo", "--nmax", "1"], "demo needs at least two discs"),
    (["demo", "--nmax", "0"], "demo needs at least two discs"),
], ids=["verify-grid-0", "verify-grid-1", "verify-grid-negative",
        "demo-grid-0", "demo-grid-1", "demo-grid-negative", "demo-nmax-1",
        "demo-nmax-0"])
def test_a_cheese_input_without_a_sweep_is_an_input_error(
        tmp_path, capsys, argv, message):
    path = tmp_path / "report.json"
    assert run(["cheese", *argv, "--out", str(path)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not path.exists()


@pytest.mark.parametrize("command", ["verify", "demo"])
@pytest.mark.parametrize("grid", [cli.GRID_CAP + 1, 10 ** 14])
def test_a_grid_past_the_cap_is_refused_before_any_allocation(
        tmp_path, capsys, command, grid):
    # only the refusal is run: a grid this large would really allocate
    path = tmp_path / "report.json"
    assert run(["cheese", command, "--nmax", "3", "--grid", str(grid),
                "--out", str(path)]) == 2
    assert capsys.readouterr().err == \
        f"error: grid {grid} is beyond the grid cap {cli.GRID_CAP}\n"
    assert not path.exists()


def test_cheese_build_below_the_height_floor_is_an_input_error(capsys):
    assert run(["cheese", "build", "--nmax", "26"]) == 2
    assert capsys.readouterr().err == \
        "error: no admissible height for disc 26 above 2^-40\n"


def test_cheese_demo_on_two_discs_and_two_grid_points(tmp_path):
    code, report = run_report(
        ["cheese", "demo", "--nmax", "2", "--grid", "2"], tmp_path)
    assert code == 0
    assert report["result"]["passed"] is True


def test_cheese_demo(tmp_path):
    csv_path = tmp_path / "matrix.csv"
    code, report = run_report(
        ["cheese", "demo", "--nmax", "6", "--grid", "501",
         "--csv", str(csv_path)], tmp_path)
    assert code == 0
    assert report["result"]["min_separation"] >= 0.7
    header, *rows = csv_path.read_text().strip().splitlines()
    assert header == "n,m,M_nm"
    assert len(rows) == 36


def test_cheese_build(tmp_path):
    code, report = run_report(["cheese", "build", "--nmax", "5"], tmp_path)
    assert code == 0
    assert report["result"]["n_max"] == 5
    assert len(report["result"]["discs"]) == 5
    assert report["result"]["discs"][0] == {
        "x": 0.125, "y": 0.0625, "r": 0.0625 ** 2}


def test_bimodule_check_and_catalog_file(tmp_path):
    code, report = run_report(["bimodule", "check", "--algebra", "trunc3"],
                              tmp_path)
    assert code == 0
    assert report["result"]["square_span_dim"] == 3
    payload = {"dim": 1, "c": [[[0.0]]]}
    path = tmp_path / "nil.json"
    path.write_text(json.dumps(payload))
    code, report = run_report(
        ["bimodule", "check", "--algebra", f"@{path}"], tmp_path)
    assert code == 0
    assert report["result"]["square_span_dim"] == 0


def test_bimodule_rank1(tmp_path):
    code, report = run_report(["bimodule", "rank1", "--algebra", "zero2"],
                              tmp_path)
    assert code == 0
    names = {c["name"]: c["passed"] for c in report["certificates"]}
    assert names == {"rank-one": True, "derivation-identity": True,
                     "anchor-pairing": True}


def test_algebra_file_of_the_wrong_shape_is_an_input_error(tmp_path,
                                                           capsys):
    for dim, size in ((3, 2), (2, 3)):
        path = tmp_path / f"c{size}.json"
        path.write_text(json.dumps(
            {"dim": dim, "c": np.zeros((size,) * 3).tolist()}))
        assert run(["bimodule", "check", "--algebra", f"@{path}"]) == 2
        assert f"shape (dim, dim, dim) = {(dim,) * 3}" in \
            capsys.readouterr().err


@pytest.mark.parametrize("command", ["check", "rank1"])
@pytest.mark.parametrize("text", ["[1, 2]", "null", '"str"'])
def test_algebra_file_that_is_not_an_object_is_an_input_error(
        text, command, tmp_path, capsys):
    path = tmp_path / "top.json"
    path.write_text(text)
    assert run(["bimodule", command, "--algebra", f"@{path}"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: an algebra file must hold one JSON object")
    assert "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ["conv", "nan", "1"], ["conv", "1", "inf"], ["conv", "1,-inf", "1"],
    ["conv", "1", "1+nanj"],
    ["deriv", "apply", "--mu", "1", "--f", "nan", "--depth", "5"]])
def test_coefficients_that_are_not_finite_are_an_input_error(argv, capsys):
    assert run(argv) == 2
    assert "coefficients must be finite" in capsys.readouterr().err


OVERFLOWS = pytest.mark.parametrize("argv, message", [
    (["conv", "1e308,1e308", "1e308"], "a product coefficient"),
    (["conv", "1e308,1e308", "1"], "the product's l1 norm"),
    (["conv", "1e308,1e308", "1e-300"], "the factors' l1 norm bound"),
    (["deriv", "apply", "--mu", "2", "--f", "0,1e308"], "an image value"),
    (["deriv", "apply", "--mu", "1", "--f", "0,1.5e308+1.5e308j"],
     "the image's largest modulus"),
    (["deriv", "apply", "--mu", "1", "--f", "1e308,1e308"],
     "the image bound"),
], ids=["coefficient", "norm", "factor-bound", "image", "modulus",
        "image-bound"])


@OVERFLOWS
def test_results_that_overflow_are_an_input_error(argv, message, tmp_path,
                                                  capsys):
    # each would be written as Infinity, which is not JSON
    path = tmp_path / "report.json"
    with np.errstate(over="ignore"):
        assert run(argv + ["--out", str(path)]) == 2
    assert capsys.readouterr().err == f"error: {message} overflows a double\n"
    assert not path.exists()


@OVERFLOWS
def test_an_overflow_writes_its_error_line_alone(argv, message):
    # numpy's default error state, with its warnings printed
    done = run_process(argv)
    assert done.returncode == 2
    assert done.stderr == f"error: {message} overflows a double\n"


def test_a_radius_that_overflows_is_an_input_error(monkeypatch, capsys):
    # finite coefficients keep the radius far below the largest double, so
    # the product's radius is replaced here
    monkeypatch.setattr(cli, "convolve_with_radius",
                        lambda a, b: (a, float("inf"), "fft"))
    assert run(["conv", "1,2", "3"]) == 2
    assert capsys.readouterr().err == \
        "error: the product's radius overflows a double\n"


_DEPTH_COMMANDS = [["norm"], ["classify"], ["apply", "--f", "1,2"],
                   ["truncate", "--terms", "3"]]


@pytest.mark.parametrize("command", _DEPTH_COMMANDS,
                         ids=lambda argv: argv[0])
@pytest.mark.parametrize("depth", [2 ** 24 + 1, 10 ** 20])
def test_a_depth_past_the_probe_cap_is_refused_before_any_read(
        command, depth, monkeypatch, capsys):
    monkeypatch.setattr(rules, "parse_rule",
                        lambda text: pytest.fail("the rule was read"))
    argv = ["deriv", *command, "--mu", "1/(n+1)^2", "--depth", str(depth)]
    assert run(argv) == 2
    assert capsys.readouterr().err == \
        f"error: depth {depth} is beyond the probe cap {2 ** 24}\n"


@pytest.mark.parametrize("command", _DEPTH_COMMANDS,
                         ids=lambda argv: argv[0])
def test_a_depth_at_the_probe_cap_is_read(command, monkeypatch, capsys):
    # with the cap lowered to 300, a depth of 300 is read and 301 refused
    monkeypatch.setattr(cli, "PROBE_CAP", 300)
    argv = ["deriv", *command, "--mu", "1/(n+1)^2", "--depth"]
    assert run(argv + ["300"]) == 0
    assert run(argv + ["301"]) == 2
    assert capsys.readouterr().err == \
        "error: depth 301 is beyond the probe cap 300\n"


@pytest.mark.parametrize("command", _DEPTH_COMMANDS,
                         ids=lambda argv: argv[0])
def test_a_negative_depth_is_refused_before_any_read(command, monkeypatch,
                                                     capsys):
    # classify, truncate and apply exited 0 on it, apply with no values
    monkeypatch.setattr(rules, "parse_rule",
                        lambda text: pytest.fail("the rule was read"))
    argv = ["deriv", *command, "--mu", "1/(n+1)^2", "--depth", "-7"]
    assert run(argv) == 2
    assert capsys.readouterr().err == "error: depth -7 is negative\n"


@pytest.mark.parametrize("rule, index", [
    # a decay cited up to 8 past its start, a floor 10^6 past it
    ("1/(n+10^20)", 10 ** 20 + 3 + 8),
    ("(n^2+10^20)/(n^2+1)", 10 ** 20 + 3 + 10 ** 6)])
def test_a_verdict_past_the_index_cap_is_refused(rule, index, capsys):
    assert run(["deriv", "classify", "--mu", rule]) == 2
    assert capsys.readouterr().err == \
        f"error: the verdict needs mu at index {index}, beyond the index " \
        f"cap {2 ** 62}\n"


def test_a_decay_that_falls_at_the_index_cap_cites_no_index(tmp_path):
    # |mu| falls below tol only at 2^62, whose recheck would read 2^62 + 8
    path = tmp_path / "report.json"
    assert run(["deriv", "classify", "--mu", "3000000000/(n+1)", "--tail",
                "decay", "--out", str(path)]) == 0
    result = json.loads(path.read_text())["result"]
    assert result["verdict"] == "compact" and result["decay_from"] is None


def test_witness_takes_no_depth(capsys):
    assert run(["deriv", "witness", "--mu", "1", "--eps", "0.5", "--terms",
                "2", "--depth", "99999999999999999999"]) == 2
    assert "unrecognized arguments: --depth" in capsys.readouterr().err


# One cheap valid call per subcommand.
EVERY_COMMAND = [
    ["conv", "1,2", "3"],
    ["deriv", "norm", "--mu", "1/(n+1)^2", "--depth", "50"],
    ["deriv", "classify", "--mu", "1/(n+1)^2", "--depth", "50"],
    ["deriv", "apply", "--mu", "1", "--f", "1,2", "--depth", "5"],
    ["deriv", "truncate", "--mu", "1/(n+1)^2", "--terms", "3", "--depth",
     "50"],
    ["deriv", "witness", "--mu", "1", "--eps", "0.5", "--terms", "2"],
    ["cheese", "build", "--nmax", "3"],
    ["cheese", "verify", "--nmax", "3", "--grid", "11"],
    ["cheese", "demo", "--nmax", "3", "--grid", "11"],
    ["bimodule", "check", "--algebra", "trunc3"],
    ["bimodule", "rank1", "--algebra", "zero2"],
    ["bimodule", "transfer", "--algebra", "trunc3"],
]


def _handling_parser(argv):
    """The innermost subparser that parses argv."""
    parser = cli._build_parser()
    for word in argv:
        choices = next((action.choices for action in parser._actions
                        if isinstance(action, argparse._SubParsersAction)),
                       {})
        if word not in choices:
            return parser
        parser = choices[word]
    return parser


@pytest.mark.parametrize("argv", EVERY_COMMAND,
                         ids=lambda argv: "-".join(argv[:2]))
def test_every_option_of_a_command_is_read(argv):
    reads = set()

    class Recording(argparse.Namespace):
        def __getattribute__(self, name):
            reads.add(name)
            return super().__getattribute__(name)

    args = cli._build_parser().parse_args(argv, namespace=Recording())
    reads.clear()
    args.handler(args)
    options = {action.dest for action in _handling_parser(argv)._actions}
    # main reads --out, --seed and --csv itself
    assert options - {"help", "out", "seed", "csv"} <= reads


@pytest.mark.parametrize("dim", ["1.5", "true", '"1"'])
def test_an_algebra_dimension_that_is_not_an_integer_is_an_input_error(
        dim, tmp_path, capsys):
    path = tmp_path / "dim.json"
    path.write_text('{"dim": %s, "c": [[[1]]]}' % dim)
    assert run(["bimodule", "check", "--algebra", f"@{path}"]) == 2
    assert capsys.readouterr().err.startswith(
        'error: "dim" must be an integer (got ')


@pytest.mark.parametrize("c", [
    "[[[true]]]", "[[[false]]]", '[[["1"]]]', '[[["1+2j"]]]',
    "[[[[1, true]]]]", '[[[["1", 0]]]]', "[[[[false, 0]]]]",
    # among plain numbers, which are read in one numpy call
    "[[[true, 0], [0, 0]], [[0, 0], [0, 0]]]",
    "[[[0.5, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, false]]]"])
def test_a_structure_constant_that_is_not_a_number_is_an_input_error(
        c, tmp_path, capsys):
    # complex() and float() would read true as 1 and parse "1"
    path = tmp_path / "words.json"
    path.write_text('{"dim": %d, "c": %s}' % (len(json.loads(c)), c))
    assert run(["bimodule", "check", "--algebra", f"@{path}"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: bad structure constant ")
    assert "Traceback" not in err


def test_algebra_file_with_a_nan_defect_is_an_input_error(tmp_path, capsys):
    path = tmp_path / "inf.json"
    path.write_text('{"dim": 1, "c": [[[Infinity]]]}')
    assert run(["bimodule", "check", "--algebra", f"@{path}"]) == 2
    assert "associativity defect nan exceeds inf" in capsys.readouterr().err


def test_bimodule_rank1_large_entries(tmp_path):
    # Q (I+S)^4 basis change of t.k[t]/t^24: entries ~1e5, so rounding in
    # the identity is far above an absolute 1e-12
    c = change_basis(ideal(24), 4, seed=1)
    path = tmp_path / "ideal24.json"
    path.write_text(json.dumps({"dim": 23, "c": c.tolist()}))
    code, report = run_report(["bimodule", "rank1", "--algebra", f"@{path}"],
                              tmp_path)
    assert code == 0
    assert all(cert["passed"] for cert in report["certificates"])


def test_bimodule_rank1_computes_the_square_span_once(tmp_path, monkeypatch,
                                                     capsys):
    # find_anchor and rank_one_derivation share one SVD of the d^2 x d
    # product matrix
    path = tmp_path / "ideal8.json"
    path.write_text(json.dumps({"dim": 7, "c": ideal(8).tolist()}))
    shapes = Counter()

    def counting(M, *args, _inner=np.linalg.svd, **kwargs):
        shapes[np.shape(M)] += 1
        return _inner(M, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counting)
    assert run(["bimodule", "rank1", "--algebra", f"@{path}"]) == 0
    capsys.readouterr()
    assert shapes[(49, 7)] == 1


def test_bimodule_rank1_rejects_unital(capsys):
    assert run(["bimodule", "rank1", "--algebra", "trunc3"]) == 2


def test_bimodule_transfer(tmp_path):
    for K in (2, 4):  # t d/dt is a non-zero derivation from K = 2 on
        code, report = run_report(
            ["bimodule", "transfer", "--algebra", f"trunc{K}"], tmp_path)
        assert code == 0
        assert report["result"]["rank"] <= K - 1
        assert all(c["passed"] for c in report["certificates"])


def test_bimodule_transfer_computes_each_part_once(monkeypatch, capsys):
    # the CLI reads the homomorphism, defect and scale that transfer
    # computed instead of computing them again; transfer checks its input
    # and its output, one defect and one scale each
    calls = Counter()
    for name in ("derivation_defect", "derivation_scale",
                 "dual_homomorphism", "matrix_rank"):
        def counting(*args, _name=name, _inner=getattr(bimodules, name)):
            calls[_name] += 1
            return _inner(*args)
        monkeypatch.setattr(bimodules, name, counting)
    assert run(["bimodule", "transfer", "--algebra", "trunc6"]) == 0
    capsys.readouterr()
    # one SVD for the rank of D, one for that of the transferred map
    assert calls == {"derivation_defect": 2, "derivation_scale": 2,
                     "dual_homomorphism": 1, "matrix_rank": 2}


def test_bimodule_transfer_needs_truncated(capsys):
    assert run(["bimodule", "transfer", "--algebra", "zero2"]) == 2
    # C[t]/t has no non-zero derivation to transfer
    assert run(["bimodule", "transfer", "--algebra", "trunc1"]) == 2
    assert "vanished" in capsys.readouterr().err


def test_report_schema_and_determinism(tmp_path):
    path = tmp_path / "report.json"
    argv = ["deriv", "witness", "--mu", "1", "--eps", "0.5", "--terms", "3",
            "--out", str(path)]
    assert cli.main(list(argv)) == 0
    first = path.read_text()
    assert cli.main(list(argv)) == 0
    second = path.read_text()
    jsonschema.validate(json.loads(first), reports.REPORT_SCHEMA)
    assert reports.strip_timestamp(first) == reports.strip_timestamp(second)
    assert json.loads(first)["timestamp"] != ""


def test_reports_revalidate_from_serialized_inputs(tmp_path):
    for argv in (
        ["deriv", "witness", "--mu", "1", "--eps", "0.5", "--terms", "3"],
        ["deriv", "norm", "--phi", "1/(n+1)", "--depth", "200"],
        ["deriv", "classify", "--mu", "n*2^(1-n)", "--tail", "decay"],
        ["deriv", "apply", "--phi", "1/(n+1)", "--f", "0,1-2j", "--depth",
         "40"],
        ["deriv", "truncate", "--mu", "2^(1-n)", "--tail", "decay",
         "--terms", "6"],
        ["cheese", "verify", "--nmax", "5", "--grid", "301"],
        ["cheese", "demo", "--nmax", "6", "--grid", "501"],
        ["bimodule", "check", "--algebra", "trunc4"],
        ["bimodule", "transfer", "--algebra", "trunc4"],
        ["conv", "1+2j,0.5", "0.25,-1j,3"],
        ["conv", "134217729", "134217729"],
        ["cheese", "verify", "--nmax", "5", "--grid", "301", "--csv",
         str(tmp_path / "grid.csv")],
    ):
        _, report = run_report(argv, tmp_path)
        assert cli.revalidate_report(report)


# -- every certificate can fail ------------------------------------------------

def _then(change):
    """A patch that passes the producer's result through ``change``."""
    return lambda inner: lambda *args, **kw: change(inner(*args, **kw))


# One row per certificate name: the command, the producer patched, and the
# patch, which breaks the numbers that certificate alone checks.
CERTIFICATE_FAILURES = {
    "submultiplicative": (
        ["conv", "1,1", "1,1"], cli, "convolve_with_radius",
        _then(lambda p: (L1Element(p[0].coeffs * (1 + 1e-9)),) + p[1:])),
    "verdict-evidence": (
        ["deriv", "classify", "--mu", "1"], Derivation, "classify_compact",
        _then(lambda verdict: replace(verdict, floor=2 * verdict.floor))),
    "image-bounded": (
        ["deriv", "apply", "--phi", "1/(n+1)", "--f", "0,1", "--depth", "8"],
        Derivation, "apply",
        _then(lambda image: act_on_dual(L1Element([2.0]), image))),
    "truncation-error-dominates-probe": (
        ["deriv", "truncate", "--mu", "2^(1-n)", "--tail", "decay",
         "--terms", "3"], Derivation, "truncate",
        _then(lambda cut: (cut[0], cut[1] / 2))),
    "witness-inequalities": (
        ["deriv", "witness", "--mu", "1", "--eps", "0.5", "--terms", "3"],
        Derivation, "witness",
        _then(lambda report: replace(
            report, diagonal=tuple(2 * d for d in report.diagonal)))),
    "per-term-dyadic-bound": (
        ["cheese", "verify", "--nmax", "5", "--grid", "101"], cheese,
        "verify_cheese",
        _then(lambda verification: replace(verification,
                                           per_term_margin=-1e-6))),
    "derivative-bound-sum": (
        ["cheese", "verify", "--nmax", "5", "--grid", "101"], cheese,
        "verify_cheese",
        _then(lambda verification: replace(
            verification, max_certified=verification.bound_threshold))),
    "unit-diagonal": (
        ["cheese", "demo", "--nmax", "6", "--grid", "501"], cheese,
        "noncompact_report",
        _then(lambda report: replace(report, diag_error=1e-9))),
    "pairwise-separation": (
        ["cheese", "demo", "--nmax", "6", "--grid", "501"], cheese,
        "noncompact_report",
        _then(lambda report: replace(report, min_separation=0.5))),
    # zero2: every map is a derivation, and the anchor is e_0
    "rank-one": (
        ["bimodule", "rank1", "--algebra", "zero2"], bimodules,
        "rank_one_derivation",
        _then(lambda pair: (pair[0], FiniteMap(np.eye(2))))),
    # nilsquare: e_1 e_1 = c e_2, so u (x) v below has D(e_1 e_1) = 0 but
    # (e_1.D(e_1) + D(e_1).e_1)(e_1) = 2c; rank one, pairing 1 at e_0
    "derivation-identity": (
        ["bimodule", "rank1", "--algebra", f"@{NILSQUARE}"], bimodules,
        "rank_one_derivation",
        _then(lambda pair: (pair[0],
                            FiniteMap(np.outer([1, 0, 1], [1, 1, 0]))))),
    "anchor-pairing": (
        ["bimodule", "transfer", "--algebra", "trunc4"], bimodules,
        "transfer",
        lambda inner: lambda D, lam, A, E: inner(D, 2 * lam, A, E)),
    # trunc4: the anchor is e_1, so a diagonal off e_1 lifts the rank to 4
    "rank-monotone": (
        ["bimodule", "transfer", "--algebra", "trunc4"], bimodules,
        "transfer",
        _then(lambda composed: replace(
            composed,
            matrix=composed.matrix + 1e-3 * np.diag([1, 0, 1, 1])))),
    "norm-product-bound": (
        ["bimodule", "transfer", "--algebra", "trunc4"], bimodules,
        "transfer",
        _then(lambda composed: replace(
            composed,
            homomorphism=FiniteMap(composed.homomorphism.matrix / 2)))),
}


@pytest.mark.parametrize("name", sorted(CERTIFICATE_FAILURES))
def test_certificate_fails_alone(name, monkeypatch, capsys):
    argv, owner, producer, patch = CERTIFICATE_FAILURES[name]
    monkeypatch.setattr(owner, producer, patch(getattr(owner, producer)))
    assert run(argv) == 1
    lines = [line for line in capsys.readouterr().out.splitlines()
             if line.startswith("certificate ")]
    assert f"certificate {name}: FAIL" in lines
    assert sum(line.endswith(": FAIL") for line in lines) == 1


# -- one parser per process ----------------------------------------------------

def test_a_csv_table_is_not_written_again_by_the_next_call(tmp_path, capsys):
    table = tmp_path / "grid.csv"
    argv = ["cheese", "verify", "--nmax", "5", "--grid", "101"]
    assert run(argv + ["--csv", str(table)]) == 0
    assert "table written to" in capsys.readouterr().out
    table.unlink()
    assert run(argv) == 0
    assert "table written to" not in capsys.readouterr().out
    assert not table.exists()


def test_a_seed_does_not_carry_over_to_the_next_call(tmp_path):
    argv = ["bimodule", "transfer", "--algebra", "trunc4"]
    _, seeded = run_report(argv + ["--seed", "7"], tmp_path, "seeded.json")
    _, default = run_report(argv, tmp_path, "default.json")
    assert (seeded["seed"], default["seed"]) == (7, 42)
    assert default["command"] == argv + ["--out",
                                         str(tmp_path / "default.json")]


def test_malformed_calls_in_a_row_each_exit_two_with_usage(capsys):
    assert cli._build_parser() is cli._build_parser()
    for argv in (["nonsense"], ["cheese", "demo", "--nmax", "x"]):
        assert run(argv) == 2
        assert "usage:" in capsys.readouterr().err
