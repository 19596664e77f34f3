"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Tolerances are pinned here and nowhere else.
"""

import time

import numpy as np
import pytest

import convderiv as cd
from convderiv.rules import RuleSyntaxError


def _record(number: int, ok: bool, detail: str) -> None:
    print(f"criterion {number}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {number} failed: {detail}"


def _random_bounded_phi(rng):
    c0, c1 = rng.uniform(-2, 2, 2)
    omega = rng.uniform(0.0, np.pi)
    theta = rng.uniform(0.0, 2 * np.pi)

    def rule(n, c0=c0, c1=c1, omega=omega, theta=theta):
        n = np.asarray(n, dtype=float)
        return (c0 + c1 * np.cos(omega * n + theta)) / (n + 1.0)

    return cd.DualSequence(rule, tail=cd.ClosedForm(), vectorized=True)


def test_criterion_1_isometry():
    depth = 10 ** 4
    rng = np.random.default_rng(2024)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(50):
        D = cd.Derivation.from_phi(_random_bounded_phi(rng),
                                   probe_depth=depth)
        mu_side = D.norm(depth)[0]
        probe_side = float(np.abs(D.monomial_probes(depth)).max())
        worst = max(worst, abs(mu_side - probe_side))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-12 and elapsed < 1.0
    _record(1, ok, f"max gap {worst:.3e}, {elapsed:.3f}s for 50 rules at "
                   f"depth {depth}")


def _unit_disc_coeffs(rng, n):
    radii = np.sqrt(rng.uniform(0.0, 1.0, n))
    angles = rng.uniform(0.0, 2 * np.pi, n)
    return radii * np.exp(1j * angles)


def test_criterion_2_derivation_identity():
    rng = np.random.default_rng(7)
    test_rules = (
        cd.DualSequence(lambda n: 1.0 / (np.asarray(n, float) + 1.0),
                        tail=cd.ClosedForm(cd.Decay(0)), vectorized=True),
        cd.DualSequence(lambda n: 2.0 ** -np.asarray(n, float),
                        tail=cd.ClosedForm(cd.Decay(0, ratio=0.5)),
                        vectorized=True),
        cd.DualSequence.from_values([1.0, 0.5, -0.25, 0.5j, 0.125],
                                    tail=cd.ZeroTail(5)),
    )
    worst = 0.0
    for phi in test_rules:
        D = cd.Derivation.from_phi(phi, probe_depth=32)
        for _ in range(100):
            f = cd.L1Element(_unit_disc_coeffs(rng, 21))
            g = cd.L1Element(_unit_disc_coeffs(rng, 21))
            lhs = D.apply(cd.convolve(f, g)).values(100)
            rhs = cd.act_on_dual(f, D.apply(g)).values(100) \
                + cd.act_on_dual(g, D.apply(f)).values(100)
            worst = max(worst, float(np.abs(lhs - rhs).max()))
    ok = worst < 1e-10
    _record(2, ok, f"max identity defect {worst:.3e} over 300 pairs")


def test_criterion_3_compactness_classification():
    peaked = cd.Derivation.from_phi(
        cd.DualSequence(lambda n: 2.0 ** -np.asarray(n, float),
                        tail=cd.ClosedForm(cd.Decay(0, ratio=0.5)),
                        vectorized=True))
    constant = cd.Derivation.from_mu(
        lambda n: np.ones(np.shape(n)) if np.ndim(n) else 1.0,
        tail=cd.ClosedForm(cd.Constant(1.0, 1)))
    table = cd.Derivation.from_mu_values([0, 1.0, 0.5, 0.25],
                                         tail=cd.UNDECLARED)
    geometric = cd.Derivation.from_mu(
        lambda n: 2.0 ** (1 - np.asarray(n, float)),
        tail=cd.ClosedForm(cd.Decay(1, ratio=0.5)))
    verdicts = (peaked.classify_compact().verdict,
                constant.classify_compact().verdict,
                table.classify_compact().verdict)
    _, err = geometric.truncate(3)
    ok = verdicts == ("compact", "noncompact", "inconclusive") \
        and err == 0.125
    _record(3, ok, f"verdicts {verdicts}, truncation error {err!r}")


def test_criterion_4_witness():
    D = cd.Derivation.from_mu(
        lambda n: np.ones(np.shape(n)) if np.ndim(n) else 1.0,
        tail=cd.ClosedForm(cd.Constant(1.0, 1)))
    start = time.perf_counter()
    report = D.witness(0.5, 4, growth_constant=1000.0)
    elapsed = time.perf_counter() - start
    gaps_ok = len(report.gaps) == 6 and all(
        gap > 0.125 for *_, gap in report.gaps)
    diag_ok = all(value > 0.5 / 3 for value in report.diagonal)
    first_ok = (report.j[0], report.l[0]) == (1001, 1000)
    ok = gaps_ok and diag_ok and first_ok and elapsed < 1.0
    _record(4, ok, f"(j1, l1) = ({report.j[0]}, {report.l[0]}), "
                   f"separation {report.separation:.4f}, "
                   f"min diagonal {min(report.diagonal):.4f}, "
                   f"{elapsed * 1e3:.1f} ms")


def test_criterion_5_rank_one_instance():
    A = cd.algebra_catalog("zero2")
    anchor = np.array([1.0, 0.0], dtype=complex)
    _, D = cd.rank_one_derivation(A, anchor)
    dual = A.self_bimodule().dual()
    defect = cd.derivation_defect(A, dual, D)
    pairing = complex(anchor @ D.matrix @ anchor)
    fit = cd.is_inner(A, dual, D)
    probe = complex(anchor @ fit.defect.matrix @ anchor)
    ok = D.rank == 1 and defect == 0.0 and pairing == 1.0 \
        and abs(probe - 1.0) == 0.0
    _record(5, ok, f"rank {D.rank}, identity residual {defect!r}, "
                   f"anchor pairing {pairing}, inner-fit probe {probe}")


def test_criterion_6_transfer_trunc4():
    A = cd.algebra_catalog("trunc4")
    E = A.self_bimodule()
    D = cd.euler_derivation(A)
    a0, lam = cd.find_transfer_functional(A, E, D)
    composed = cd.transfer(D, lam, A, E)
    defect = cd.derivation_defect(A, E.dual(), composed)
    pairing = complex(a0 @ composed.matrix @ a0)
    ok = defect < 1e-10 and abs(pairing - 1.0) <= 1e-12 \
        and composed.rank <= 3
    _record(6, ok, f"identity residual {defect:.3e}, anchor pairing "
                   f"{pairing}, rank {composed.rank} <= 3")


def test_criterion_7_cheese_certification():
    start = time.perf_counter()
    X = cd.build_cheese(12)
    verification = cd.verify_cheese(X, grid=2001)
    elapsed = time.perf_counter() - start
    ok = verification.geometry_ok and verification.per_term_ok \
        and verification.max_certified < 6.5 and elapsed < 5.0
    _record(7, ok, f"max certified sum {verification.max_certified:.6f} "
                   f"< 6.5, per-term margin {verification.per_term_margin:.3e}, "
                   f"{elapsed:.3f}s")


def test_criterion_8_noncompactness_demo():
    X = cd.build_cheese(12)
    report = cd.noncompact_report(X, grid=2001)
    ok = report.diag_error <= 1e-12 and report.min_separation >= 0.7
    _record(8, ok, f"diagonal error {report.diag_error:.3e}, min pairwise "
                   f"separation {report.min_separation:.4f} >= 0.7")


def test_criterion_9_parser():
    from ruletrees import random_expr
    ok_examples = (
        cd.parse_rule("1/(n+1)") == cd.Div(cd.Lit(1), cd.Add(cd.Var(),
                                                             cd.Lit(1)))
        and cd.parse_rule("2^(-n)") == cd.Pow(cd.Lit(2), cd.Neg(cd.Var()))
    )
    try:
        cd.parse_rule("n*")
        error_ok = False
    except RuleSyntaxError as err:
        error_ok = err.position == 3
    rng = np.random.default_rng(42)
    failures = sum(
        cd.parse_rule(cd.format_rule(tree)) != tree
        for tree in (random_expr(rng, int(rng.integers(1, 6)))
                     for _ in range(1000)))
    ok = ok_examples and error_ok and failures == 0
    _record(9, ok, f"examples byte-exact: {ok_examples}, error at 3: "
                   f"{error_ok}, round-trip failures: {failures}/1000")
