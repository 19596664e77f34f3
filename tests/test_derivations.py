"""Derivation calculus: construction, norms, compactness, witnesses."""

import math
import tracemalloc
from collections import Counter

import numpy as np
import pytest

import convderiv as cd
from convderiv.convolution import _ACTION_BLOCK


def harmonic_phi():
    return cd.DualSequence(
        lambda n: 1.0 / (np.asarray(n, dtype=float) + 1.0),
        tail=cd.ClosedForm(cd.Decay(0)), vectorized=True)


def geometric_phi():
    return cd.DualSequence(
        lambda n: 2.0 ** -np.asarray(n, dtype=float),
        tail=cd.ClosedForm(cd.Decay(0, ratio=0.5)), vectorized=True)


def constant_mu(value=1.0):
    return cd.Derivation.from_mu(
        lambda n: value + np.zeros(np.shape(n)) if np.ndim(n) else value,
        tail=cd.ClosedForm(cd.Constant(value, 1)))


def peaked_mu():
    # mu_n = n * 2^{-(n-1)}, the image of the geometric phi
    return cd.Derivation.from_phi(geometric_phi(), probe_depth=64)


# -- construction -------------------------------------------------------------

def test_from_phi_harmonic_gives_unit_mu():
    D = cd.Derivation.from_phi(harmonic_phi(), probe_depth=64)
    for n in range(1, 30):
        assert D.mu.at(n) == pytest.approx(1.0, abs=1e-12)
    assert D.mu.at(0) == 0
    assert D.norm(64)[0] == pytest.approx(1.0, abs=1e-12)


def test_from_phi_constant_is_unbounded():
    ones = cd.DualSequence.constant(1.0)
    with pytest.raises(cd.UnboundedDerivationError):
        cd.Derivation.from_phi(ones)


def test_from_phi_floor_is_unbounded():
    phi = cd.DualSequence(lambda n: 1.0 + 1.0 / (n + 1),
                          tail=cd.ClosedForm(cd.Floor(1.0, 0)))
    with pytest.raises(cd.UnboundedDerivationError):
        cd.Derivation.from_phi(phi)


def brute_force_peak_norm():
    """Oracle for the geometric rule: probe n*2^{-(n-1)} and bound the tail.

    The probe covers n <= 64; beyond it the ratio
    mu_{n+1}/mu_n = (n+1)/(2n) < 1 keeps the sequence below its probed
    maximum, so the probe max is the supremum.
    """
    values = [n * 2.0 ** -(n - 1) for n in range(1, 65)]
    ratios = [(n + 1) / (2 * n) for n in range(64, 128)]
    assert max(ratios) < 1
    return max(values)


def test_from_phi_geometric_norm_exact():
    expected = brute_force_peak_norm()
    assert expected == 1.0  # frozen oracle value
    D = peaked_mu()
    lower, exact = D.norm(64)
    assert lower == expected
    assert exact == expected


def test_geometric_mu_values():
    D = peaked_mu()
    for n in range(1, 20):
        assert D.mu.at(n) == pytest.approx(n * 2.0 ** -(n - 1), rel=1e-14)
    # decay certificate derived through the ratio transfer
    cert = D.mu.tail.certificate
    assert isinstance(cert, cd.Decay) and cert.start == 1


def test_from_mu_inverse_of_harmonic():
    D = constant_mu(1.0)
    for n in range(12):
        assert D.phi.at(n) == pytest.approx(1.0 / (n + 1), abs=1e-15)


def test_from_mu_finite_table():
    D = cd.Derivation.from_mu_values([0, 1, 1, 1])
    lower, exact = D.norm(16)
    assert lower == exact == 1.0
    assert D.mu.at(100) == 0


def test_from_mu_rejects_nonzero_start():
    with pytest.raises(ValueError):
        cd.Derivation.from_mu_values([1, 1])


def test_from_mu_algebraic_inverse():
    D = cd.Derivation.from_mu(lambda n: n * 2.0 ** -(n - 1),
                              tail=cd.ClosedForm(cd.Decay(1)))
    for n in range(10):
        assert D.phi.at(n) == pytest.approx(2.0 ** -n, rel=1e-14)


def test_round_trip_phi_mu_phi():
    for phi in (harmonic_phi(), geometric_phi()):
        D1 = cd.Derivation.from_phi(phi, probe_depth=32)
        D2 = cd.Derivation.from_mu(D1.mu.at, tail=D1.mu.tail)
        for n in range(40):
            assert abs(D2.phi.at(n) - phi.at(n)) < 1e-12


# -- application --------------------------------------------------------------

def test_apply_monomial_harmonic():
    D = cd.Derivation.from_phi(harmonic_phi(), probe_depth=16)
    image = D.apply(cd.monomial(2))
    for n in range(12):
        assert image.at(n) == pytest.approx(2.0 / (n + 2), rel=1e-14)


def test_apply_kills_identity():
    D = peaked_mu()
    image = D.apply(cd.one())
    assert isinstance(image.tail, cd.ZeroTail)
    for n in range(8):
        assert image.at(n) == 0


def test_apply_two_terms_geometric():
    # independent evaluation: 1*phi(n) + 2*phi(n+1) = 2^{-n} + 2^{-n}
    D = peaked_mu()
    image = D.apply(cd.L1Element([0, 1, 1]))
    for n in range(12):
        direct = 1 * 2.0 ** -n + 2 * 2.0 ** -(n + 1)
        assert image.at(n) == pytest.approx(direct, rel=1e-14)
        assert direct == pytest.approx(2.0 ** (1 - n), rel=1e-15)


def test_apply_respects_norm_bound():
    rng = np.random.default_rng(23)
    D = peaked_mu()
    _, exact = D.norm(64)
    for _ in range(20):
        coeffs = rng.standard_normal(9) + 1j * rng.standard_normal(9)
        f = cd.L1Element(coeffs)
        sup = np.abs(D.apply(f).values(200)).max()
        assert sup <= exact * cd.l1_norm(f) + 1e-12


# -- norm ---------------------------------------------------------------------

def test_norm_constant_rule():
    lower, exact = constant_mu(1.0).norm(50)
    assert lower == exact == 1.0


def test_norm_finite_table_max():
    D = cd.Derivation.from_mu_values([0, 1, 5, 0])
    lower, exact = D.norm(10)
    assert lower == exact == 5.0
    # the maximum is taken block by block; here it sits in a later block
    for peak in (_ACTION_BLOCK - 1, _ACTION_BLOCK, 2 * _ACTION_BLOCK + 5):
        table = np.zeros(2 * _ACTION_BLOCK + 9, dtype=complex)
        table[1], table[peak] = 1, 5 - 5j
        lower, exact = cd.Derivation.from_mu_values(table).norm(table.size)
        assert lower == exact == abs(5 - 5j)


def test_norm_peaked_examples():
    D = peaked_mu()
    lower, exact = D.norm(2)
    assert lower == exact == 1.0  # monotone from 1, so depth 2 suffices
    lower, exact = D.norm(64)
    assert lower == exact == 1.0


def test_norm_decay_start_beyond_probe_is_not_exact():
    D = cd.Derivation.from_mu(lambda n: 2.0 ** (1 - n),
                              tail=cd.ClosedForm(cd.Decay(50, ratio=0.5)))
    lower, exact = D.norm(10)
    assert lower == 1.0 and exact is None


def test_norm_without_certificate_gives_lower_only():
    D = cd.Derivation.from_mu(lambda n: 1.0 / n, tail=cd.ClosedForm())
    lower, exact = D.norm(32)
    assert lower == 1.0 and exact is None


def test_exact_norm_bounds_later_evaluations():
    D = peaked_mu()
    _, exact = D.norm(64)
    assert exact == 1.0
    for n in (100, 500, 4096):
        assert abs(D.mu.at(n)) <= exact


def test_mu_phi_consistency_both_constructions():
    # mu_n == n * phi(t^{n-1}) for every evaluated index, both ways round
    built_from_phi = peaked_mu()
    built_from_mu = cd.Derivation.from_mu(
        lambda n: 2.0 ** (1 - n), tail=cd.ClosedForm(cd.Decay(1, ratio=0.5)))
    for D in (built_from_phi, built_from_mu):
        for n in range(1, 64):
            assert abs(D.mu.at(n) - n * D.phi.at(n - 1)) < 1e-12


def test_exact_norm_idempotent():
    D = peaked_mu()
    _, first = D.norm(64)
    assert first == 1.0
    _, again = D.norm(128)
    assert again == first


def test_isometry_mu_sup_equals_monomial_probe_sup():
    for D in (peaked_mu(), constant_mu(0.75),
              cd.Derivation.from_phi(harmonic_phi(), probe_depth=16)):
        mu_side = np.abs(D.mu.values(200))
        probe_side = np.abs(D.monomial_probes(200))
        assert np.abs(mu_side - probe_side).max() < 1e-12
        # the dense route through apply agrees too
        for k in (1, 2, 17, 100):
            dense = abs(D.apply(cd.monomial(k)).at(0))
            assert abs(dense - probe_side[k]) < 1e-12


# -- derivation identity -------------------------------------------------------

def test_derivation_identity_on_random_polynomials():
    rng = np.random.default_rng(31)
    table = cd.DualSequence.from_values([1, 0.5, -0.25, 1j],
                                        tail=cd.ZeroTail(4))
    for phi in (harmonic_phi(), geometric_phi(), table):
        D = cd.Derivation.from_phi(phi, probe_depth=16)
        for _ in range(25):
            cf = rng.standard_normal(21) + 1j * rng.standard_normal(21)
            cg = rng.standard_normal(21) + 1j * rng.standard_normal(21)
            f, g = cd.L1Element(cf / 2), cd.L1Element(cg / 2)
            lhs = D.apply(cd.convolve(f, g)).values(100)
            rhs = cd.act_on_dual(f, D.apply(g)).values(100) \
                + cd.act_on_dual(g, D.apply(f)).values(100)
            assert np.abs(lhs - rhs).max() < 1e-10


# -- compactness ---------------------------------------------------------------

def test_classify_constant_noncompact():
    verdict = constant_mu(1.0).classify_compact(tol=1e-6)
    assert verdict.verdict == "noncompact"
    assert verdict.floor == 1.0
    assert verdict.cited_indices
    assert verdict.recheck(constant_mu(1.0))


def test_classify_peaked_compact():
    D = peaked_mu()
    verdict = D.classify_compact(tol=1e-6)
    assert verdict.verdict == "compact"
    assert verdict.decay_from is not None
    assert abs(D.mu.at(verdict.decay_from)) < 1e-6
    assert verdict.recheck(D)


def test_classify_undeclared_inconclusive():
    D = cd.Derivation.from_mu_values([0, 1, 0.5, 0.25], tail=cd.UNDECLARED)
    verdict = D.classify_compact(tol=1e-6)
    assert verdict.verdict == "inconclusive"
    assert "undeclared" in verdict.reason


def test_classify_bare_closed_form_inconclusive():
    D = cd.Derivation.from_mu(lambda n: 1.0 / n, tail=cd.ClosedForm())
    assert D.classify_compact().verdict == "inconclusive"


def test_classify_rejects_lying_decay():
    D = cd.Derivation.from_mu(lambda n: float(n),
                              tail=cd.ClosedForm(cd.Decay(1)))
    with pytest.raises(cd.CertificateViolationError):
        D.classify_compact(probe_depth=32)


def test_verdict_serialises():
    payload = constant_mu(1.0).classify_compact().to_dict()
    assert payload["verdict"] == "noncompact"
    assert payload["tail"]["certificate"] == "constant"


# -- truncation ----------------------------------------------------------------

def test_truncate_geometric_first_omitted_term():
    D = cd.Derivation.from_mu(lambda n: 2.0 ** (1 - n),
                              tail=cd.ClosedForm(cd.Decay(1, ratio=0.5)))
    Dk, err = D.truncate(3)
    assert err == 0.125
    assert Dk.mu.at(3) == pytest.approx(0.25)
    assert Dk.mu.at(4) == 0


def test_truncate_beyond_support_is_exact():
    D = cd.Derivation.from_mu_values([0, 1, 1, 1])
    Dk, err = D.truncate(10)
    assert err == 0.0
    for n in range(12):
        assert Dk.mu.at(n) == D.mu.at(n)


def test_truncate_constant_never_converges():
    _, err = constant_mu(1.0).truncate(100)
    assert err == 1.0


def test_truncate_requires_tail():
    D = cd.Derivation.from_mu(lambda n: 1.0 / n, tail=cd.ClosedForm())
    with pytest.raises(cd.TailUnknownError):
        D.truncate(4)


def test_truncation_error_dominates_probes():
    D = cd.Derivation.from_mu(lambda n: 2.0 ** (1 - n),
                              tail=cd.ClosedForm(cd.Decay(1, ratio=0.5)))
    for k in (1, 3, 7):
        _, err = D.truncate(k)
        for depth in (k + 1, k + 16, k + 256):
            probe = np.abs(D.mu.bulk(np.arange(k + 1, depth + 1))).max()
            assert probe <= err + 1e-15
        assert abs(np.abs(D.mu.at(k + 1)) - err) < 1e-15  # attained


# -- witness -------------------------------------------------------------------

def test_witness_first_step_indices():
    D = constant_mu(1.0)
    report = D.witness(0.5, 1)
    assert report.j == (1001,)
    assert report.l == (1000,)
    assert report.chosen_indices == (2001,)
    assert report.diagonal[0] == pytest.approx(1001 / 2001, rel=1e-15)
    assert report.diagonal[0] > 0.5 / 3


def test_witness_four_terms():
    D = constant_mu(1.0)
    report = D.witness(0.5, 4)
    assert len(report.j) == 4
    assert list(report.j) == sorted(report.j)
    assert len(report.gaps) == 6
    assert all(gap > 0.125 for *_, gap in report.gaps)
    assert report.separation > 0.125
    assert report.recheck(D)


def test_witness_zero_tail_has_no_admissible_index():
    D = cd.Derivation.from_mu_values([0, 1, 1, 1])
    with pytest.raises(cd.NoAdmissibleIndexError):
        D.witness(0.5, 1)


def test_witness_decaying_rule_runs_out():
    D = cd.Derivation.from_mu(lambda n: 2.0 ** (1 - n),
                              tail=cd.ClosedForm(cd.Decay(1, ratio=0.5)))
    with pytest.raises(cd.NoAdmissibleIndexError):
        D.witness(0.5, 1)


def test_witness_index_overflow_reports_partial():
    D = constant_mu(1.0)
    with pytest.raises(cd.IndexOverflowError) as err:
        D.witness(0.5, 3, growth_constant=1e18)
    assert err.value.partial is not None
    assert len(err.value.partial.j) == 1


def test_witness_report_serialises_and_rechecks():
    D = constant_mu(1.0)
    report = D.witness(0.5, 3)
    payload = report.to_dict()
    rebuilt = cd.WitnessReport(
        epsilon=payload["epsilon"],
        growth_constant=payload["growth_constant"],
        j=tuple(payload["j"]), l=tuple(payload["l"]),
        chosen_indices=tuple(payload["chosen_indices"]),
        diagonal=tuple(payload["diagonal"]),
        gaps=tuple((i, k, g) for i, k, g in payload["gaps"]),
        separation=payload["separation"])
    assert rebuilt.recheck(D)
    # tampered indices fail the recheck
    tampered = cd.WitnessReport(
        epsilon=payload["epsilon"],
        growth_constant=payload["growth_constant"],
        j=(3,) + tuple(payload["j"][1:]), l=tuple(payload["l"]),
        chosen_indices=tuple(payload["chosen_indices"]),
        diagonal=tuple(payload["diagonal"]),
        gaps=tuple((i, k, g) for i, k, g in payload["gaps"]),
        separation=payload["separation"])
    assert not tampered.recheck(D)


# -- one evaluation path ---------------------------------------------------------

def _bits(z):
    z = complex(z)
    return z.real.hex(), z.imag.hex()


def _single_path_sequences():
    wave = cd.DualSequence(
        lambda n: np.exp(0.3j * n) / (n + 1.0), tail=cd.ClosedForm(),
        vectorized=True)
    a = cd.L1Element([0.3 - 0.2j, 0, 1.7 + 0.9j, -0.45j])
    from_phi = cd.Derivation.from_phi(wave, probe_depth=0)
    array_mu = cd.Derivation.from_mu(
        lambda n: np.cos(0.7 * n) * (1 + 1j / n), tail=cd.ClosedForm())
    scalar_mu = cd.Derivation.from_mu(
        lambda n: math.cos(0.7 * n) / math.sqrt(n), tail=cd.ClosedForm())
    return {
        "from_values": cd.DualSequence.from_values(
            [1 + 2j, 0.3, -4.1], tail=cd.ZeroTail(3)),
        "constant": cd.DualSequence.constant(0.3 + 0.7j),
        "act_on_dual": cd.act_on_dual(a, wave),
        "from_phi": from_phi.mu,
        "from_mu_array_mu": array_mu.mu,
        "from_mu_array_phi": array_mu.phi,
        "from_mu_scalar_mu": scalar_mu.mu,
        "from_mu_scalar_phi": scalar_mu.phi,
        "apply": from_phi.apply(cd.L1Element([2, -0.6 + 1.1j, 0, 0.35])),
    }


@pytest.mark.parametrize("name", sorted(_single_path_sequences()))
def test_at_is_a_one_element_bulk(name):
    seq = _single_path_sequences()[name]
    for n in list(range(80)) + [1000, 2 ** 31 + 5, 2 ** 53 + 1]:
        assert _bits(seq.at(n)) == _bits(seq.bulk([n])[0]), n


def test_phi_from_mu_matches_python_quotient():
    D = cd.Derivation.from_mu(lambda n: math.sin(n) * n / (n + 3.0),
                              tail=cd.ClosedForm())
    ns = list(range(200)) + [2 ** 53 + 7]
    for n, value in zip(ns, D.phi.bulk(ns)):
        assert _bits(value) == _bits(D.mu.at(n + 1) / (n + 1)), n


@pytest.mark.parametrize("tail, expected", [
    (cd.ZeroTail(7), cd.ZeroTail(6)),
    (cd.ClosedForm(cd.Constant(0.25, 3)), cd.ClosedForm(cd.Constant(0.25, 2))),
    (cd.ClosedForm(cd.Decay(2)), cd.ClosedForm()),
    (cd.UNDECLARED, cd.UNDECLARED),
], ids=["zero", "constant", "decay", "undeclared"])
def test_apply_tail_is_the_module_action_tail(tail, expected):
    phi = cd.DualSequence(lambda n: 0.25 if n >= 3 else 1.0 / (n + 1),
                          tail=tail)
    D = cd.Derivation.from_phi(phi, probe_depth=0, mu_tail=cd.UNDECLARED)
    f = cd.L1Element([0.5, 0, 2, -1])
    image = D.apply(f)
    assert image.tail == cd.act_on_dual(cd.L1Element([0, 4, -3]), phi).tail
    assert image.tail == expected
    cd.validate_tail(image, 40)  # the tightened Constant start is sound


# -- each value is evaluated once ----------------------------------------------

@pytest.mark.parametrize("tail", [
    cd.ClosedForm(cd.Decay(1)),
    cd.ClosedForm(cd.Constant(0.0, 900)),
    cd.ClosedForm(),
    cd.ZeroTail(700),
], ids=["decay", "constant", "no-certificate", "zero"])
def test_norm_evaluates_each_index_once(tail):
    seen = Counter()

    def rule(n):
        seen[int(n)] += 1  # int() of an array raises: a scalar-only rule
        return 0.0 if n >= 900 else 1.0 / (n * n)

    D = cd.Derivation.from_mu(rule, tail=tail)
    seen.clear()
    depth = 1000
    D.norm(depth)
    last = depth if not isinstance(tail, cd.ZeroTail) else tail.start - 1
    assert seen == Counter(range(1, last + 1))


def test_norm_peak_memory_at_depth_1e6():
    D = cd.Derivation.from_mu(
        lambda n: 3 / (np.asarray(n, float) + 2) ** 2,
        tail=cd.ClosedForm(cd.Decay(1)))
    D.norm(10)
    tracemalloc.start()
    try:
        lower, exact = D.norm(10 ** 6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert lower == exact == 1 / 3
    # the values are held once and every temporary is the size of a
    # block: measured 18.3 MB, where evaluating and checking the whole
    # probe at once peaked at 46.7 MB
    assert peak < 24 * 2 ** 20
