"""Algebra arithmetic: convolution, norms, pairing, dual actions."""

import math
import warnings

import numpy as np
import pytest

import convderiv as cd


def naive_convolve(a, b):
    """Independent oracle: direct double loop over Python complex numbers."""
    if len(a) == 0 or len(b) == 0:
        return []
    out = [0j] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += complex(x) * complex(y)
    return out


def test_monomial_product():
    assert cd.convolve(cd.monomial(1), cd.monomial(1)) == cd.monomial(2)


def test_identity_element():
    rng = np.random.default_rng(1)
    a = cd.L1Element(rng.standard_normal(9) + 1j * rng.standard_normal(9))
    assert cd.convolve(cd.one(), a) == a
    assert cd.convolve(a, cd.one()) == a


def test_binomial_square():
    a = cd.L1Element([1, 1])
    assert cd.convolve(a, a) == cd.L1Element([1, 2, 1])


def test_l1_norm_examples():
    assert cd.l1_norm(cd.L1Element([1, -2, 3j])) == 6.0
    assert cd.l1_norm(cd.zero()) == 0.0
    for k in (0, 1, 7):
        assert cd.l1_norm(cd.monomial(k)) == 1.0


def test_trailing_zeros_trimmed():
    assert cd.L1Element([1, 2, 0, 0]) == cd.L1Element([1, 2])
    assert cd.L1Element([0, 0]).degree == -1


def test_degree_cap():
    with pytest.raises(cd.DegreeCapError):
        cd.monomial(cd.DEGREE_CAP + 1)
    big = cd.monomial(cd.DEGREE_CAP // 2 + 1)
    with pytest.raises(cd.DegreeCapError):
        cd.convolve(big, big)


def test_convolve_matches_oracle():
    rng = np.random.default_rng(7)
    for _ in range(40):
        na, nb = rng.integers(1, 30, 2)
        a = rng.standard_normal(na) + 1j * rng.standard_normal(na)
        b = rng.standard_normal(nb) + 1j * rng.standard_normal(nb)
        got = cd.convolve(cd.L1Element(a), cd.L1Element(b))
        want = cd.L1Element(naive_convolve(a, b))
        assert np.allclose(got.coeffs, want.coeffs, atol=1e-13, rtol=0)


def test_gaussian_integer_convolution_is_exact():
    rng = np.random.default_rng(11)
    for _ in range(25):
        na, nb = rng.integers(1, 25, 2)
        a = rng.integers(-50, 50, na) + 1j * rng.integers(-50, 50, na)
        b = rng.integers(-50, 50, nb) + 1j * rng.integers(-50, 50, nb)
        got = cd.convolve(cd.L1Element(a), cd.L1Element(b)).coeffs
        want = naive_convolve([complex(x) for x in a],
                              [complex(x) for x in b])
        want = np.trim_zeros(np.asarray(want, dtype=complex), "b")
        assert np.array_equal(got, want)


def test_commutativity_exact():
    rng = np.random.default_rng(3)
    for _ in range(20):
        na, nb = rng.integers(1, 65, 2)
        a = cd.L1Element(rng.standard_normal(na) + 1j * rng.standard_normal(na))
        b = cd.L1Element(rng.standard_normal(nb) + 1j * rng.standard_normal(nb))
        assert cd.convolve(a, b) == cd.convolve(b, a)


def _unit_disc_coeffs(rng, n):
    radii = np.sqrt(rng.uniform(0, 1, n))
    angles = rng.uniform(0, 2 * np.pi, n)
    return radii * np.exp(1j * angles)


def test_associativity():
    rng = np.random.default_rng(5)
    for _ in range(20):
        a, b, c = (cd.L1Element(_unit_disc_coeffs(rng, int(rng.integers(1, 20))))
                   for _ in range(3))
        lhs = cd.convolve(cd.convolve(a, b), c)
        rhs = cd.convolve(a, cd.convolve(b, c))
        n = max(lhs.coeffs.size, rhs.coeffs.size)
        left = np.zeros(n, complex)
        right = np.zeros(n, complex)
        left[: lhs.coeffs.size] = lhs.coeffs
        right[: rhs.coeffs.size] = rhs.coeffs
        assert np.abs(left - right).max(initial=0.0) < 1e-12


def test_submultiplicative():
    rng = np.random.default_rng(9)
    for _ in range(40):
        a = cd.L1Element(_unit_disc_coeffs(rng, int(rng.integers(1, 40))))
        b = cd.L1Element(_unit_disc_coeffs(rng, int(rng.integers(1, 40))))
        assert cd.l1_norm(cd.convolve(a, b)) <= \
            cd.l1_norm(a) * cd.l1_norm(b) + 1e-12


# -- functionals -------------------------------------------------------------

def test_pair_examples():
    ones = cd.DualSequence.constant(1.0)
    assert cd.pair(ones, cd.L1Element([1, 1, 1])) == 3
    harmonic = cd.DualSequence(lambda n: 1 / (n + 1), tail=cd.ClosedForm())
    assert cd.pair(harmonic, cd.monomial(2)) == pytest.approx(1 / 3, abs=0)
    assert cd.pair(harmonic, cd.zero()) == 0


def test_act_on_dual_shift():
    psi = cd.DualSequence.from_values([10, 20, 30, 40])
    shifted = cd.act_on_dual(cd.monomial(1), psi)
    assert shifted.at(0) == 20
    assert shifted.at(2) == 40


def test_act_on_dual_identity():
    psi = cd.DualSequence(lambda n: complex(n, -n), tail=cd.ClosedForm())
    acted = cd.act_on_dual(cd.one(), psi)
    for n in range(10):
        assert acted.at(n) == psi.at(n)


def test_act_on_dual_geometric_shift():
    psi = cd.DualSequence(lambda n: 2.0 ** -n, tail=cd.ClosedForm())
    acted = cd.act_on_dual(cd.monomial(2), psi)
    for n in range(8):
        assert acted.at(n) == pytest.approx(2.0 ** -(n + 2), abs=1e-15)


def test_action_compatibility():
    # pair(a.psi, b) == pair(psi, b a)
    rng = np.random.default_rng(13)
    psi = cd.DualSequence(
        lambda n: np.cos(0.7 * np.asarray(n, dtype=float))
        / (np.asarray(n, dtype=float) + 1.0),
        tail=cd.ClosedForm(), vectorized=True)
    for _ in range(30):
        a = cd.L1Element(_unit_disc_coeffs(rng, int(rng.integers(1, 12))))
        b = cd.L1Element(_unit_disc_coeffs(rng, int(rng.integers(1, 12))))
        lhs = cd.pair(cd.act_on_dual(a, psi), b)
        rhs = cd.pair(psi, cd.convolve(b, a))
        assert abs(lhs - rhs) < 1e-12


def test_sup_norm_probe_examples():
    harmonic = cd.DualSequence(lambda n: 1 / (n + 1), tail=cd.ClosedForm())
    assert cd.sup_norm_probe(harmonic, 10) == 1.0
    empty = cd.DualSequence.from_values([], tail=cd.ZeroTail(0))
    assert cd.sup_norm_probe(empty, 5) == 0.0
    ramp = cd.DualSequence(lambda n: n / (n + 1), tail=cd.ClosedForm())
    assert cd.sup_norm_probe(ramp, 100) == pytest.approx(100 / 101, abs=0)


def test_from_values_tail_rules():
    table = cd.DualSequence.from_values([1, 2, 3])
    with pytest.raises(cd.UndeclaredTailError):
        table.at(3)
    padded = cd.DualSequence.from_values([1, 2, 3], tail=cd.ZeroTail(3))
    assert padded.at(100) == 0
    with pytest.raises(ValueError):
        cd.DualSequence.from_values([1, 2, 3], tail=cd.ZeroTail(2))
    with pytest.raises(ValueError):
        cd.DualSequence.from_values([1, 2], tail=cd.ClosedForm())
    with pytest.raises(ValueError, match="index >= 0"):
        cd.DualSequence.from_values([1, 2, 0, 0], tail=cd.ZeroTail(-3))


def test_rule_determinism():
    seq = cd.DualSequence(lambda n: (n * 7 + 1) % 5, tail=cd.ClosedForm())
    first = seq.at(12)
    assert seq.at(12) == first
    assert first == (12 * 7 + 1) % 5


def test_validate_tail_catches_lies():
    rising = cd.DualSequence(lambda n: float(n), tail=cd.ClosedForm(cd.Decay(0)))
    with pytest.raises(cd.CertificateViolationError):
        cd.validate_tail(rising, 10)
    wrong_const = cd.DualSequence(lambda n: float(n % 2),
                                  tail=cd.ClosedForm(cd.Constant(1.0, 0)))
    with pytest.raises(cd.CertificateViolationError):
        cd.validate_tail(wrong_const, 10)
    shallow = cd.DualSequence(lambda n: 1.0 / (n + 1),
                              tail=cd.ClosedForm(cd.Floor(0.5, 0)))
    with pytest.raises(cd.CertificateViolationError):
        cd.validate_tail(shallow, 10)
    honest = cd.DualSequence(lambda n: 2.0 ** -n,
                             tail=cd.ClosedForm(cd.Decay(0, ratio=0.5)))
    cd.validate_tail(honest, 40)


def test_at_refuses_indices_beyond_cap():
    seq = cd.DualSequence.constant(1.0)
    assert seq.at(cd.INDEX_CAP) == 1.0
    with pytest.raises(ValueError):
        seq.at(cd.INDEX_CAP + 1)
    with pytest.raises(ValueError):
        seq.at(-1)


def test_scalar_rules_receive_python_ints():
    seen = set()

    def rule(n):
        seen.add(type(n))
        return n % 3

    seq = cd.DualSequence(rule, tail=cd.ClosedForm())
    assert list(seq.bulk([0, 4, 2 ** 53 + 1])) == [0, 1, (2 ** 53 + 1) % 3]
    assert seq.at(5) == 2
    assert seq.bulk([[0, 4], [2, 5]]).tolist() == [[0, 1], [2, 2]]
    assert seen == {int}


# -- the exact path ends where complex128 stops being exact ------------------

def _python_int_product(a, b):
    """Gaussian-integer Cauchy product in Python ints: no floating point."""
    re = [0] * (len(a) + len(b) - 1)
    im = [0] * len(re)
    for i, (ar, ai) in enumerate(a):
        for j, (br, bi) in enumerate(b):
            re[i + j] += ar * br - ai * bi
            im[i + j] += ar * bi + ai * br
    return re, im


def test_convolve_large_integer_valued_floats_take_the_float_path():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        big = cd.convolve(cd.L1Element([1e20]), cd.L1Element([1.0]))
        pair = cd.convolve(cd.L1Element([1e19, 3]), cd.L1Element([1, 1]))
    assert big == cd.L1Element([1e20])
    assert pair == cd.L1Element([1e19, 1e19 + 3, 3])


def test_convolve_just_below_2_53_is_exact():
    # 2 * min(len) * max|a| * max|b| = 4 * (2^25 - 3) * (2^26 - 5) < 2^53
    top_a, top_b = 2 ** 25 - 3, 2 ** 26 - 5
    assert 2 ** 53 - 2 ** 31 < 4 * top_a * top_b < 2 ** 53
    a = [(top_a, -top_a + 2), (top_a - 1, top_a)]
    b = [(top_b, top_b - 7), (-top_b, top_b - 1)]
    got = cd.convolve(cd.L1Element([complex(*z) for z in a]),
                      cd.L1Element([complex(*z) for z in b])).coeffs
    re, im = _python_int_product(a, b)
    assert [int(z.real) for z in got] == re
    assert [int(z.imag) for z in got] == im


def test_convolve_above_2_53_is_the_float_product():
    # 2 * min(len) * max|a| * max|b| = 6 * 2^53: the float path, whose sums
    # round (coefficient 2 is 2^53 + 2, which numpy's float sum rounds to
    # 2^53), where an int64 path would have been exact before the cast
    a = np.array([1, 1, 1], dtype=complex)
    b = np.array([1, 1, 2 ** 53], dtype=complex)
    got = cd.convolve(cd.L1Element(a), cd.L1Element(b)).coeffs
    assert _same_bits(got, np.convolve(a, b))


def test_hash_agrees_with_equality_on_signed_zeros():
    pairs = [(cd.L1Element([-0.0, 1]), cd.L1Element([0.0, 1])),
             (cd.L1Element([complex(2, -0.0)]), cd.L1Element([complex(2, 0)])),
             (cd.L1Element([complex(-0.0, -0.0), 1j]),
              cd.L1Element([0, 1j]))]
    for left, right in pairs:
        assert left == right
        assert hash(left) == hash(right)
        assert len({left, right}) == 1


# -- each value is read once ---------------------------------------------------

def _per_k_action(a, values):
    """(a.psi)(t^n) = sum_k a_k psi(t^(n+k)), one read of psi per term k,
    summed in the order of k."""
    ks = a.support
    coef = a.coeffs[ks]

    def rule(n):
        out = np.zeros(n.shape, dtype=complex)
        for k, c in zip(ks, coef):
            out += c * values(n + k)
        return out
    return rule


def _same_bits(x, y):
    x, y = np.asarray(x, dtype=complex), np.asarray(y, dtype=complex)
    return x.shape == y.shape and \
        x.view(np.uint64).tolist() == y.view(np.uint64).tolist()


def _wave():
    return cd.DualSequence(lambda n: np.exp(0.3j * n) / (n + 1.0),
                           tail=cd.ClosedForm(), vectorized=True)


def test_act_on_dual_equals_the_per_k_sum_bit_for_bit():
    rng = np.random.default_rng(17)
    scalar = cd.DualSequence(lambda n: complex(math.cos(n), 1 / (n + 2)),
                             tail=cd.ClosedForm())
    table = cd.DualSequence.from_values(
        rng.standard_normal(60) + 1j * rng.standard_normal(60),
        tail=cd.ZeroTail(60))
    for psi in (_wave(), scalar, table):
        for _ in range(8):
            a = cd.L1Element(_unit_disc_coeffs(rng, int(rng.integers(1, 40)))
                             * (rng.random(1) < 0.7))
            if a.degree < 0:
                continue
            n = np.concatenate([np.arange(90), rng.integers(0, 200, 40)])
            got = cd.act_on_dual(a, psi).bulk(n)
            assert _same_bits(got, _per_k_action(a, psi.bulk)(n))


def test_act_on_dual_row_blocks_are_bit_identical():
    # 3000 rows x 60 support terms is more than one block of index pairs
    rng = np.random.default_rng(23)
    a = cd.L1Element(_unit_disc_coeffs(rng, 90) * (rng.random(90) < 0.67))
    assert a.support.size * 3000 > cd.convolution._ACTION_BLOCK
    psi = _wave()
    n = np.arange(3000)
    got = cd.act_on_dual(a, psi).bulk(n)
    assert _same_bits(got, _per_k_action(a, psi.bulk)(n))


def test_nested_action_reads_psi_once_per_level():
    rng = np.random.default_rng(29)
    seen = []
    wave = _wave()

    def rule(n):
        seen.append(n.copy())
        return wave.bulk(n)

    psi = cd.DualSequence(rule, tail=cd.ClosedForm(), vectorized=True)
    f = cd.L1Element(_unit_disc_coeffs(rng, 30))
    g = cd.L1Element(_unit_disc_coeffs(rng, 25))
    n = np.arange(101)
    got = cd.act_on_dual(f, cd.act_on_dual(g, psi)).bulk(n)
    assert len(seen) == 1
    assert seen[0].size == np.unique(seen[0]).size == 101 + 29 + 24
    inner = _per_k_action(g, wave.bulk)
    assert _same_bits(got, _per_k_action(f, inner)(n))


def test_validate_tail_returns_the_values_it_checked():
    honest = cd.DualSequence(lambda n: 2.0 ** -n,
                             tail=cd.ClosedForm(cd.Decay(0, ratio=0.5)))
    assert _same_bits(cd.validate_tail(honest, 40), honest.values(40))
    const = cd.DualSequence(lambda n: 1.5 if n else 0.0,
                            tail=cd.ClosedForm(cd.Constant(1.5, 1)))
    assert _same_bits(cd.validate_tail(const, 9, first_index=1),
                      const.values(9))
    # nothing to check: no values are read
    for tail in (cd.ClosedForm(), cd.UNDECLARED, cd.ZeroTail(3)):
        assert cd.validate_tail(cd.DualSequence(None, tail=tail), 40) is None
