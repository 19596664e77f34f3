"""Algebra arithmetic: convolution, norms, pairing, dual actions."""

import math
import time
import warnings
from fractions import Fraction

import numpy as np
import pytest

import convderiv as cd
from convderiv import convolution


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
    _assert_exact([complex(top_a, -top_a + 2), complex(top_a - 1, top_a)],
                  [complex(top_b, top_b - 7), complex(-top_b, top_b - 1)])
    # 2 * 64 * max|a| * max|b| just below 2^53
    top = math.isqrt(2 ** 53 // 128) - 1
    assert 2 ** 53 - 2 ** 32 < 128 * top * top < 2 ** 53
    rng = np.random.default_rng(8)
    a, b = (_integer_sequence(rng, 64, top, False) for _ in range(2))
    a[0] = b[0] = complex(top, -top)
    _assert_exact(a, b)


def test_convolve_above_2_53_is_the_float_product():
    # 2 * min(len) * max|a| * max|b| = 6 * 2^53: the float path, whose sums
    # round (coefficient 2 is 2^53 + 2, which numpy's float sum rounds to
    # 2^53), where an int64 path would have been exact before the cast
    a = np.array([1, 1, 1], dtype=complex)
    b = np.array([1, 1, 2 ** 53], dtype=complex)
    got = cd.convolve(cd.L1Element(a), cd.L1Element(b)).coeffs
    assert _same_bits(got, np.convolve(a, b))
    # (2^27 + 1)^2 = 2^54 + 2^28 + 1 rounds
    big = cd.L1Element([2 ** 27 + 1])
    got = cd.convolve(big, big).coeffs
    assert got.tolist() == [18014398777917440]
    assert _same_bits(got, np.convolve(big.coeffs, big.coeffs))


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


def test_validate_tail_returns_the_largest_modulus_it_read():
    honest = cd.DualSequence(lambda n: 2.0 ** -n,
                             tail=cd.ClosedForm(cd.Decay(0, ratio=0.5)))
    assert cd.validate_tail(honest, 40) == 1.0
    assert cd.validate_tail(honest, 40, first_index=3) == 0.125
    seen = []
    const = cd.DualSequence(lambda n: seen.append(n) or (1.5 if n else 0.0),
                            tail=cd.ClosedForm(cd.Constant(1.5, 1)))
    assert cd.validate_tail(const, 9, first_index=1) == 1.5
    assert seen == list(range(1, 10))
    # with no certificate to check the values are still read
    harmonic = cd.DualSequence(lambda n: 1 / (n + 1), tail=cd.ClosedForm())
    assert cd.validate_tail(harmonic, 10) == 1.0
    ramp = cd.DualSequence(lambda n: n / (n + 1), tail=cd.UNDECLARED)
    assert cd.validate_tail(ramp, 100) == 100 / 101
    padded = cd.DualSequence.from_values([3, -4j, 0], tail=cd.ZeroTail(2))
    assert cd.validate_tail(padded, 10) == 4.0
    empty = cd.DualSequence.from_values([], tail=cd.ZeroTail(0))
    assert cd.validate_tail(empty, 5) == 0.0
    # an empty range reads nothing
    assert cd.validate_tail(cd.DualSequence(None), 4, first_index=5) == 0.0


# -- the exact path by FFT, under a proven rounding bound --------------------

def _ones(size, width):
    """sum_i 2^(8 width i) over i < size."""
    return int.from_bytes((b"\1" + bytes(width - 1)) * size, "little")


def _kronecker(parts, width):
    """sum_i parts[i] 2^(8 width i) as one Python int, |part| < 2^(8 width
    - 1): each part is biased to a non-negative digit, and the bias taken
    off again."""
    bias = 1 << (8 * width - 1)
    data = b"".join((x + bias).to_bytes(width, "little") for x in parts)
    return int.from_bytes(data, "little") - bias * _ones(len(parts), width)


def _unkronecker(value, size, width):
    """The size signed digits of a Kronecker-packed Python int."""
    bias = 1 << (8 * width - 1)
    data = (value + bias * _ones(size, width)).to_bytes(width * size,
                                                         "little")
    return [int.from_bytes(data[i:i + width], "little") - bias
            for i in range(0, width * size, width)]


def _kronecker_product(a, b):
    """Gaussian-integer Cauchy product by Kronecker substitution: each part
    packed into one Python int, a digit wide enough for any coefficient,
    and multiplied as Python ints; no floating point."""
    a = [(int(z.real), int(z.imag)) for z in a]
    b = [(int(z.real), int(z.imag)) for z in b]
    top = 2 * min(len(a), len(b)) * max(max(map(abs, z)) for z in a) \
        * max(max(map(abs, z)) for z in b)
    width = (top.bit_length() + 8) // 8
    ar, ai = (_kronecker(part, width) for part in zip(*a))
    br, bi = (_kronecker(part, width) for part in zip(*b))
    size = len(a) + len(b) - 1
    return (_unkronecker(ar * br - ai * bi, size, width),
            _unkronecker(ar * bi + ai * br, size, width))


def _assert_exact(a, b):
    """convolve(a, b) is the Python-int product, with the bits of re + 1j *
    im for int64 arrays re and im, so no -0.0."""
    got = cd.convolve(cd.L1Element(a), cd.L1Element(b)).coeffs
    re, im = _kronecker_product(a, b)
    assert [int(z) for z in got.real] == re
    assert [int(z) for z in got.imag] == im
    assert _same_bits(got, np.array(re) + 1j * np.array(im))
    assert not np.signbit(got.real[got.real == 0]).any()
    assert not np.signbit(got.imag[got.imag == 0]).any()


def _fft_accepts(a, b):
    """Percival's radius proves an exact product by FFT within 1/2."""
    a, b = np.asarray(a, dtype=complex), np.asarray(b, dtype=complex)
    factor = convolution._fft_factor(a.size + b.size - 1)
    return convolution._radius(a, b, factor) < 0.5


def _integer_sequence(rng, size, top, real):
    z = rng.integers(-top, top + 1, size) + (
        0 if real else 1j * rng.integers(-top, top + 1, size))
    z = np.asarray(z, dtype=complex)
    if z[-1] == 0:  # the degree is the length asked for
        z[-1] = 1
    return z


@pytest.mark.parametrize("real", [False, True], ids=["gaussian", "real"])
def test_fft_products_are_exact_at_every_length(real):
    rng = np.random.default_rng(15 + real)
    sizes = [1, 2] + [n for k in (2, 3, 7, 10, 14)
                      for n in (2 ** k - 1, 2 ** k, 2 ** k + 1)]
    for size in sizes:
        a = _integer_sequence(rng, size, 9, real)
        b = _integer_sequence(rng, int(rng.integers(1, size + 1)), 9, real)
        assert _fft_accepts(a, b) and _fft_accepts(a, a)
        _assert_exact(a, b)
        _assert_exact(a, a)
    # the largest product the benchmark deck and the degree cap allow
    a, b = (_integer_sequence(rng, 30001, 9, real) for _ in range(2))
    assert _fft_accepts(a, b)
    _assert_exact(a, b)


def test_fft_rounding_stays_inside_percival_bound():
    # the raw FFT product, before rint, against the theorem's bound with a
    # twiddle error of 4 units, far below the 2^7 that convolve allows
    rng = np.random.default_rng(3)
    u = 2.0 ** -53
    for size, top in ((64, 2 ** 15), (1000, 2 ** 13), (4097, 2 ** 12)):
        a, b = (_integer_sequence(rng, size, top, False) for _ in range(2))
        assert _fft_accepts(a, b)
        k = (2 * size - 2).bit_length()
        length = 1 << k
        raw = np.fft.ifft(np.fft.fft(a, length) * np.fft.fft(b, length))
        re, im = _kronecker_product(a, b)
        error = max(abs(complex(z) - complex(x, y))
                    for z, x, y in zip(raw.tolist(), re, im))
        factor = math.expm1(3 * k * math.log1p(u)
                            + (3 * k + 1) * math.log1p(math.sqrt(5) * u)
                            + 3 * k * math.log1p(4 * u))
        bound = np.linalg.norm(a) * np.linalg.norm(b) * factor
        assert 0 < error <= bound < 0.5


def test_products_the_fft_bound_rejects_stay_exact():
    # [2^26, 1] [2^25, 3] sits on the guard (2 * 2 * 2^26 * 2^25 = 2^53),
    # so it is a float product, exact here because every sum is
    on_guard = cd.convolve(cd.L1Element([2 ** 26, 1]),
                           cd.L1Element([2 ** 25, 3])).coeffs
    assert on_guard.tolist() == [2 ** 51, 7 * 2 ** 25, 3]
    rng = np.random.default_rng(21)
    cases = [([2 ** 25, 1], [2 ** 25, 3]),
             ([2 ** 25, 1j], [3j, 2 ** 25]),
             ([1j * 2 ** 25, 1j], [2 ** 25, 3]),
             ([1j * 2 ** 25, -1j], [1j * 2 ** 25, 3j])]
    for size in (1, 2, 3, 5, 8):
        top = math.isqrt(2 ** 52 // (2 * size)) - 1
        for real in (False, True):
            cases.append((_integer_sequence(rng, size, top, real),
                          _integer_sequence(rng, size, top, real)))
    for a, b in cases:
        assert not _fft_accepts(a, b)
        _assert_exact(a, b)


def _guard_top(size):
    """The largest part t with 2 size t^2 < 2^53: squares at the guard."""
    return math.isqrt((2 ** 53 - 1) // (2 * size))


def test_exact_products_route_by_size(monkeypatch):
    rng = np.random.default_rng(46)
    small, big = (_integer_sequence(rng, size, 9, False)
                  for size in (300, 512))
    with monkeypatch.context() as patch:  # below the cutoff: no FFT
        patch.setattr(np.fft, "fft", _raiser)
        _assert_exact(small, small)
    assert _fft_accepts(big, big)
    with monkeypatch.context() as patch:  # above it, within the bound
        patch.setattr(np, "convolve", _raiser)
        _assert_exact(big, big)
    top = _guard_top(600)
    past = [_integer_sequence(rng, 600, top, False) for _ in range(2)]
    assert not _fft_accepts(*past) and _route(*past) == "exact"
    with monkeypatch.context() as patch:  # past Percival's bound: no FFT
        patch.setattr(np.fft, "fft", _raiser)
        _assert_exact(*past)


def test_exact_products_at_the_guard_mix_real_and_gaussian():
    rng = np.random.default_rng(47)
    for size in (1, 7, 300, 600):
        top = _guard_top(size)
        real, gaussian = (_integer_sequence(rng, size, top, real)
                          for real in (True, False))
        for a, b in ((real, real), (real, gaussian), (gaussian, real)):
            assert _route(a, b) == "exact"
            _assert_exact(a, b)


# -- float products: the route and the radius -------------------------------

def _dyadic(rng, size):
    """Gaussian (odd k) / 2^11 parts, |k| < 2^30: float inputs whose exact
    product is the Kronecker product of the odd integers, over 2^22, and
    whose direct sums round."""
    odd = 2 * rng.integers(-2 ** 29, 2 ** 29, size=(2, size)) + 1
    return (odd[0] + 1j * odd[1]) / 2 ** 11


def _route(a, b):
    return cd.convolve_with_radius(cd.L1Element(a), cd.L1Element(b))[2]


def _raiser(*args, **kwargs):
    raise AssertionError("this route must not be taken")


def test_float_products_route_by_size(monkeypatch):
    rng = np.random.default_rng(40)
    big, small = _dyadic(rng, 512), _dyadic(rng, 300)
    want = np.convolve(small, small)
    assert _route(big, big) == "fft" and _route(small, small) == "direct"
    with monkeypatch.context() as patch:
        patch.setattr(np, "convolve", _raiser)
        product, radius, route = cd.convolve_with_radius(cd.L1Element(big),
                                                         cd.L1Element(big))
    assert route == "fft" and radius > 0
    assert np.abs(product.coeffs - np.convolve(big, big)).max() <= radius
    with monkeypatch.context() as patch:
        patch.setattr(np.fft, "fft", _raiser)
        got = cd.convolve(cd.L1Element(small), cd.L1Element(small)).coeffs
    assert _same_bits(got, want)


def test_every_coefficient_lies_within_the_radius():
    rng = np.random.default_rng(41)
    shapes = [(n, n) for n in (200, 256, 300, 350, 384, 400, 512, 700)] + \
        [(64, 4096), (256, 4096), (512, 4096), (3, 3000)]
    routes = set()
    for la, lb in shapes:
        a, b = _dyadic(rng, la), _dyadic(rng, lb)
        product, radius, route = cd.convolve_with_radius(cd.L1Element(a),
                                                         cd.L1Element(b))
        routes.add(route)
        assert route in ("fft", "direct") and radius > 0
        re, im = _kronecker_product(a * 2 ** 11, b * 2 ** 11)
        bound = Fraction(radius * 2 ** 22) ** 2  # exact: a power of two
        for z, x, y in zip(product.coeffs * 2 ** 22, re, im):
            assert (Fraction(z.real) - x) ** 2 + (Fraction(z.imag) - y) ** 2 \
                <= bound, (la, lb, route)
    assert routes == {"fft", "direct"}
    for size in (1, 5, 600):  # Gaussian integers: the exact route
        a, b = (_integer_sequence(rng, size, 9, False) for _ in range(2))
        assert cd.convolve_with_radius(cd.L1Element(a), cd.L1Element(b))[1:] \
            == (0.0, "exact")


def test_the_direct_radius_covers_products_that_underflow():
    # 1e-200 * 3e-200 rounds to 0, and the radius still bounds the product
    product, radius, route = cd.convolve_with_radius(
        cd.L1Element([1e-200]), cd.L1Element([3e-200]))
    assert route == "direct" and not product.coeffs.any()
    assert Fraction(1e-200) * Fraction(3e-200) <= Fraction(radius)
    # parts (odd k) 2^-566, |k| < 2^30: every product lies below 2^-1072,
    # where it rounds absolutely, and gamma_3m ||a|| ||b|| underflows
    rng = np.random.default_rng(45)
    scale = Fraction(1, 2 ** 1132)
    for la, lb in ((1, 1), (3, 7), (40, 40), (200, 5)):
        a, b = (_dyadic(rng, size) * 2.0 ** -555 for size in (la, lb))
        product, radius, route = cd.convolve_with_radius(cd.L1Element(a),
                                                         cd.L1Element(b))
        assert route == "direct"
        re, im = _kronecker_product(a * 2.0 ** 566, b * 2.0 ** 566)
        errors = [(Fraction(z.real) - x * scale) ** 2
                  + (Fraction(z.imag) - y * scale) ** 2
                  for z, x, y in zip(product.coeffs, re, im)]
        assert max(errors) <= Fraction(radius) ** 2, (la, lb)
        assert max(errors) > 0  # the sums did round


def test_non_finite_ffts_fall_back_to_the_direct_sums():
    rng = np.random.default_rng(42)
    huge = 1e308 * (0.5 + rng.random(600) / 2)
    cases = [(huge, 1e-10 * rng.standard_normal(600)),
             (huge, rng.standard_normal(600)),
             (huge + 1j * huge, huge[::-1])]
    with np.errstate(over="ignore", invalid="ignore"):
        for a, b in cases:
            want = np.convolve(a.astype(complex), b.astype(complex))
            product, radius, route = cd.convolve_with_radius(
                cd.L1Element(a), cd.L1Element(b))
            assert route == "direct" and radius > 0
            assert _same_bits(product.coeffs, want[:product.coeffs.size])
    with warnings.catch_warnings():
        # an FFT that overflowed and was discarded is no warning
        warnings.simplefilter("error")
        assert np.isfinite(cd.convolve(cd.L1Element(cases[0][0]),
                                       cd.L1Element(cases[0][1])).coeffs).all()


def test_gamma_and_the_radius_round_up():
    u = Fraction(1, 2 ** 53)
    for k in (1, 2, 3, 7, 100, 3 * 2 ** 16, 2 ** 20 + 7, 2 ** 40 + 1):
        assert Fraction(convolution._gamma(k)) >= k * u / (1 - k * u)
    rng = np.random.default_rng(43)
    for scale_a, scale_b in ((1.0, 1.0), (1e-200, 1e200), (1e150, 1e150),
                             (3.0, 1e-160)):
        for size in (1, 2, 33, 1000):
            a, b = (scale * (rng.standard_normal(size)
                             + 1j * rng.standard_normal(size))
                    for scale in (scale_a, scale_b))
            factor = convolution._fft_factor(2 * size - 1)
            radius = convolution._radius(a, b, factor)
            squares = [sum(Fraction(x) ** 2 for x in v.view(np.float64))
                       for v in (a, b)]
            assert Fraction(radius) ** 2 >= \
                Fraction(factor) ** 2 * squares[0] * squares[1]


def test_float_product_at_degree_30000_is_fast():
    rng = np.random.default_rng(44)
    a, b = (cd.L1Element(rng.standard_normal(30001)
                         + 1j * rng.standard_normal(30001)) for _ in range(2))
    times = []
    for _ in range(5):
        start = time.perf_counter()
        cd.convolve(a, b)
        times.append(time.perf_counter() - start)
    assert min(times) < 0.05


# -- tail validation in blocks ----------------------------------------------

def _whole_probe_violation(seq, upto, first_index=0, atol=1e-9):
    """Reference: the message of the check made on the whole probe at once,
    as validate_tail did before it worked in blocks, or None."""
    cert = seq.tail.certificate
    start = max(cert.start, first_index)
    vals = seq.values(upto)
    mags = np.abs(vals)
    if isinstance(cert, cd.Constant):
        bad = np.abs(vals[start:] - cert.value) > atol * max(1.0, abs(
            cert.value))
    elif isinstance(cert, cd.Decay):
        ratio = 1.0 if cert.ratio is None else cert.ratio
        bad = mags[start + 1:] > mags[start:-1] * ratio + atol
    else:
        bad = mags[start:] < cert.bound - atol
    if not bad.any():
        return None
    n = start + int(bad.argmax())
    if isinstance(cert, cd.Decay):
        return (f"declared decay from {cert.start} but |value| rises "
                f"from {mags[n]:.6e} to {mags[n + 1]:.6e} at index {n + 1}")
    if isinstance(cert, cd.Constant):
        return (f"declared constant {cert.value} from {cert.start} but "
                f"value at {n} is {vals[n]}")
    return (f"declared |value| >= {cert.bound} from {cert.start} but "
            f"|value| at {n} is {mags[n]:.6e}")


def _lying(kind, start, bad):
    """A sequence whose certificate of the given kind, from start, fails
    at each index in bad and holds elsewhere."""
    bad = np.asarray(bad)
    if kind == "decay":
        cert = cd.Decay(start, ratio=0.999 if start else None)
        good = lambda n: 0.998 ** n  # noqa: E731
        worse = 1.5
    elif kind == "constant":
        cert = cd.Constant(0.25 - 0.5j, start)
        good = lambda n: np.full(n.shape, 0.25 - 0.5j)  # noqa: E731
        worse = 0.25
    else:
        cert = cd.Floor(0.5, start)
        good = lambda n: 0.75 * np.exp(0.1j * n)  # noqa: E731
        worse = 0.125

    def rule(n):
        return np.where(np.isin(n, bad), worse, good(n))

    return cd.DualSequence(rule, tail=cd.ClosedForm(cert), vectorized=True)


@pytest.mark.parametrize("kind", ["decay", "constant", "floor"])
def test_blocked_validation_cites_the_whole_probe_violation(kind):
    block = convolution._ACTION_BLOCK
    cases = [(0, 0, [block - 1]), (0, 0, [block]), (5, 1, [block - 1]),
             (0, 1, [block, 3 * block + 7]), (0, 0, [block + 1, block]),
             # the first block ends before the certificate starts
             (block + 4464, 0, [block + 4464, block + 4470]),
             (block + 4464, 0, [block + 4465]),
             (block + 4464, block + 4466, [block + 4465, 2 * block])]
    for start, first_index, bad in cases:
        seq = _lying(kind, start, bad)
        want = _whole_probe_violation(seq, 2 * block + 9, first_index)
        assert want is not None
        with pytest.raises(cd.CertificateViolationError) as caught:
            cd.validate_tail(seq, 2 * block + 9, first_index)
        assert str(caught.value) == want
        honest = _lying(kind, start, [])
        assert _whole_probe_violation(honest, 2 * block + 9,
                                      first_index) is None
        assert cd.validate_tail(honest, 2 * block + 9, first_index) == \
            np.abs(honest.values(2 * block + 9)[first_index:]).max()


def test_blocked_validation_raises_a_later_rule_error_first():
    # every value is evaluated before a violation is raised, as when the
    # probe was evaluated whole
    def rule(n):
        if n.max() >= 100_000:
            raise ZeroDivisionError(f"at {n.max()}")
        return np.where(n == 10, 2.0, 1.0 / (n + 1.0))

    seq = cd.DualSequence(rule, tail=cd.ClosedForm(cd.Decay(0)),
                          vectorized=True)
    with pytest.raises(cd.CertificateViolationError):
        cd.validate_tail(seq, 99_999)
    with pytest.raises(ZeroDivisionError):
        cd.validate_tail(seq, 100_000)


def test_blocked_validation_returns_the_whole_probe_bits():
    depth = 200_000
    wave = cd.DualSequence(lambda n: np.exp(0.3j * n) / (n + 1.0),
                           tail=cd.ClosedForm(cd.Decay(0)), vectorized=True)
    scalar = cd.DualSequence(lambda n: 1.0 / (n * n + 1),
                             tail=cd.ClosedForm(cd.Decay(0)))
    # mu is 0 at index 0 through a masked first block
    mu = cd.Derivation.from_mu(lambda n: 3 / (np.asarray(n, float) + 2) ** 2,
                               tail=cd.ClosedForm(cd.Decay(1))).mu
    for seq, first_index in ((wave, 0), (scalar, 0), (mu, 1)):
        assert cd.validate_tail(seq, depth, first_index) == \
            np.abs(seq.values(depth)[first_index:]).max()
