"""The dual-sequence read path keeps its bits: ``validate_tail`` on real and
complex rules, and the module action ``act_on_dual``.

The digests below were recorded before the tail read kept float64 values
real and before the module action found its distinct indices by a mark
array and summed its terms as one reduction; each case is seeded, and its
values come from + - * / and table reads only, so the bits do not depend on
a library's transcendental functions.
"""

import hashlib
import tracemalloc

import numpy as np
import pytest

import convderiv as cd
from convderiv import convolution

BLOCK = convolution._ACTION_BLOCK  # a multiple of validate_tail's block

# SHA-256 of the outcomes of _tail_cases and of the values of _action_cases
TAIL_DIGEST = \
    "1ff4b1627599f2a446af1a0ada4b4dfbc1b0fa097562f71fde1a050e01a77e85"
ACTION_DIGEST = \
    "141bdee670a70fb1b7cc912de036872f637dc8c5b47df6c7d2e24e395871350e"


# -- validate_tail on real and complex rules ---------------------------------

def _table(rng, size, kind):
    """A seeded real table of ``size`` values: decaying, constant or kept
    above a floor; a few -0.0, inf and NaN for the others."""
    n = np.arange(size, dtype=float)
    if kind == "decay":
        return float(rng.integers(1, 9)) / (n + float(rng.integers(1, 5)))
    if kind == "geometric":
        return np.cumprod(np.full(size, 0.5 + 0.25 * rng.random()))
    if kind == "constant":
        return np.full(size, float(rng.integers(-3, 4)) / 4.0)
    if kind == "floor":
        return (1.0 + 1.0 / (n + 1.0)) * np.where(n % 3 == 0, -1.0, 1.0)
    values = (rng.integers(-50, 51, size) / 8.0).astype(float)
    special = rng.integers(0, size, 6)
    values[special] = [-0.0, -0.0, np.inf, -np.inf, np.nan, 0.0]
    return values


def _lie(rng, table, kind, start, upto):
    """The table with one or two values past ``start`` (and within
    ``upto``) that break its certificate; the first lie sits at a block
    edge."""
    table = table.copy()
    spots = {min(upto, max(start + 1, BLOCK + int(rng.integers(-2, 3)))),
             int(rng.integers(start + 1, upto + 1))}
    for n in spots:
        if kind in ("decay", "geometric"):
            table[n] = 4.0 * abs(table[n - 1]) + 1.0
        elif kind == "constant":
            table[n] = table[n] + 0.5
        else:
            table[n] = 0.25
    return table


def _tails(rng, kind, start):
    if kind == "decay":
        return [cd.ClosedForm(cd.Decay(start))]
    if kind == "geometric":
        return [cd.ClosedForm(cd.Decay(start, ratio=0.8)),
                cd.ClosedForm(cd.Decay(start))]
    if kind == "constant":
        return "constant"  # built from the table's value
    if kind == "floor":
        return [cd.ClosedForm(cd.Floor(0.5 + 0.25 * rng.random(), start))]
    return [cd.ZeroTail(start + int(rng.integers(0, 40))), cd.UNDECLARED,
            cd.ClosedForm()]


def _tail_cases():
    """(label, real table, tail, upto, first_index) for every tail kind,
    honest and lying, over ranges inside one block and across blocks."""
    rng = np.random.default_rng(2027)
    cases = []
    for kind in ("decay", "geometric", "constant", "floor", "plain"):
        for trial in range(6):
            upto = int(rng.choice([60, BLOCK - 1, BLOCK, 2 * BLOCK + 9]))
            start = int(rng.choice([0, 1, 5, min(upto, BLOCK - 3)]))
            first = int(rng.choice([0, 1, start, min(upto + 1, BLOCK + 3)]))
            table = _table(rng, upto + 1, kind)
            tails = _tails(rng, kind, start)
            if tails == "constant":
                value = float(table[0])
                tails = [cd.ClosedForm(cd.Constant(value, start)),
                         cd.ClosedForm(cd.Constant(complex(value), start))]
            for tail in tails:
                label = (kind, trial, repr(tail), upto, first)
                cases.append((label + ("honest",), table, tail, upto,
                              first))
                if kind != "plain" and start < upto:
                    cases.append((label + ("lying",),
                                  _lie(rng, table, kind, start, upto),
                                  tail, upto, first))
    return cases


def _outcome(seq, upto, first):
    """validate_tail's value as its hex digits (NaN as 'nan'), or its
    error: type and message."""
    try:
        return float.hex(cd.validate_tail(seq, upto, first))
    except cd.CertificateViolationError as exc:
        return type(exc).__name__, str(exc)


def _on_table(table, tail):
    return cd.DualSequence(lambda n: table[n], tail=tail, vectorized=True)


def test_tail_reads_keep_their_bits_on_real_and_complex_rules():
    outcomes = []
    for label, table, tail, upto, first in _tail_cases():
        real = _outcome(_on_table(table, tail), upto, first)
        assert real == _outcome(_on_table(table.astype(complex), tail),
                                upto, first), label
        outcomes.append((label, real))
    kinds = {type(out).__name__ for _, out in outcomes}
    assert kinds == {"str", "tuple"}  # values and violations both
    digest = hashlib.sha256(repr(outcomes).encode()).hexdigest()
    assert digest == TAIL_DIGEST


@pytest.mark.parametrize("kind", ["decay", "constant", "floor"])
def test_real_and_complex_rules_give_the_same_violation_text(kind):
    # the same lying values as float64 and as complex128: the constant's
    # message writes the value as a complex number either way
    n = np.arange(3 * BLOCK)
    if kind == "decay":
        table, cert = 1.0 / (n + 1.0), cd.Decay(2)
        table[BLOCK + 1] = 0.75
    elif kind == "constant":
        table, cert = np.full(n.size, -0.5), cd.Constant(-0.5, 3)
        table[BLOCK - 1] = -0.0
    else:
        table, cert = 2.0 - 1.0 / (n + 1.0), cd.Floor(1.25, 1)
        table[2 * BLOCK + 5] = -1.0
    messages = []
    for values in (table, table.astype(complex)):
        seq = _on_table(values, cd.ClosedForm(cert))
        with pytest.raises(cd.CertificateViolationError) as caught:
            cd.validate_tail(seq, n.size - 1)
        messages.append(str(caught.value).encode())
    assert messages[0] == messages[1]
    if kind == "constant":
        assert messages[0].endswith(b"is (-0+0j)")


# -- the module action --------------------------------------------------------

def _psi(rng, kind):
    """A seeded functional with signed zeros and infinities among its
    values: a finite table with a zero tail, or a closed form in n."""
    if kind == "table":
        size = int(rng.integers(1, 400))
        table = (rng.integers(-9, 10, size) + 1j * rng.integers(-9, 10, size)
                 ) / 4.0
        table[rng.integers(0, size, 4)] = [complex(-0.0, -0.0),
                                           complex(-0.0, 1.0),
                                           complex(np.inf, -0.0),
                                           complex(2.0, -0.0)]
        return cd.DualSequence.from_values(table, tail=cd.ZeroTail(size))

    def rule(n):
        re = ((n * 7919) % 1009 - 504) / 37.0
        im = np.where(n % 11 == 0, -0.0, ((n * 31) % 89 - 44) / 8.0)
        return np.where(n % 13 == 0, -0.0, re) + 1j * im

    return cd.DualSequence(rule, tail=cd.ClosedForm(), vectorized=True)


def _element(rng, terms, wide):
    """``terms`` non-zero coefficients, some with -0.0 parts, spread over
    a degree of up to four times as many, or up to 5 10^4 when wide."""
    if terms == 0:
        return cd.zero()
    degree = int(rng.integers(terms - 1, 5 * 10 ** 4 if wide
                              else 4 * terms))
    where = np.append(rng.choice(degree, terms - 1, replace=False), degree)
    parts = rng.integers(-6, 7, (2, terms)) / 2.0
    coeffs = np.zeros(degree + 1, dtype=complex)
    coeffs[where] = parts[0] + 1j * parts[1]
    zero = coeffs[where] == 0
    coeffs[where[zero]] = 1.0
    signed = where[rng.random(terms) < 0.3]
    coeffs[signed] = [complex(-0.0, 1.5) if i % 2 else complex(-2.0, -0.0)
                      for i in range(signed.size)]
    return cd.L1Element(coeffs)


def _indices(rng, rows):
    """Contiguous, shuffled and repeated rows, and scattered indices whose
    span is far beyond the size of their grid."""
    shape = int(rng.integers(0, 4))
    if shape == 0:
        return np.arange(rows)
    if shape == 1:
        return rng.permutation(rows) + int(rng.integers(0, 50))
    if shape == 2:
        return rng.integers(0, rows, rows)
    return np.sort(rng.integers(0, 10 ** 12, max(1, rows // 50)))


def _action_cases():
    rng = np.random.default_rng(2028)
    for trial in range(120):
        psi = _psi(rng, "table" if trial % 3 == 0 else "rule")
        terms = int(rng.choice([0, 1, 2] + [int(rng.integers(3, 260))] * 3))
        a = _element(rng, terms, wide=trial % 5 == 0)
        yield psi, a, _indices(rng, int(rng.integers(1, 700)))


def _canonical(values):
    """The bits of complex values with every NaN written as one NaN."""
    parts = np.asarray(values, dtype=complex).view(np.float64).copy()
    parts[np.isnan(parts)] = np.nan
    return parts.tobytes()


def test_action_values_keep_their_bits():
    digest = hashlib.sha256()
    for psi, a, n in _action_cases():
        values = cd.act_on_dual(a, psi).bulk(n)
        assert values.dtype == complex and values.shape == n.shape
        digest.update(_canonical(values))
    assert digest.hexdigest() == ACTION_DIGEST


@pytest.mark.parametrize("path", ["marked", "sorted"])
def test_psi_reads_each_distinct_index_of_a_block_once(path, monkeypatch):
    # indices n + k that span at most _SPAN_FACTOR times their count are
    # marked in a boolean array, wider ones sorted by np.unique; either
    # way psi sees each distinct index of a block once, in increasing order
    rng = np.random.default_rng(31)
    if path == "marked":
        a = cd.L1Element([1, 0, 0, 2j, 0, 0, 0, -0.5])
        n = np.concatenate([rng.permutation(30000), rng.integers(0, 30000,
                                                                 20000)])
    else:
        a = cd.L1Element(np.eye(1, 5001, 5000)[0] + 1)
        n = np.array([3, 10 ** 9, 7, 3, 2 ** 40])
    rows = BLOCK // a.support.size
    grids = [a.support[:, None] + n[None, lo:lo + rows]
             for lo in range(0, n.size, rows)]
    span = max(g.max() - g.min() + 1 - convolution._SPAN_FACTOR * g.size
               for g in grids)
    assert (span <= 0) == (path == "marked")
    seen, sorts = [], []
    wave = _psi(rng, "rule")

    def rule(idx):
        seen.append(idx.copy())
        return wave.bulk(idx)

    unique = np.unique
    monkeypatch.setattr(convolution.np, "unique",
                        lambda *args, **kw: sorts.append(1) or unique(
                            *args, **kw))
    psi = cd.DualSequence(rule, tail=cd.ClosedForm(), vectorized=True)
    got = cd.act_on_dual(a, psi).bulk(n)
    assert len(sorts) == (0 if path == "marked" else len(grids))
    assert len(seen) == len(grids)
    for read, grid in zip(seen, grids):
        assert read.tolist() == unique(grid).tolist()
    want = sum((c * wave.bulk(n + k) for k, c in
                zip(a.support, a.coeffs[a.support])), np.zeros(n.size))
    assert np.array_equal(got, want)


def test_action_sums_start_from_plus_zero():
    # a loop over k adds every term to +0, so a column of -0.0 parts sums
    # to +0.0; one index (a single column) and several alike
    psi = cd.DualSequence.from_values([complex(-0.0, -0.0)] * 9,
                                      tail=cd.ZeroTail(9))
    for a in (cd.one(), cd.L1Element([1, 2]), cd.monomial(3, -1.0)):
        for n in (np.arange(5), np.array([2])):
            got = cd.act_on_dual(a, psi).bulk(n)
            want = np.zeros(n.size, dtype=complex)
            for k in a.support:
                want += a.coeffs[k] * psi.bulk(n + k)
            assert got.tobytes() == want.tobytes()
            assert not np.signbit(got.view(np.float64)).any()


def test_a_real_rule_is_read_without_a_complex_copy():
    # the tail read keeps float64 values real, so it holds less than for
    # the same values as complex128
    n = np.arange(4 * convolution._READ_BLOCK)
    values = 1.0 / (n + 1.0)
    peaks = []
    for table in (values, values.astype(complex)):
        seq = _on_table(table, cd.ClosedForm(cd.Decay(0)))
        tracemalloc.start()
        cd.validate_tail(seq, n.size - 1)
        peaks.append(tracemalloc.get_traced_memory()[1])
        tracemalloc.stop()
    assert peaks[0] < peaks[1]
