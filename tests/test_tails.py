"""Tail propagation, pinned as a table.

Each row is a tail declaration, a concrete sequence that meets it, and the
declarations derived from it: the tail of mu_n = n*phi(t^(n-1)) in
``Derivation.from_phi``, the mu and phi tails of ``Derivation.from_mu``,
and the tail of ``act_on_dual(f, psi)`` for f in (t, 1+2t^3, 0).  The
soundness tests then check every derived declaration against the values of
the derived sequence.
"""

import numpy as np
import pytest

import convderiv as cd

Z, CF, U = cd.ZeroTail, cd.ClosedForm, cd.UNDECLARED
UNBOUNDED = "unbounded"
DEPTH = 200

FS = (cd.L1Element([0, 1]), cd.L1Element([1, 0, 0, 2]), cd.zero())

# name: (tail, array rule meeting it, from_phi mu tail,
#        from_mu (mu tail, phi tail), act_on_dual tails for FS)
TABLE = {
    "zero0": (Z(0), lambda n: 0.0 * n,
              Z(1), (Z(0), Z(0)), (Z(0), Z(0), Z(0))),
    "zero1": (Z(1), lambda n: np.where(n < 1, 1.0, 0.0),
              Z(2), (Z(1), Z(0)), (Z(0), Z(1), Z(0))),
    "zero5": (Z(5), lambda n: np.where(n < 5, 1.0 / (n + 1), 0.0),
              Z(6), (Z(5), Z(4)), (Z(4), Z(5), Z(0))),
    "undeclared": (U, lambda n: np.where(n % 2, -1.0, 1.0) / (n + 1),
                   U, (U, U), (U, U, Z(0))),
    "closed": (CF(), lambda n: np.cos(n),
               CF(), (CF(), CF()), (CF(), CF(), Z(0))),
    "decay0": (CF(cd.Decay(0)), lambda n: 1.0 / (n + 1),
               CF(), (CF(cd.Decay(1)), CF(cd.Decay(0))), (CF(), CF(), Z(0))),
    "decay3": (CF(cd.Decay(3)),
               lambda n: np.where(n < 3, n, 3.0 / np.maximum(n - 2, 1)),
               CF(), (CF(cd.Decay(3)), CF(cd.Decay(2))), (CF(), CF(), Z(0))),
    "geometric05": (CF(cd.Decay(3, ratio=0.5)),
                    lambda n: np.where(n < 3, 9.0, 0.5 ** n),
                    CF(cd.Decay(4)),
                    (CF(cd.Decay(3, ratio=0.5)), CF(cd.Decay(2, ratio=0.5))),
                    (CF(), CF(), Z(0))),
    "geometric09": (CF(cd.Decay(3, ratio=0.9)),
                    lambda n: np.where(n < 3, 9.0, 0.9 ** n),
                    CF(cd.Decay(10)),
                    (CF(cd.Decay(3, ratio=0.9)), CF(cd.Decay(2, ratio=0.9))),
                    (CF(), CF(), Z(0))),
    "constant0": (CF(cd.Constant(0, 2)), lambda n: np.where(n < 2, 1.0, 0.0),
                  Z(3), (CF(cd.Constant(0, 2)), Z(1)), (Z(1), Z(2), Z(0))),
    "constant025": (CF(cd.Constant(0.25, 3)),
                    lambda n: np.where(n < 3, n, 0.25),
                    UNBOUNDED, (CF(cd.Constant(0.25, 3)), CF(cd.Decay(2))),
                    (CF(cd.Constant(0.25, 2)), CF(cd.Constant(0.75, 3)),
                     Z(0))),
    "floor": (CF(cd.Floor(0.5, 2)),
              lambda n: np.where(n < 2, 0.0, 1.0 + 1.0 / (n + 1)),
              UNBOUNDED, (CF(cd.Floor(0.5, 2)), CF()), (CF(), CF(), Z(0))),
}

ROWS = pytest.mark.parametrize("name", sorted(TABLE))


def _sequence(name):
    tail, rule = TABLE[name][:2]
    return cd.DualSequence(rule, tail=tail, vectorized=True)


def _from_phi_mu_tail(phi):
    try:
        return cd.Derivation.from_phi(phi, probe_depth=0).mu.tail
    except cd.UnboundedDerivationError:
        return UNBOUNDED


def _assert_sound(seq, first_index=0):
    """The declared tail holds on the values up to DEPTH."""
    tail = seq.tail
    if isinstance(tail, cd.ZeroTail):
        # bulk masks a ZeroTail, so probe the rule behind it
        idx = np.arange(max(tail.start, first_index), DEPTH + 1)
        assert not np.any(seq._rule(idx))
    else:
        cd.validate_tail(seq, DEPTH, first_index=first_index)


@ROWS
def test_from_phi_mu_tail(name):
    assert _from_phi_mu_tail(_sequence(name)) == TABLE[name][2]


@ROWS
def test_from_mu_tails(name):
    tail, rule = TABLE[name][:2]
    D = cd.Derivation.from_mu(rule, tail=tail)
    assert (D.mu.tail, D.phi.tail) == TABLE[name][3]


@ROWS
def test_act_on_dual_tails(name):
    psi = _sequence(name)
    assert tuple(cd.act_on_dual(f, psi).tail for f in FS) == TABLE[name][4]


@ROWS
def test_derived_tails_are_sound(name):
    tail, rule = TABLE[name][:2]
    psi = _sequence(name)
    _assert_sound(psi)
    if TABLE[name][2] != UNBOUNDED:
        _assert_sound(cd.Derivation.from_phi(psi, probe_depth=0).mu,
                      first_index=1)
    D = cd.Derivation.from_mu(rule, tail=tail)
    _assert_sound(D.mu, first_index=1)
    _assert_sound(D.phi)
    for f in FS:
        _assert_sound(cd.act_on_dual(f, psi))


def test_validate_tail_cites_first_decay_violation():
    bump = cd.DualSequence(lambda n: np.where(n == 7, 1.0, 1.0 / (n + 1)),
                           tail=CF(cd.Decay(2)), vectorized=True)
    with pytest.raises(cd.CertificateViolationError,
                       match=r"rises from 1\.428571e-01 to 1\.000000e\+00 "
                             r"at index 7$"):
        cd.validate_tail(bump, DEPTH)
    cd.validate_tail(bump, 6)
    steep = cd.DualSequence(lambda n: 0.5 ** n,
                            tail=CF(cd.Decay(3, ratio=0.4)), vectorized=True)
    with pytest.raises(cd.CertificateViolationError, match=r"at index 4$"):
        cd.validate_tail(steep, DEPTH)


def test_validate_tail_cites_first_constant_violation():
    seq = cd.DualSequence(lambda n: np.where((n == 9) | (n == 12), 2.0, 1.0),
                          tail=CF(cd.Constant(1.0, 4)), vectorized=True)
    with pytest.raises(cd.CertificateViolationError,
                       match=r"^declared constant 1\.0 from 4 but value at 9 "
                             r"is \(2\+0j\)$"):
        cd.validate_tail(seq, DEPTH)
    cd.validate_tail(seq, 8)


def test_validate_tail_cites_first_floor_violation():
    seq = cd.DualSequence(lambda n: 1.0 / (n + 1),
                          tail=CF(cd.Floor(0.2, 1)), vectorized=True)
    with pytest.raises(cd.CertificateViolationError,
                       match=r"^declared \|value\| >= 0\.2 from 1 but \|value\| "
                             r"at 5 is 1\.666667e-01$"):
        cd.validate_tail(seq, DEPTH)
    cd.validate_tail(seq, 4)
    with pytest.raises(cd.CertificateViolationError, match=r"at 7 is"):
        cd.validate_tail(seq, DEPTH, first_index=7)
