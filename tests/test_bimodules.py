"""Finite-dimensional algebras, bimodules, rank-one construction, transfer."""

import json
import math
import re
import warnings
from pathlib import Path

import numpy as np
import pytest

import convderiv as cd
from convderiv import bimodules, cli

GOLDEN = Path(__file__).parent / "golden"


def trunc_euler_oracle(order, coeffs):
    """Independent t d/dt in the quotient ring: multiply out, weight each
    coefficient by its degree, reduce mod t^order.  Used to pin expected
    values for the transfer tests.
    """
    coeffs = (list(coeffs) + [0] * order)[:order]
    return np.array([k * coeffs[k] for k in range(order)], dtype=complex)


def test_catalog_algebras_validate():
    # every catalog algebra passes the full check of the public constructor,
    # which finds the exact defect 0.0 that the catalog records
    for name in ["zero2", "nil1"] + [f"trunc{K}" for K in range(1, 41)]:
        A = cd.algebra_catalog(name)
        assert A.dim >= 1
        checked = cd.FiniteAlgebra(A.structure)
        assert checked.associativity_defect == 0.0
        assert A.associativity_defect == checked.associativity_defect
        assert np.array_equal(checked.structure, A.structure)
    with pytest.raises(KeyError):
        cd.algebra_catalog("nonsense")


def test_commutativity_is_enforced_exactly():
    c = np.zeros((2, 2, 2))
    c[0, 1, 0] = 1.0  # e0 e1 = e0 but e1 e0 = 0
    with pytest.raises(ValueError, match="commutative"):
        cd.FiniteAlgebra(c)


def test_associativity_is_enforced():
    c = np.zeros((2, 2, 2))
    # symmetric but non-associative: e1 e1 = e0, e0 e1 = e1 e0 = e1
    c[1, 1, 0] = 1.0
    c[0, 1, 1] = c[1, 0, 1] = 1.0
    with pytest.raises(ValueError, match="associativity"):
        cd.FiniteAlgebra(c)


def test_json_round_trip(tmp_path):
    A = cd.algebra_catalog("trunc3")
    payload = {"dim": 3, "c": [[[float(A.structure[i, j, k].real)
                                 for k in range(3)] for j in range(3)]
                               for i in range(3)]}
    path = tmp_path / "trunc3.json"
    path.write_text(json.dumps(payload))
    B = cd.algebra_from_file(str(path))
    assert np.array_equal(A.structure, B.structure)
    # [re, im] pairs are accepted too
    payload["c"][0][0][0] = [1.0, 0.0]
    C = cd.algebra_from_dict(payload)
    assert np.array_equal(A.structure, C.structure)


def test_square_span_examples():
    assert cd.square_span(cd.algebra_catalog("zero2")).shape == (0, 2)
    assert cd.square_span(cd.algebra_catalog("nil1")).shape == (0, 1)
    # a unital algebra is spanned by its products
    assert cd.square_span(cd.algebra_catalog("trunc3")).shape == (3, 3)


def test_self_bimodule_and_dual_symmetry():
    for name in ("zero2", "trunc3", "trunc4"):
        E = cd.algebra_catalog(name).self_bimodule()
        assert E.symmetric
        assert E.dual().symmetric


def test_dual_of_zero_actions_is_zero():
    A = cd.algebra_catalog("zero2")
    E = A.self_bimodule()  # all actions vanish in the zero-product algebra
    dual = E.dual()
    assert not E.left.any() and not dual.left.any() and not dual.right.any()


def test_dual_actions_are_transposed_multiplications():
    A = cd.algebra_catalog("trunc2")
    E = A.self_bimodule()
    dual = E.dual()
    for i in range(2):
        basis = np.eye(2, dtype=complex)[i]
        # matrix of x |-> e_i x: column j is e_i e_j
        mult = np.column_stack(
            [A.multiply(basis, np.eye(2, dtype=complex)[j])
             for j in range(2)])
        # dual left action of e_i as a matrix on functional coordinates
        dual_action = np.column_stack(
            [dual.act_left(basis, np.eye(2, dtype=complex)[x])
             for x in range(2)])
        assert np.array_equal(dual_action, mult.T)


def test_bimodule_axioms_are_enforced():
    A = cd.algebra_catalog("trunc2")
    bad_left = np.zeros((2, 1, 1), dtype=complex)
    bad_left[0, 0, 0] = 1.0
    bad_left[1, 0, 0] = 1.0  # t would act as 1, but t^2 = 0 must act as 0
    with pytest.raises(ValueError, match="axiom"):
        cd.FiniteBimodule(A, bad_left, bad_left)


def test_nonsymmetric_bimodule_is_detected():
    A = cd.algebra_catalog("trunc2")
    nilpotent = np.array([[0, 0], [1, 0]], dtype=complex)
    left = np.stack([np.eye(2, dtype=complex), nilpotent.T]).transpose(0, 2, 1)
    right = np.stack([np.eye(2, dtype=complex),
                      np.zeros((2, 2), dtype=complex)])
    E = cd.FiniteBimodule(A, left, right)
    assert not E.symmetric
    with pytest.raises(cd.NotSymmetricError):
        cd.dual_homomorphism(A, E, np.array([1.0, 0.0]))


# -- rank-one construction -----------------------------------------------------

def test_rank_one_on_zero_product_algebra():
    A = cd.algebra_catalog("zero2")
    anchor = np.array([1.0, 0.0], dtype=complex)
    lambda0, D = cd.rank_one_derivation(A, anchor)
    assert np.allclose(lambda0.matrix, [[1.0, 0.0]])
    assert D.rank == 1
    # derivation identity holds with residual exactly zero (integer data)
    dual = A.self_bimodule().dual()
    assert cd.derivation_defect(A, dual, D) == 0.0
    assert complex(anchor @ D.matrix @ anchor) == 1.0


def test_rank_one_on_one_dimensional_nil_algebra():
    A = cd.algebra_catalog("nil1")
    lambda0, D = cd.rank_one_derivation(A, [1.0])
    assert D.matrix.shape == (1, 1)
    assert complex(D.matrix[0, 0]) == 1.0
    dual = A.self_bimodule().dual()
    fit = cd.is_inner(A, dual, D)
    assert not fit.solved and fit.residual == 1.0


def test_rank_one_rejects_unital_algebras():
    A = cd.algebra_catalog("trunc3")
    for i in range(3):
        with pytest.raises(cd.NotOutsideSquareError):
            cd.rank_one_derivation(A, np.eye(3)[i])
    with pytest.raises(cd.NotOutsideSquareError, match="every basis vector"):
        cd.find_anchor(A)


def test_find_anchor_skips_the_product_span():
    c = np.zeros((2, 2, 2))
    c[1, 1, 0] = 1.0  # e1 e1 = e0, so e0 spans the products
    A = cd.FiniteAlgebra(c)
    anchor = cd.find_anchor(A)
    assert np.array_equal(anchor, [0.0, 1.0])
    _, D = cd.rank_one_derivation(A, anchor)
    assert complex(anchor @ D.matrix @ anchor) == pytest.approx(1.0)


def test_inner_derivations_into_symmetric_modules_vanish():
    A = cd.algebra_catalog("zero2")
    dual = A.self_bimodule().dual()
    rng = np.random.default_rng(17)
    for _ in range(10):
        e = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        for i in range(2):
            basis = np.eye(2, dtype=complex)[i]
            delta = dual.act_left(basis, e) - dual.act_right(e, basis)
            assert np.abs(delta).max() == 0.0


def test_is_inner_zero_map():
    A = cd.algebra_catalog("trunc3")
    E = A.self_bimodule()
    D = cd.FiniteMap(np.zeros((3, 3)))
    fit = cd.is_inner(A, E, D)
    assert fit.solved and fit.residual == 0.0


def test_is_inner_recovers_inner_derivation():
    # on a non-symmetric bimodule the commutator map a |-> a.e - e.a is a
    # genuine inner derivation; the least-squares fit must recover it
    A = cd.algebra_catalog("trunc2")
    nilpotent = np.array([[0, 0], [1, 0]], dtype=complex)
    left = np.stack([np.eye(2, dtype=complex), nilpotent.T]).transpose(0, 2, 1)
    right = np.stack([np.eye(2, dtype=complex),
                      np.zeros((2, 2), dtype=complex)])
    E = cd.FiniteBimodule(A, left, right)
    rng = np.random.default_rng(41)
    for _ in range(5):
        e = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        delta = np.column_stack(
            [E.act_left(np.eye(2, dtype=complex)[i], e)
             - E.act_right(e, np.eye(2, dtype=complex)[i]) for i in range(2)])
        fit = cd.is_inner(A, E, cd.FiniteMap(delta))
        assert fit.solved
        assert fit.residual <= 1e-12
        # the recovered element reproduces the same commutator map
        recovered = np.column_stack(
            [E.act_left(np.eye(2, dtype=complex)[i], fit.element)
             - E.act_right(fit.element, np.eye(2, dtype=complex)[i])
             for i in range(2)])
        assert np.abs(recovered - delta).max() <= 1e-12


def test_is_inner_residual_at_anchor_probe():
    A = cd.algebra_catalog("zero2")
    anchor = np.array([1.0, 0.0], dtype=complex)
    _, D = cd.rank_one_derivation(A, anchor)
    dual = A.self_bimodule().dual()
    fit = cd.is_inner(A, dual, D)
    assert not fit.solved
    probe = complex(anchor @ fit.defect.matrix @ anchor)
    assert probe == 1.0


# -- induced homomorphism and transfer ------------------------------------------

def test_dual_homomorphism_zero_functional():
    A = cd.algebra_catalog("trunc3")
    R = cd.dual_homomorphism(A, A.self_bimodule(), np.zeros(3))
    assert np.abs(R.matrix).max() == 0.0


def test_dual_homomorphism_scalar_case():
    A = cd.algebra_catalog("trunc1")  # the scalars
    R = cd.dual_homomorphism(A, A.self_bimodule(), np.array([1.0]))
    assert R.matrix.shape == (1, 1) and complex(R.matrix[0, 0]) == 1.0


def test_dual_homomorphism_coefficient_functional():
    A = cd.algebra_catalog("trunc3")
    E = A.self_bimodule()
    lam = np.array([0.0, 0.0, 1.0])  # reads the t^2 coefficient
    R = cd.dual_homomorphism(A, E, lam)
    expected = np.zeros((3, 3))
    for a in range(3):
        for x in range(3):
            expected[a, x] = 1.0 if a + x == 2 else 0.0
    assert np.allclose(R.matrix, expected, atol=1e-15)
    # homomorphism identity on all nine basis pairs
    for i in range(3):
        ei = np.eye(3, dtype=complex)[i]
        for x in range(3):
            fx = np.eye(3, dtype=complex)[x]
            lhs = R.matrix @ E.act_left(ei, fx)
            rhs = np.einsum("ak,k->a", A.structure[:, i, :], R.matrix @ fx)
            assert np.abs(lhs - rhs).max() < 1e-12


def test_dual_homomorphism_is_exact_at_every_scale():
    # the homomorphism identity follows from the module axioms, so a large
    # functional is no reason to refuse
    A = cd.algebra_from_file(str(GOLDEN / "rounded.json"))
    E = A.self_bimodule()
    for s in (1.0, 1e3, 1e6, 1e9):
        lam = s * np.ones(A.dim)
        R = cd.dual_homomorphism(A, E, lam)
        assert np.array_equal(R.matrix, np.einsum("axy,y->ax", E.left, lam))


_SCALES = (1e-3, 1.0, 1e3, 1e6)


def test_validation_tolerances_follow_the_scale_of_the_entries(tmp_path):
    # c times s is the same algebra in the basis s·e_i: its rounding
    # defect grows with s², and so must the tolerance
    c = json.loads((GOLDEN / "rounded.json").read_text())["c"]
    for s in (1e3, 1e6):
        path = tmp_path / f"rounded{s:.0e}.json"
        scaled = (s * np.array(c)).tolist()
        path.write_text(json.dumps({"dim": 2, "c": scaled}))
        A = cd.algebra_from_file(str(path))
        assert A.associativity_defect > 1e-12
        cd.FiniteBimodule(A, A.structure, A.structure)
    # products below the normal range round absolutely, not relatively
    A = cd.FiniteAlgebra(1e-160 * np.array(c))
    assert A.associativity_defect > 0.0
    cd.FiniteBimodule(A, A.structure, A.structure)


def test_validation_rejects_a_nan_defect():
    # products near 1e320 overflow, and inf - inf is NaN: no defect is
    # known, so the check fails wherever the NaN sits; an overflow on one
    # side only gives an inf defect, which no tolerance covers
    c = np.array(json.loads((GOLDEN / "rounded.json").read_text())["c"],
                 dtype=complex)
    late = np.zeros((2, 2, 2))
    late[0, 0, 0] = late[0, 1, 1] = late[1, 0, 1] = 1.0
    late[1, 1, 1] = 1e200  # block 0 is finite, block 1 NaN
    early = late[::-1, ::-1, ::-1]  # block 0 NaN, block 1 finite
    # (e_2 e_2) e_0 overflows, and e_2 (e_2 e_0) = 0
    one_sided = np.zeros((3, 3, 3))
    one_sided[0, 0, 0] = one_sided[1, 1, 1] = one_sided[2, 2, 1] = 1.0
    one_sided[1, 2, 0] = one_sided[2, 1, 0] = 1.0
    one_sided[0, 0, 2] = one_sided[2, 2, 0] = 1e200
    with np.errstate(over="ignore", invalid="ignore"):
        for bad, defect in ((1e160 * c, "nan"), (late, "nan"),
                            (early, "nan"), (one_sided, "inf")):
            with pytest.raises(ValueError,
                               match=f"associativity defect {defect}"):
                cd.FiniteAlgebra(bad)
        A = cd.FiniteAlgebra(c)
        for L, R in ((1e160 * c, 1e160 * c), (c, 1e160 * c)):
            with pytest.raises(ValueError, match="axiom defect (nan|inf)"):
                cd.FiniteBimodule(A, L, R)


def test_a_large_entry_widens_no_other_entry_tolerance():
    # e1^2 = e0 and e0 e1 = e1 give (e0 e0) e1 = 0 against e0 (e0 e1) = e1,
    # a defect of 1 whose products are 0 and 1; e2^2 = 10^6 e2 is
    # associative, and a tolerance scaled by max|c|^2 = 10^12 let it pass
    c = np.zeros((3, 3, 3))
    c[1, 1, 0] = c[0, 1, 1] = c[1, 0, 1] = 1.0
    c[2, 2, 2] = 1e6
    with pytest.raises(ValueError,
                       match="associativity defect 1.000e.00 exceeds 1.0e-12"):
        cd.FiniteAlgebra(c)
    assert cd.FiniteAlgebra(c, atol=np.inf).associativity_defect == 1.0
    # an idempotent e0 acting by [[1, 10^6], [0, 1e-7]]: the 10^6 entry is
    # consistent, and the 1e-7 one breaks e0.(e0.f) = (e0 e0).f by about
    # 1e-7 at entries whose products are no larger than 1e-7 or 10^6
    A = cd.FiniteAlgebra(np.ones((1, 1, 1)))
    act = np.array([[[1.0, 1e6], [0.0, 1e-7]]])
    with pytest.raises(ValueError, match="bimodule axiom defect"):
        cd.FiniteBimodule(A, act, act)
    cd.FiniteBimodule(A, act, act, atol=1.0)


def test_validation_rejects_a_relative_perturbation_at_every_scale():
    c = np.array(json.loads((GOLDEN / "rounded.json").read_text())["c"],
                 dtype=complex)
    for s in _SCALES:
        A = cd.FiniteAlgebra(s * c)
        for index in np.ndindex(c.shape):
            i, j, k = index
            bad = s * c
            bad[i, j, k] *= 1 + 1e-6
            bad[j, i, k] = bad[i, j, k]  # keep c commutative
            with pytest.raises(ValueError, match="associativity"):
                cd.FiniteAlgebra(bad)
            for L, R in ((bad, s * c), (s * c, bad)):
                with pytest.raises(ValueError, match="axiom"):
                    cd.FiniteBimodule(A, L, R)


def test_find_transfer_functional_trunc3():
    A = cd.algebra_catalog("trunc3")
    E = A.self_bimodule()
    D = cd.euler_derivation(A)
    a0, lam = cd.find_transfer_functional(A, E, D)
    # basis scan skips 1 (D(1) = 0) and finds t: t d/dt(t^2) = 2t^2 != 0
    assert np.allclose(a0, [0, 1, 0])
    image = D(A.multiply(a0, a0))
    assert np.abs(image).max() > 0
    # the example element 1 + t works as well: (1+t)^2 maps to 2t + 2t^2
    alt = np.array([1.0, 1.0, 0.0], dtype=complex)
    oracle = trunc_euler_oracle(3, [1, 2, 1])  # (1+t)^2 = 1 + 2t + t^2
    assert np.allclose(D(A.multiply(alt, alt)), oracle)
    assert np.allclose(oracle, [0, 2, 2])
    # normalisation lam(a0 . D(a0)) = 1
    w = E.act_left(a0, D(a0))
    assert complex(lam @ w) == pytest.approx(1.0, abs=1e-14)


def test_find_transfer_functional_errors():
    A = cd.algebra_catalog("trunc3")
    E = A.self_bimodule()
    with pytest.raises(cd.NoSuchElementError):
        cd.find_transfer_functional(A, E, cd.FiniteMap(np.zeros((3, 3))))
    scalars = cd.algebra_catalog("trunc1")
    with pytest.raises(cd.NoSuchElementError):
        cd.find_transfer_functional(scalars, scalars.self_bimodule(),
                                    cd.FiniteMap(np.zeros((1, 1))))
    dead = cd.algebra_catalog("zero2")
    with pytest.raises(ValueError, match="product span"):
        cd.find_transfer_functional(dead, dead.self_bimodule(),
                                    cd.FiniteMap(np.ones((2, 2))))


def test_transfer_zero_map_is_zero():
    A = cd.algebra_catalog("trunc3")
    E = A.self_bimodule()
    composed = cd.transfer(cd.FiniteMap(np.zeros((3, 3))),
                           np.array([0.0, 1.0, 0.0]), A, E)
    assert np.abs(composed.matrix).max() == 0.0


def test_transfer_trunc3():
    A = cd.algebra_catalog("trunc3")
    E = A.self_bimodule()
    D = cd.euler_derivation(A)
    a0, lam = cd.find_transfer_functional(A, E, D)
    composed = cd.transfer(D, lam, A, E)
    assert composed.rank <= D.rank == 2
    assert complex(a0 @ composed.matrix @ a0) == pytest.approx(1.0, abs=1e-12)
    dual = E.dual()
    assert cd.derivation_defect(A, dual, composed) < 1e-10


def test_transfer_rejects_a_map_that_is_not_a_derivation():
    # D(e0) = 0, D(e1) = e0 + e1, D(e2) = 2 e1 + 2 e2 on trunc3.  At a0 = e1
    # a0 . D(a0) = e1 + e2 = D(a0^2)/2, so one element cannot tell, but
    # D(e1 e2) = 0 while e1.D(e2) + D(e1).e2 = 3 e2
    A = cd.algebra_catalog("trunc3")
    E = A.self_bimodule()
    D = cd.FiniteMap(np.array([[0, 1, 0], [0, 1, 2], [0, 0, 2]],
                              dtype=complex))
    assert cd.derivation_defect(A, E, D) == 3.0
    a0, lam = cd.find_transfer_functional(A, E, D)
    assert np.array_equal(a0, [0, 1, 0])
    R = cd.dual_homomorphism(A, E, lam)
    composed = cd.FiniteMap(R.matrix @ D.matrix)
    assert cd.derivation_defect(A, E.dual(), composed) == pytest.approx(1.5)
    with pytest.raises(ValueError, match="not a derivation into the module: "
                                         "defect 3.000e"):
        cd.transfer(D, lam, A, E)


def test_transfer_functional_skips_an_element_it_cannot_normalise():
    # D(e1) = D(e2) = e2 on trunc3 is no derivation: D(e1^2) = e2, but
    # e1 . D(e1) = e1 e2 = 0, so no lam has lam(e1 . D(e1)) = 1
    A = cd.algebra_catalog("trunc3")
    E = A.self_bimodule()
    D = cd.FiniteMap(np.array([[0, 0, 0], [0, 0, 0], [0, 1, 1]],
                              dtype=complex))
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no division by zero
        a0, lam = cd.find_transfer_functional(A, E, D)
    assert np.array_equal(a0, [1, 1, 0])
    assert lam @ E.act_left(a0, D(a0)) == 1
    with pytest.raises(ValueError, match="not a derivation into the module"):
        cd.transfer(D, lam, A, E)


def eager_transfer_functional(A, E, D, seed=42):
    """Reference: the scan that built every candidate before trying the
    first.  Returns (a0, lam), or the number of candidates if none
    works."""
    d = A.dim
    eye = np.eye(d)  # the basis probes are real: float64
    candidates = [eye[i] for i in range(d)]
    candidates += [eye[i] + eye[j] for i in range(d) for j in range(i + 1, d)]
    rng = np.random.default_rng(seed)
    for _ in range(64):
        candidates.append(rng.standard_normal(d) + 1j * rng.standard_normal(d))
    for a0 in candidates:
        w = E.act_left(a0, D(a0))
        if float(np.abs(w).max(initial=0.0)) > 1e-9 / 2:
            return a0, w.conj() / float(np.vdot(w, w).real)
    return len(candidates)


def test_the_transfer_scan_makes_candidates_only_as_it_reaches_them(
        monkeypatch):
    A = cd.algebra_catalog("trunc24")
    E, D = A.self_bimodule(), cd.euler_derivation(A)
    a0, lam = eager_transfer_functional(A, E, D)

    def no_rng(*args, **kwargs):
        raise AssertionError("the random probes were built")

    with monkeypatch.context() as patched:
        patched.setattr(np.random, "default_rng", no_rng)
        got = cd.find_transfer_functional(A, E, D)
    assert got[0].tobytes() == a0.tobytes()
    assert got[1].tobytes() == lam.tobytes()
    # D = s t d/dt with w below 5e-10 at every basis vector and pair sum:
    # the seeded random probes decide, in the same stream
    for K, s, seed in ((3, 1e-10, 42), (4, 5e-11, 7)):
        A = cd.algebra_catalog(f"trunc{K}")
        E = A.self_bimodule()
        D = cd.FiniteMap(s * cd.euler_derivation(A).matrix)
        a0, lam = eager_transfer_functional(A, E, D, seed)
        got = cd.find_transfer_functional(A, E, D, seed)
        assert np.abs(a0.imag).max() > 0  # a random probe
        assert got[0].tobytes() == a0.tobytes()
        assert got[1].tobytes() == lam.tobytes()


@pytest.mark.parametrize("d", [1, 3, 24])
def test_the_transfer_scan_counts_every_probe_it_tried(d):
    A = cd.algebra_catalog(f"trunc{d}")
    zero = cd.FiniteMap(np.zeros((d, d)))
    probes = d + d * (d - 1) // 2 + 64
    assert eager_transfer_functional(A, A.self_bimodule(), zero) == probes
    with pytest.raises(cd.NoSuchElementError,
                       match=f"squares of all {probes} probed elements$"):
        cd.find_transfer_functional(A, A.self_bimodule(), zero)


def test_transfer_trunc4():
    A = cd.algebra_catalog("trunc4")
    E = A.self_bimodule()
    D = cd.euler_derivation(A)
    assert D.rank == 3
    a0, lam = cd.find_transfer_functional(A, E, D)
    composed = cd.transfer(D, lam, A, E)
    assert composed.rank <= 3
    assert abs(complex(a0 @ composed.matrix @ a0) - 1.0) <= 1e-12
    assert cd.derivation_defect(A, E.dual(), composed) < 1e-10


def test_euler_derivation_is_a_derivation():
    for K in range(1, 25):
        A = cd.truncated_polynomials(K)
        D = cd.euler_derivation(A)
        assert cd.derivation_defect(A, A.self_bimodule(), D) == 0.0
        assert D.rank == K - 1


@pytest.mark.parametrize("K", [2, 3, 6, 24])
def test_transfer_agrees_with_the_convolution_algebra(K):
    # the quotient map l1(Z+) -> C[t]/t^K is a homomorphism, so the
    # transferred map pulls back to a derivation into the dual of l1(Z+)
    # with mu_k = k lambda_k below K and 0 from K on
    A = cd.truncated_polynomials(K)
    E = A.self_bimodule()
    D = cd.euler_derivation(A)
    _, lam = cd.find_transfer_functional(A, E, D)
    composed = cd.transfer(D, lam, A, E)
    pulled = cd.Derivation.from_mu_values(np.arange(K) * lam)
    corner = np.array([[pulled.monomial_probe(j, l) for j in range(K)]
                       for l in range(K)])
    assert np.abs(corner - composed.matrix).max() == 0.0
    verdict = pulled.classify_compact()
    assert verdict.verdict == "compact"
    assert isinstance(verdict.tail, cd.ZeroTail)


def test_rank_monotone_under_composition():
    rng = np.random.default_rng(29)
    for name in ("trunc3", "trunc4"):
        A = cd.algebra_catalog(name)
        E = A.self_bimodule()
        d = A.dim
        for _ in range(100):
            rank = int(rng.integers(1, d + 1))
            D = (rng.standard_normal((d, rank))
                 @ rng.standard_normal((rank, d))).astype(complex)
            lam = rng.standard_normal(d) + 1j * rng.standard_normal(d)
            R = cd.dual_homomorphism(A, E, lam)
            assert cd.matrix_rank(R.matrix @ D) <= cd.matrix_rank(D)


def test_boundedness_transfers_with_norm_product():
    rng = np.random.default_rng(37)
    A = cd.algebra_catalog("trunc4")
    E = A.self_bimodule()
    for _ in range(50):
        D = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        lam = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        R = cd.dual_homomorphism(A, E, lam)
        lhs = cd.opnorm_l1_to_sup(R.matrix @ D)
        rhs = cd.opnorm_l1_to_sup(R.matrix) * cd.opnorm_l1_to_l1(D)
        assert lhs <= rhs + 1e-12


# -- validation at the trust boundary -----------------------------------------

def basis_change_matrix(d, power, seed):
    """Q (I+S)^power, with S the shift and Q a seeded signed permutation."""
    rng = np.random.default_rng(seed)
    step = np.eye(d) + np.eye(d, k=1)
    Q = np.zeros((d, d))
    Q[np.arange(d), rng.permutation(d)] = rng.choice([-1, 1], size=d)
    return Q @ np.linalg.matrix_power(step, power)


def change_basis(c, power, seed):
    """Structure constants in the basis given by the columns of Q (I+S)^power,
    with S the shift and Q a seeded signed permutation: integer data, entries
    growing with the power."""
    P = basis_change_matrix(c.shape[0], power, seed)
    P_inv = np.rint(np.linalg.inv(P))
    return np.rint(np.einsum("ai,bj,abm,km->ijk", P, P, c, P_inv,
                             optimize=True))


def ideal(K):
    """t.k[t]/t^K in the basis t, ..., t^(K-1): no unit, so rank1 applies."""
    d = K - 1
    c = np.zeros((d, d, d))
    for i in range(d):
        for j in range(d - i - 1):
            c[i, j, i + j + 1] = 1.0
    return c


def einsum_associativity_defect(c):
    """Reference: the d^4 einsum form of (e_i e_j) e_k - e_i (e_j e_k)."""
    return float(np.abs(np.einsum("ijm,mkl->ijkl", c, c)
                        - np.einsum("jkm,iml->ijkl", c, c)).max(initial=0.0))


def _axiom_sides(c, L, R):
    """The two sides of the three bimodule axioms as d^2 m^2 einsum
    tensors."""
    return (
        (np.einsum("jxy,iyz->ijxz", L, L), np.einsum("ijm,mxz->ijxz", c, L)),
        (np.einsum("ixy,jyz->ijxz", R, R), np.einsum("ijm,mxz->ijxz", c, R)),
        (np.einsum("jxy,iyz->ijxz", R, L), np.einsum("ixy,jyz->ijxz", L, R)),
    )


def einsum_axiom_ratio(c, L, R):
    """Reference: the largest ratio of an axiom defect entry to the sum of
    the moduli of the products that make it."""
    ratios = []
    for (lhs, rhs), (ml, mr) in zip(_axiom_sides(c, L, R),
                                    _axiom_sides(*map(np.abs, (c, L, R)))):
        scale = ml + mr  # a zero scale has a zero defect
        ratios.append(np.divide(np.abs(lhs - rhs), scale, where=scale > 0,
                                out=np.zeros(scale.shape)).max(initial=0.0))
    return float(max(ratios))


def random_commutative(rng, d):
    c = rng.standard_normal((d, d, d)) + 1j * rng.standard_normal((d, d, d))
    return c + c.transpose(1, 0, 2)


def assert_axiom_defect(A, L, R, ratio, rel=1e-12):
    """The module check passes just above ``ratio`` and fails just below;
    each entry's tolerance is ``atol`` times the sum of the moduli of its
    products."""
    cd.FiniteBimodule(A, L, R, atol=ratio * (1 + rel))
    with pytest.raises(ValueError, match="axiom"):
        cd.FiniteBimodule(A, L, R, atol=ratio * (1 - rel))


def test_derived_modules_pass_the_full_check():
    algebras = [cd.algebra_catalog(name) for name in
                ["zero2", "nil1"] + [f"trunc{K}" for K in range(2, 9)]]
    trunc6 = cd.algebra_catalog("trunc6").structure.real
    algebras.append(cd.FiniteAlgebra(change_basis(trunc6, 1, seed=3)))
    for A in algebras:
        E = A.self_bimodule()
        for derived in (E, E.dual()):
            checked = cd.FiniteBimodule(A, derived.left, derived.right)
            assert checked.symmetric == derived.symmetric
            assert np.array_equal(checked.left, derived.left)
            assert np.array_equal(checked.right, derived.right)


def test_blocked_validation_equals_einsum_reference():
    rng = np.random.default_rng(2024)
    for d in (1, 2, 3, 5, 8):
        c = random_commutative(rng, d)
        A = cd.FiniteAlgebra(c, atol=np.inf)
        assert A.associativity_defect == pytest.approx(
            einsum_associativity_defect(c), rel=1e-12, abs=0)
    A = cd.algebra_catalog("trunc4")
    for m in (1, 3, 6):
        L, R = (rng.standard_normal((4, m, m))
                + 1j * rng.standard_normal((4, m, m)) for _ in range(2))
        assert_axiom_defect(A, L, R, einsum_axiom_ratio(A.structure, L, R))


def test_blocked_validation_rejects_a_perturbed_entry_in_every_block():
    d, eps = 6, 1e-6
    c = cd.algebra_catalog(f"trunc{d}").structure.copy()
    for i in range(d):
        # e_i . 1 = (1 + eps) e_i breaks (1 . 1) e_i = 1 (1 . e_i)
        bad = c.copy()
        bad[i, 0, i] = bad[0, i, i] = 1 + eps
        with pytest.raises(ValueError, match="associativity"):
            cd.FiniteAlgebra(bad)
        assert cd.FiniteAlgebra(bad, atol=np.inf).associativity_defect == \
            pytest.approx(einsum_associativity_defect(bad), rel=1e-12)
    A = cd.FiniteAlgebra(c)
    for i in range(d):
        for side in (0, 1):
            L, R = c.copy(), c.copy()
            (L, R)[side][i, 0, i] = 1 + eps
            with pytest.raises(ValueError, match="axiom"):
                cd.FiniteBimodule(A, L, R)
            assert_axiom_defect(A, L, R, einsum_axiom_ratio(c, L, R),
                                rel=1e-9)


def test_validation_allocates_no_fourth_power_intermediate():
    import tracemalloc

    c = cd.algebra_catalog("trunc40").structure
    tracemalloc.start()
    try:
        A = cd.FiniteAlgebra(c)
        cd.FiniteBimodule(A, c, c)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert 40 ** 4 * 16 > 40e6  # one d^4 complex tensor would be 41 MB
    assert peak < 8e6


# -- every check runs in the input's dtype; integer data keeps its bits ------
# Real data is float64 and complex data complex128, as ``_numeric`` gives
# them.  Integers below sqrt(2^53 / n) give the same defect bits, or the
# same error, as a run with every array complex128.

def validation(build):
    """Bytes of the defect ``build`` returns, or the type and message of
    the error it raises."""
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            return np.float64(build()).tobytes()
    except ValueError as exc:
        return type(exc), str(exc)


def assert_paths_agree(monkeypatch, build, exact):
    """The outcome of ``build`` in the input's dtype, against a run with
    every array complex128: the same defect bytes or the same error when
    ``exact``, else a defect on both runs or an error of the same type."""
    default = validation(build)
    with monkeypatch.context() as patch:
        patch.setattr(bimodules, "_numeric",
                      lambda x: np.asarray(x, dtype=complex))
        complex_run = validation(build)
    if exact:
        assert complex_run == default
    elif isinstance(default, tuple):
        assert complex_run[0] is default[0]
    else:
        assert isinstance(complex_run, bytes)
    return default


def algebra_defect(c, atol=1e-12):
    return lambda: cd.FiniteAlgebra(c, atol=atol).associativity_defect


def module_defect(A, L, R, atol=1e-12):
    """The module check, then the defect it computed (``FiniteBimodule``
    keeps none)."""
    def build():
        cd.FiniteBimodule(A, L, R, atol=atol)
        return bimodules._checked_defect(
            bimodules._module_axioms,
            (A.structure, bimodules._numeric(L), bimodules._numeric(R)),
            atol, "bimodule axiom")
    return build


def exactly_integral(n, *arrays):
    """Whether n x^2 < 2^53 for every entry x, all integers, in exact
    arithmetic."""
    top = max(int(np.abs(a).max(initial=0)) for a in arrays)
    return top * top * n < 2 ** 53


def perturbed(c, seed):
    """c with one seeded entry and its mirror moved by 1: still integer
    and commutative, no longer associative."""
    rng = np.random.default_rng(seed)
    i, j, k = rng.integers(0, len(c), size=3)
    bad = c.copy()
    bad[i, j, k] += 1
    bad[j, i, k] = bad[i, j, k]
    return bad


@pytest.mark.parametrize("kind", ["trunc", "ideal"])
def test_integer_basis_changes_keep_their_bits(kind, monkeypatch, tmp_path):
    # the bimodule benchmark's files: Q (I+S)^p of truncK and of the ideal
    # t.k[t]/t^K, written as JSON integers and read back
    path = str(tmp_path / "c.json")
    for K in range(2, 31):
        for power in (1, 4):
            base = cd.algebra_catalog(f"trunc{K}").structure.real \
                if kind == "trunc" else ideal(K)
            c = change_basis(base, power, seed=K).astype(np.int64)
            with open(path, "w", encoding="utf-8") as handle:
                json.dump({"dim": len(c), "c": c.tolist()}, handle)
            assert exactly_integral(len(c), c)
            assert assert_paths_agree(
                monkeypatch,
                lambda: cd.algebra_from_file(path).associativity_defect,
                True) == bytes(8)
            assert np.array_equal(cd.algebra_from_file(path).structure, c)
            if len(c) < 2:
                continue
            bad = perturbed(c, K)
            for atol in (1e-12, np.inf):
                assert_paths_agree(monkeypatch, algebra_defect(bad, atol),
                                   True)


def test_non_associative_integer_algebras_keep_their_bits(monkeypatch):
    # e1^2 = e0 and e0 e1 = e1: (e0 e0) e1 = 0, e0 (e0 e1) = e1
    c = np.zeros((3, 3, 3))
    c[1, 1, 0] = c[0, 1, 1] = c[1, 0, 1] = 1.0
    c[2, 2, 2] = 7.0
    assert assert_paths_agree(monkeypatch, algebra_defect(c), True) == (
        ValueError, "associativity defect 1.000e+00 exceeds 1.0e-12")
    assert assert_paths_agree(monkeypatch, algebra_defect(c, np.inf),
                              True) == np.float64(1.0).tobytes()
    base = change_basis(cd.algebra_catalog("trunc9").structure.real, 6, 9)
    for seed in range(6):
        bad = perturbed(base, seed)
        for atol in (1e-12, 1e-6, np.inf):
            assert_paths_agree(monkeypatch, algebra_defect(bad, atol), True)


def _guarded(x, d=3):
    """An integer algebra of dimension d with x as its largest entry:
    e0^2 = x e0, e0 e1 = x e1, e1^2 = e0 + (x - 1) e1, e2^2 = e2."""
    c = np.zeros((d, d, d))
    c[0, 0, 0] = c[0, 1, 1] = c[1, 0, 1] = x
    c[1, 1, 0], c[1, 1, 1] = 1.0, x - 1.0
    c[2, 2, 2] = 1.0
    return c


def test_integers_at_the_exactness_bound_keep_their_bits(monkeypatch):
    # x = limit, the largest integer with n x^2 < 2^53: real and complex
    # data agree bit for bit, for the algebra (n = d) and for a module
    # whose dimension m > d sets n
    for d in (3, 4, 7):
        limit = math.isqrt((2 ** 53 - 1) // d)
        assert limit ** 2 * d < 2 ** 53 <= (limit + 1) ** 2 * d
        c = _guarded(float(limit), d)
        for atol in (1e-12, np.inf):
            assert_paths_agree(monkeypatch, algebra_defect(c, atol), True)
    A = cd.FiniteAlgebra(np.ones((1, 1, 1)))
    for m in (2, 5):
        limit = math.isqrt((2 ** 53 - 1) // m)
        # e0 acts by I + x E_{0, m-1}: off by 2x - x = x from (e0 e0)
        act = np.eye(m)[None]
        act[0, 0, m - 1] = limit
        for atol in (1e-12, np.inf):
            assert_paths_agree(monkeypatch, module_defect(A, act, act, atol),
                               True)


def test_signed_zero_imaginary_parts_and_pair_files_keep_their_bits(
        monkeypatch, tmp_path):
    # complex data give the bits of the same integers held as reals
    c = change_basis(cd.algebra_catalog("trunc7").structure.real, 4, 7)
    for structure in (c, perturbed(c, 1)):
        negative = structure.astype(complex)
        negative.imag = -0.0
        assert np.signbit(negative.imag).all()
        for atol in (1e-12, np.inf):
            assert assert_paths_agree(
                monkeypatch, algebra_defect(negative, atol), True) == \
                validation(algebra_defect(structure, atol))
        for im in (0, 0.0, -0.0):
            pairs = [[[[float(x), im] for x in row] for row in plane]
                     for plane in structure]
            path = tmp_path / "pairs.json"
            path.write_text(json.dumps({"dim": len(c), "c": pairs}))
            assert assert_paths_agree(
                monkeypatch,
                lambda: cd.algebra_from_file(str(path)).associativity_defect,
                True) == validation(algebra_defect(structure))
    # a non-zero imaginary part, however small, is complex on both runs
    tiny = c.astype(complex)
    tiny[0, 0, 0] += 5e-324j
    assert_paths_agree(monkeypatch, algebra_defect(tiny, np.inf), True)


def test_float_data_is_not_taken_as_exact(monkeypatch):
    # real data that are not integers run in float64 as they come, and
    # their defect may differ from the complex run's in its last bits
    rounded = np.array(json.loads((GOLDEN / "rounded.json").read_text())["c"])
    half = _guarded(3.0)
    half[0, 1, 1] = half[1, 0, 1] = 2.5
    for c in (rounded, 1e6 * rounded, half):
        for atol in (1e-12, np.inf):
            assert_paths_agree(monkeypatch, algebra_defect(c, atol), False)
    A = cd.FiniteAlgebra(_guarded(3.0))
    act = A.structure + 0.5
    assert_paths_agree(monkeypatch, module_defect(A, act, act, np.inf), False)


def test_huge_nan_and_inf_entries_are_not_taken_as_exact(monkeypatch):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # the checks raise, never warn
        for bad in (1e308, np.inf, -np.inf):
            c = _guarded(1.0)
            c[2, 2, 2] = bad
            outcome = assert_paths_agree(monkeypatch, algebra_defect(c),
                                         False)
            assert outcome[0] is ValueError
            assert outcome[1].startswith("associativity defect nan")
        # NaN fails the commutativity check first, so no algebra has one
        A = cd.FiniteAlgebra(_guarded(1.0))
        for bad in (1e308, np.nan, np.inf):
            act = A.structure.copy()
            act[2, 2, 2] = bad
            outcome = assert_paths_agree(monkeypatch,
                                         module_defect(A, act, act), False)
            assert outcome[0] is ValueError
            assert re.match("bimodule axiom defect (nan|inf) ", outcome[1])


def test_integer_bimodules_keep_their_bits(monkeypatch):
    # k[t]/t^m as a module over k[t]/t^K, m <= K, in the basis Q (I+S)^p of
    # the algebra: e'_i acts by sum_a P[a, i] L[a], integer actions
    for K, m, power in ((6, 6, 1), (6, 3, 4), (9, 4, 2), (12, 12, 4)):
        A = cd.FiniteAlgebra(change_basis(
            cd.algebra_catalog(f"trunc{K}").structure.real, power, K))
        P = basis_change_matrix(K, power, K)
        act = np.zeros((K, m, m))
        for a in range(K):
            for x in range(m - a):
                act[a, x, x + a] = 1.0
        L = np.einsum("ai,axy->ixy", P, act)
        assert exactly_integral(max(K, m), A.structure.real, L)
        assert assert_paths_agree(monkeypatch, module_defect(A, L, L),
                                  True) == bytes(8)
        assert cd.FiniteBimodule(A, L, L).symmetric
        bad = L.copy()
        bad[1, 0, m - 1] += 1
        for atol in (1e-12, np.inf):
            for pair in ((bad, L), (L, bad), (bad, bad)):
                assert_paths_agree(monkeypatch,
                                   module_defect(A, *pair, atol=atol), True)


# -- the dtype follows the input: float64 if real, complex128 if complex -----

def write_algebra(path, c, pairs=False):
    """c written as JSON plain numbers, or as [re, im] pairs with im 0."""
    entries = [[[[x, 0] if pairs else x for x in row] for row in plane]
               for plane in np.asarray(c).real.tolist()]
    path.write_text(json.dumps({"dim": len(c), "c": entries}))
    return cd.algebra_from_file(str(path))


def changed_euler(K, power, seed):
    """t d/dt on trunc K in the basis of ``change_basis``: P^-1 diag(k) P,
    integer as P is unimodular."""
    P = basis_change_matrix(K, power, seed)
    return np.rint(np.linalg.inv(P) @ np.diag(np.arange(K)) @ P)


def derivation_outcome(A, euler=None):
    """(lambda0, D) of the rank-one construction when ``euler`` is None,
    else (a0, lam, composed, D) of the transfer of D = ``euler``; or the
    error's type and message."""
    try:
        if euler is None:
            return cd.rank_one_derivation(A, cd.find_anchor(A))
        E, D = A.self_bimodule(), cd.FiniteMap(euler)
        a0, lam = cd.find_transfer_functional(A, E, D)
        return a0, lam, cd.transfer(D, lam, A, E), D
    except (ValueError, RuntimeError) as exc:
        return type(exc), str(exc)


def test_real_input_stays_float64_and_complex_input_stays_complex(
        tmp_path):
    K = 8
    trunc = cd.algebra_catalog(f"trunc{K}").structure
    on_file = change_basis(trunc, 4, K).astype(np.int64)
    cases = [
        (cd.algebra_catalog(f"trunc{K}"), np.diag(np.arange(K)), float),
        (write_algebra(tmp_path / "int.json", on_file),
         changed_euler(K, 4, K), float),
        (write_algebra(tmp_path / "ideal.json", change_basis(ideal(K), 1, K)),
         None, float),
        (cd.algebra_from_file(str(GOLDEN / "rounded.json")), False, float),
        (cd.algebra_from_file(str(GOLDEN / "nilsquare.json")), None, complex),
        (write_algebra(tmp_path / "pairs.json", trunc, pairs=True),
         np.diag(np.arange(K)), complex),
    ]
    plain = json.loads((tmp_path / "int.json").read_text())["c"]
    assert {type(x) for plane in plain for row in plane for x in row} == {int}
    for A, euler, want in cases:
        assert A.structure.dtype == want
        assert cd.square_span(A).dtype == want
        E = A.self_bimodule()
        for module in (E, E.dual()):
            assert module.left.dtype == module.right.dtype == want
            x = np.eye(A.dim)[0]
            assert module.act_left(x, x).dtype == want
            assert module.act_right(x, x).dtype == want
        assert A.multiply(np.eye(A.dim)[0], np.eye(A.dim)[-1]).dtype == want
        if euler is False:  # rounded.json is unital: no anchor, no t d/dt
            continue
        outcome = derivation_outcome(A, euler)
        if euler is None:
            lambda0, D = outcome
            assert lambda0.matrix.dtype == D.matrix.dtype == want
        else:
            a0, lam, composed, D = outcome  # a0: a real basis probe
            assert lam.dtype == composed.matrix.dtype == want
            assert composed.homomorphism.matrix.dtype == want
    # a complex map into a real algebra's module is complex
    A = cd.algebra_catalog("trunc3")
    assert cd.FiniteMap(1j * np.eye(3)).matrix.dtype == complex
    assert cd.dual_homomorphism(A, A.self_bimodule(),
                                [1j, 0, 0]).matrix.dtype == complex


def test_algebras_and_modules_keep_their_own_copies():
    # the caller's arrays stay writable, and what the checks passed stays
    c = cd.algebra_catalog("trunc3").structure
    for data in (c.copy(), c.astype(complex)):
        A = cd.FiniteAlgebra(data)
        E = cd.FiniteBimodule(A, data, data)
        data[0, 0, 0] = 7.0
        assert A.structure[0, 0, 0] == E.left[0, 0, 0] == 1.0
        assert E.right[0, 0, 0] == 1.0


def test_every_report_writes_anchor_functional_and_matrix_as_pairs(
        tmp_path):
    ideal_file = tmp_path / "ideal.json"
    write_algebra(ideal_file, change_basis(ideal(8), 1, 8))
    for argv in (["rank1", "--algebra", f"@{ideal_file}"],
                 ["rank1", "--algebra", f"@{GOLDEN / 'nilsquare.json'}"],
                 ["rank1", "--algebra", "zero2"],
                 ["transfer", "--algebra", "trunc8"],
                 ["transfer", "--algebra", "trunc6", "--seed", "7"]):
        out = tmp_path / "report.json"
        assert cli.main(["bimodule", *argv, "--out", str(out)]) == 0
        result = json.loads(out.read_text())["result"]
        for key, ndim in (("anchor", 1), ("functional", 1), ("matrix", 2)):
            pairs = np.array(result[key])
            assert pairs.dtype == float and pairs.ndim == ndim + 1, key
            assert pairs.shape[-1] == 2, key


def assert_close(real, cplx, rel=1e-12):
    real, cplx = np.asarray(real), np.asarray(cplx)
    assert real.shape == cplx.shape
    assert np.abs(real - cplx).max(initial=0.0) <= \
        rel * np.abs(real).max(initial=0.0)


def agreement_cases():
    """(name, c, t d/dt or None): seeded integer basis changes of trunc K
    and of the ideal t.k[t]/t^K for K <= 12, then the catalog to K = 30."""
    for K in range(2, 13):
        for power in (1, 4):
            trunc = cd.algebra_catalog(f"trunc{K}").structure
            yield (f"trunc{K}-p{power}", change_basis(trunc, power, K),
                   changed_euler(K, power, K))
            if K > 2:
                yield (f"ideal{K}-p{power}", change_basis(ideal(K), power, K),
                       None)
    for name in ["zero2", "nil1"] + [f"trunc{K}" for K in range(1, 31)]:
        A = cd.algebra_catalog(name)
        yield (name, A.structure,
               None if name[0] != "t" else np.diag(np.arange(A.dim)))


def test_real_and_complex_input_agree(tmp_path):
    for name, c, euler in agreement_cases():
        real = write_algebra(tmp_path / "real.json", c)
        cplx = write_algebra(tmp_path / "pairs.json", c, pairs=True)
        assert real.structure.dtype == float, name
        assert cplx.structure.dtype == complex, name
        assert real.dim == cplx.dim
        assert np.float64(real.associativity_defect).tobytes() == \
            np.float64(cplx.associativity_defect).tobytes(), name
        assert cd.square_span(real).shape == cd.square_span(cplx).shape
        assert cd.matrix_rank(real.structure.reshape(real.dim, -1)) == \
            cd.matrix_rank(cplx.structure.reshape(real.dim, -1))
        for use in ([None] if euler is None else [None, euler]):
            got, want = (derivation_outcome(A, use) for A in (real, cplx))
            if isinstance(want[0], type):  # the same error on both
                assert got == want, name
                continue
            assert [M.rank for M in got if isinstance(M, cd.FiniteMap)] == \
                [M.rank for M in want if isinstance(M, cd.FiniteMap)], name
            for g, w in zip(got, want):
                if isinstance(g, cd.FiniteMap):
                    g, w = g.matrix, w.matrix
                assert_close(g, w)
            if use is not None:  # defects are rounding, below tolerance
                for key in ("scale", "tolerance"):
                    assert math.isclose(getattr(got[2], key),
                                        getattr(want[2], key),
                                        rel_tol=1e-12, abs_tol=1e-300), key


# -- derivation identity tolerance --------------------------------------------

def test_derivation_identity_tolerance_is_relative():
    A = cd.FiniteAlgebra(change_basis(ideal(12), 4, seed=5))
    assert np.abs(A.structure).max() > 1e3  # large entries
    dual = A.self_bimodule().dual()
    _, D = cd.rank_one_derivation(A, cd.find_anchor(A))

    def holds(M):
        D = cd.FiniteMap(M)
        return cd.derivation_defect(A, dual, D) <= 1e-12 * max(
            1.0, cd.derivation_scale(A, dual, D))

    assert holds(D.matrix)
    for a, b in ((0, 0), (3, 7), (10, 2)):
        off = D.matrix.copy()
        off[a, b] += 1e-9 * np.abs(D.matrix).max()
        assert not holds(off)


def test_derivation_scale_examples():
    A = cd.algebra_catalog("zero2")
    dual = A.self_bimodule().dual()
    _, D = cd.rank_one_derivation(A, [1.0, 0.0])
    assert cd.derivation_scale(A, dual, D) == 0.0  # products vanish
    A = cd.algebra_catalog("trunc3")
    E = A.self_bimodule()
    M = cd.euler_derivation(A).matrix
    # |M| |c| + |M| |left| + |M| |right| at [i, j, 2], i + j = 2: 2 + j + i
    assert cd.derivation_scale(A, E, cd.FiniteMap(M)) == 4.0


# -- algebra files ------------------------------------------------------------

def test_algebra_file_shape_is_checked():
    with pytest.raises(ValueError, match=r"\(3, 3, 3\)"):
        cd.algebra_from_dict({"dim": 3, "c": np.zeros((2, 2, 2)).tolist()})
    with pytest.raises(ValueError, match=r"\(2, 2, 2\)"):
        cd.algebra_from_dict({"dim": 2, "c": np.zeros((3, 3, 3)).tolist()})
    with pytest.raises(ValueError, match=r"\(2, 2, 2\)"):
        cd.algebra_from_dict({"dim": 2, "c": [[[0, 0], [0, 0]], [0, 0]]})
    with pytest.raises(ValueError, match="pairs"):
        cd.algebra_from_dict({"dim": 1, "c": [[[[1, 2, 3]]]]})
    with pytest.raises(ValueError, match="bad structure constant"):
        cd.algebra_from_dict({"dim": 1, "c": [[[None]]]})
    mixed = cd.algebra_from_dict({"dim": 1, "c": [[[[0.5, -2]]]]})
    assert mixed.structure[0, 0, 0] == 0.5 - 2j


def test_derivation_terms_match_the_einsum_forms():
    rng = np.random.default_rng(11)

    def cplx(*shape):
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    def einsum_terms(M, c, L, R):
        return (np.einsum("yk,ijk->ijy", M, c), np.einsum("xj,ixy->ijy", M, L),
                np.einsum("xi,jxy->ijy", M, R))

    for d, m in ((1, 1), (2, 3), (5, 5), (7, 4)):
        M, c, L, R = cplx(m, d), cplx(d, d, d), cplx(d, m, m), cplx(d, m, m)
        got = cd.bimodules._derivation_terms(M, c, L, R)
        want = einsum_terms(M, c, L, R)
        scale = einsum_terms(*map(np.abs, (M, c, L, R)))
        for g, w, s in zip(got, want, scale):
            assert g.shape == w.shape == (d, d, m)
            assert (np.abs(g - w) <= 1e-12 * s).all()


# -- algebra files: every parse agrees with the entry-by-entry reference ------

def per_entry_algebra(payload):
    """Reference: parse each entry of "c" on its own, then validate.  The
    structure is float64 when every entry is a plain number and complex128
    when any is an [re, im] pair."""
    d = int(payload["dim"])

    def sized(items):
        if not isinstance(items, (list, tuple)) or len(items) != d:
            raise ValueError(f'"c" must have shape (dim, dim, dim) = '
                             f'{(d, d, d)}')
        return items

    def entry(value):
        # complex() and float() would read True as 1 and parse "1"
        words = (bool, np.bool_, str)
        try:
            if isinstance(value, (list, tuple)):
                if len(value) != 2:
                    raise ValueError("complex entries are [re, im] pairs")
                if any(isinstance(part, words) for part in value):
                    raise TypeError
                return complex(float(value[0]), float(value[1]))
            if isinstance(value, words):
                raise TypeError
            return complex(value).real
        except TypeError:
            raise ValueError(f"bad structure constant {value!r}") from None

    entries = [[[entry(v) for v in sized(row)] for row in sized(plane)]
               for plane in sized(payload["c"])]
    pairs = any(isinstance(v, complex) for plane in entries for row in plane
                for v in row)
    c = np.array(entries, dtype=complex if pairs else float).reshape(d, d, d)
    return cd.FiniteAlgebra(c)


def parse_outcome(load, payload):
    """The structure's bits, or the exception's type and message."""
    try:
        return load(payload).structure.view(np.uint64)
    except Exception as exc:  # compared, not swallowed
        return type(exc), str(exc)


def assert_parses_like_the_reference(payload):
    got = parse_outcome(cd.algebra_from_dict, payload)
    want = parse_outcome(per_entry_algebra, payload)
    if isinstance(want, tuple):
        assert got == want, payload
    else:
        assert isinstance(got, np.ndarray) and np.array_equal(got, want), \
            payload


def _cube(values, d):
    values = iter(values)
    return [[[next(values) for _ in range(d)] for _ in range(d)]
            for _ in range(d)]


_HALF = 2 ** 63 + 2 ** 10  # halfway between two doubles
_ENTRY_CLASSES = {
    "ints": [[[3]]], "big ints": [[[2 ** 53 + 1]]],
    "int64 edges": _cube([2 ** 63 - 1, -(2 ** 63), 2 ** 62 + 3, 0,
                          2 ** 53 + 1, -(2 ** 53) - 3, 7, 2 ** 63 - 1], 2),
    "int64 trunc2": [[[1, 0], [0, 1]], [[0, 1], [0, 0]]],
    "floats": [[[0.1]]], "negative zero": [[[-0.0]]],
    "nan": [[[float("nan")]]], "inf": [[[float("inf")]]],
    "-inf": [[[float("-inf")]]], "overflowing": [[[1e200]]],
    "subnormal": [[[5e-324]]],
    "floats and ints": _cube([2 ** 53 + 1, 0.5, -0.0, 3, 2 ** 60 + 129,
                              1e-3, 0, 1], 2),
    "floats and int64 edges": _cube([2 ** 63 - 1, 0.5, -(2 ** 63), 1.5,
                                     2 ** 62 + 1, 2.0, 0, 1], 2),
    "pair": [[[[1, 2]]]], "pairs": _cube([[1, 0], [0, 0.5], [0, 0], [1, 1],
                                          [0, 0], [1, 1], [0, 0], [2, 0]], 2),
    "mixed": json.loads((GOLDEN / "nilsquare.json").read_text())["c"],
    "mixed pair first": _cube([[1, 2], 0, 0, 1, 0, 1, 0, 0], 2),
    "long pair": [[[[1, 2, 3]]]], "short pair": [[[[1]]]],
    "bool": [[[True]]], "bools": _cube([True, False] * 4, 2),
    "bools and ints": _cube([True, 2, 0, 1, 0, 1, False, 0], 2),
    "bools and floats": _cube([True, 0.5, 0, 1.0, 0, 1, False, 0], 2),
    "string": [[["1+2j"]]], "bad string": [[["abc"]]],
    "strings and ints": _cube(["1", 0, 0, 1, 0, 1, 0, 0], 2),
    "none": [[[None]]], "none and floats": _cube([None, 0.5] * 4, 2),
    "2^63": [[[2 ** 63]]], "2^64": [[[2 ** 64]]], "10^400": [[[10 ** 400]]],
    "below int64": [[[-(2 ** 63) - 1]]],
    "2^63 and negative": _cube([2 ** 63, -1, 0, 1, 0, 1, 0, 0], 2),
    "halfway and negative": _cube([_HALF + 1, -1, 0, 1, 0, 1, _HALF, 0], 2),
    "halfway and float": _cube([_HALF + 1, 0.5, _HALF - 1, 1, 0, 1, _HALF,
                                0], 2),
    "10^400 and float": _cube([10 ** 400, 0.5, 0, 1, 0, 1, 0, 0], 2),
    "2^64 and floats": _cube([2 ** 64 + 2 ** 12 + 1, 0.5] * 4, 2),
}


@pytest.mark.parametrize("name", sorted(_ENTRY_CLASSES))
def test_algebra_files_parse_like_the_entry_by_entry_reference(name):
    c = _ENTRY_CLASSES[name]
    dim = len(c)
    assert_parses_like_the_reference({"dim": dim, "c": c})
    assert_parses_like_the_reference({"dim": dim + 1, "c": c})


@pytest.mark.parametrize("c", [
    [[[0, 0], [0]], [[0, 0], [0, 0]]], [[[0, 0], [0, 0]], [0, 0]],
    [[[0, 0], [0, 0]]], [[0, 0], [0, 0]], [[[0, 0, 0], [0, 0, 0]]] * 2,
    [[[0, [0, 1]], [0, 0]], [[0, 0], [0, 0]]], [[[[0, 1], [1, 0]]] * 2] * 2,
    [[[0, 0], [0, 0]], [[0, 0], [0, 0]], [[0, 0], [0, 0]]], [], 5, "ab",
    {"a": 1}, [[[0.5, 0], [0, 1]], [[0, 1], 7]], [[["ab", "cd"]] * 2] * 2,
])
def test_ragged_and_misshapen_algebra_files_fail_like_the_reference(c):
    for dim in (0, 1, 2, 3):
        assert_parses_like_the_reference({"dim": dim, "c": c})


def test_random_algebra_files_parse_like_the_reference():
    rng = np.random.default_rng(17)
    draws = [
        lambda: int(rng.integers(-9, 10)),
        lambda: int(rng.integers(-2 ** 62, 2 ** 62)) * 2 + 1,
        lambda: 2 ** 53 + int(rng.integers(1, 2 ** 10)),
        lambda: 2 ** 63 + int(rng.integers(-3, 3)) * 2 ** 10 + 1,
        lambda: float(rng.standard_normal()),
        lambda: float(rng.choice([-0.0, np.nan, np.inf, 1e300])),
        lambda: bool(rng.integers(2)),
        lambda: [float(rng.standard_normal()), int(rng.integers(3))],
        lambda: str(rng.integers(9)),
        lambda: None,
    ]
    for _ in range(400):
        d = int(rng.integers(1, 4))
        # mostly one or two entry classes, so the whole-array path is hit
        kinds = rng.choice(len(draws), size=int(rng.integers(1, 3)),
                           p=[.25, .15, .1, .05, .25, .05, .05, .04, .03, .03])
        c = _cube((draws[int(rng.choice(kinds))]() for _ in range(d ** 3)), d)
        assert_parses_like_the_reference({"dim": d, "c": c})
