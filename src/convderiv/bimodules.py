"""Finite-dimensional commutative algebras, bimodules, and derivation transfer.

Algebras are given by structure constants c[i, j, k] (the e_k coefficient of
e_i e_j), modules by action tensors over (algebra basis x module basis x
module basis).  Coordinates carry the l1 norm, duals the sup norm.  The
point of the module is to instantiate, at finite dimension, the passage
from a non-zero derivation into a symmetric bimodule to a non-zero
derivation into the dual of the algebra: compose with the module
homomorphism x |-> lambda((.) x) induced by a functional that pairs
non-degenerately with a chosen a0 . D(a0).  Rank never increases under the
composition, and boundedness transfers with the product of operator norms.
(Weak compactness collapses onto norm compactness in finite dimension, so
only the bounded-transfer inequality carries content here.)
"""

from __future__ import annotations

import json
import numbers
import re
from dataclasses import dataclass
from itertools import chain
from typing import Optional, Tuple

import numpy as np


class NotOutsideSquareError(ValueError):
    """The chosen element lies in the span of products; no rank-one
    non-inner derivation can be anchored at it."""


class NotSymmetricError(ValueError):
    """The construction requires a symmetric bimodule."""


class NoSuchElementError(RuntimeError):
    """No probed element had a non-vanishing image of its square."""


def _numeric(x) -> np.ndarray:
    """A new array of ``x``: complex128 if it is complex, else float64."""
    x = np.asarray(x)
    return x.astype(complex if x.dtype.kind == "c" else float)


@dataclass
class FiniteMap:
    """Linear map between coordinate spaces; column s is the image of e_s."""

    matrix: np.ndarray

    def __post_init__(self):
        self.matrix = _numeric(self.matrix)

    @property
    def rank(self) -> int:
        return matrix_rank(self.matrix)

    def __call__(self, vec: np.ndarray) -> np.ndarray:
        return self.matrix @ np.asarray(vec)


_TINY = float(np.finfo(float).tiny)  # the smallest normal double


def _checked_defect(sides, arrays, atol: float, what: str) -> float:
    """The largest |lhs - rhs| over the blocks ``sides(*arrays, i)``, i <
    len(arrays[0]): each yields (lhs, rhs) pairs of the same shape.

    Every entry of lhs and rhs is a sum of products of entries of
    ``arrays``, so ``sides`` of their moduli gives the sums of the moduli
    of those products, S, and the entry's rounding is at most gamma_n S
    for n terms (Higham §3.1).  The check raises ValueError unless each
    |lhs - rhs| is at most atol S, with S floored at the smallest normal
    double (below it, rounding is absolute); it cites the entry furthest
    above its tolerance in the first block that has one.  A block whose
    gaps are all zero passes without its S.  Products that overflow give
    NaN or inf gaps, with no warning on the way, and fail: a NaN compares
    false, and an inf gap, which needs an inf S, gives an excess of inf -
    inf = NaN.

    The check runs in the dtype ``_numeric`` gave the data: float64 for
    real data, complex128 for complex data.  A plain file and a pair file
    of the same integers, each of modulus below sqrt(2^53 / n), agree bit
    for bit: each entry of lhs and rhs sums at most n products (n the
    largest dimension: every matmul in ``sides`` contracts over d or m),
    each an integer below 2^53 / n in modulus, so every product and
    partial sum is an integer below 2^53, exact in any order and with or
    without FMA (Higham §2.1).  Complex arithmetic forms the same real
    parts, while the imaginary parts are sums of ±0; hypot(x, ±0) = |x|,
    so the gaps agree, and the moduli of the inputs, hence S and every
    later step, are the same float64 arrays.  Real data that are not
    integers may move the defect's last bits against complex arithmetic
    (dgemm and zgemm may sum inexact products in other orders), under the
    same tolerance, which bounds any order's rounding.
    """
    defect, mags = 0.0, None
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(len(arrays[0])):
            gaps = [np.abs(lhs - rhs) for lhs, rhs in sides(*arrays, i)]
            tops = [g.max(initial=0.0) for g in gaps]
            defect = max(defect, *tops)  # no NaN: that block raises below
            if not any(tops):  # a NaN is true
                continue
            mags = mags or [np.abs(x) for x in arrays]
            for gap, (lhs, rhs) in zip(gaps, sides(*mags, i)):
                tol = atol * np.maximum(lhs + rhs, _TINY)
                over = gap - tol
                at = np.argmax(over)  # the first NaN, if there is one
                if not over.flat[at] <= 0:
                    raise ValueError(f"{what} defect {gap.flat[at]:.3e} "
                                     f"exceeds {tol.flat[at]:.1e}")
    return float(defect)


def _associativity(c: np.ndarray, i: int):
    """Block i of (e_i e_j) e_k against e_i (e_j e_k), entries [j, (k, l)]."""
    d = len(c)
    yield (c[i] @ c.reshape(d, d * d),
           (c.reshape(d * d, d) @ c[i]).reshape(d, d * d))


def _module_axioms(c: np.ndarray, L: np.ndarray, R: np.ndarray, i: int):
    """Block i of e_i.(e_j.f) = (e_i e_j).f, (f.e_i).e_j = f.(e_i e_j) and
    e_i.(f.e_j) = (e_i.f).e_j, entries [j, x, z] or [x, j, z]; one pair at
    a time, so one block of one axiom is held at once."""
    d, m = L.shape[:2]
    R_cols = R.transpose(1, 0, 2).reshape(m, d * m)  # [x, (j, z)]
    yield ((L.reshape(d * m, m) @ L[i]).reshape(d, m, m),
           (c[i] @ L.reshape(d, m * m)).reshape(d, m, m))
    yield ((R[i] @ R_cols).reshape(m, d, m),
           (c[i] @ R.reshape(d, m * m)).reshape(d, m, m).transpose(1, 0, 2))
    yield ((R.reshape(d * m, m) @ L[i]).reshape(d, m, m).transpose(1, 0, 2),
           (L[i] @ R_cols).reshape(m, d, m))


class FiniteAlgebra:
    """Commutative associative algebra from structure constants.

    Commutativity must hold exactly; associativity is checked across all
    basis triples, and the largest defect found is kept as
    ``associativity_defect``.  Defect entry (i, j, k, m) is a difference of
    two sums of d products of entries of c, so it may reach ``atol`` times
    sum_l (|c_ijl| |c_lkm| + |c_jkl| |c_ilm|), the scale of its own
    rounding (``_checked_defect``); scaling c (a change of basis e_i ->
    s·e_i) moves defect and tolerance alike, and a large entry elsewhere
    widens no other entry's tolerance.  A NaN or inf defect, from a product
    that overflowed, fails the check.  The catalog's algebras are built
    exactly by ``_exact``.
    """

    def __init__(self, structure, atol: float = 1e-12):
        c = _numeric(structure)
        if c.ndim != 3 or len(set(c.shape)) != 1:
            raise ValueError("structure constants must form a (d, d, d) array")
        if not np.array_equal(c, c.transpose(1, 0, 2)):
            raise ValueError("structure constants are not commutative")
        defect = _checked_defect(_associativity, (c,), atol, "associativity")
        self._set(c, defect)

    @classmethod
    def _exact(cls, structure: np.ndarray) -> "FiniteAlgebra":
        """An algebra whose constants are 0 or 1 with e_i e_j = e_{i+j} or 0.

        No check runs here, and none is needed for the two callers:

        - ``truncated_polynomials``: c[i, j, k] = [i + j = k < K] depends on
          i + j only, so c is symmetric in i and j.  Entry [i, j, k, l] of
          (e_i e_j) e_k is the sum over m of c[i, j, m] c[m, k, l], d
          products of 0/1 values of which only m = i + j can be non-zero;
          it is 1 exactly when i + j + k = l < K, and so is entry
          [i, j, k, l] of e_i (e_j e_k) (only m = j + k).  Both sides are
          exact, so the check in ``__init__`` computes a defect of 0.0.
        - ``zero_product_algebra``: every product is 0, and so is every
          entry of both sides.
        """
        algebra = cls.__new__(cls)
        algebra._set(structure, 0.0)
        return algebra

    def _set(self, c: np.ndarray, defect: float):
        self.associativity_defect = defect
        self.structure = c
        self.structure.setflags(write=False)
        self._span = None  # square_span's basis, once computed

    @property
    def dim(self) -> int:
        return self.structure.shape[0]

    def multiply(self, a, b) -> np.ndarray:
        return np.einsum("i,j,ijk->k", a, b, self.structure)

    def self_bimodule(self) -> "FiniteBimodule":
        """The algebra acting on itself by multiplication (symmetric)."""
        action = self.structure
        return FiniteBimodule._derived(self, action, action)

    def __repr__(self):
        return f"FiniteAlgebra(dim={self.dim})"


class FiniteBimodule:
    """Two action tensors over a finite algebra, validated on basis triples.

    left[i, x, y] is the f_y coefficient of e_i . f_x, and right[i, x, y]
    that of f_x . e_i.  ``symmetric`` records exact equality of the two.
    The axiom defects compare sums of m products of action entries with
    sums of d products of an action entry and an entry of c, so each entry
    may reach ``atol`` times the sum of the moduli of its own products, as
    in the algebra.  A NaN or inf defect fails the check.
    """

    def __init__(self, algebra: FiniteAlgebra, left, right,
                 atol: float = 1e-12):
        L, R = _numeric(left), _numeric(right)
        d, c = algebra.dim, algebra.structure
        if L.shape != R.shape or L.ndim != 3 or L.shape[0] != d \
                or L.shape[1] != L.shape[2]:
            raise ValueError("action tensors must have shape (dim_A, m, m)")
        _checked_defect(_module_axioms, (c, L, R), atol, "bimodule axiom")
        self._set(algebra, L, R)

    @classmethod
    def _derived(cls, algebra: FiniteAlgebra, left, right) -> "FiniteBimodule":
        """A module whose axioms follow from ones already checked.

        No check runs here, and none is needed for the two callers:

        - ``FiniteAlgebra.self_bimodule``: left = right = c.  Using
          c[i, j] = c[j, i], which the algebra checked exactly, each axiom
          tensor is the associativity defect
          assoc[i, j, k] = (e_i e_j) e_k - e_i (e_j e_k) with its indices
          permuted, up to sign: e_i.(e_j.f_x) - (e_i e_j).f_x is
          -assoc[i, j, x], (f_x.e_i).e_j - f_x.(e_i e_j) is assoc[x, i, j],
          and e_i.(f_x.e_j) - (e_i.f_x).e_j is -assoc[i, x, j].
        - ``FiniteBimodule.dual``: with left' = right^T and right' = left^T
          (module indices transposed), the dual's axiom tensors are the
          original's with the module indices transposed: the first is the
          second at [i, j, z, x], the second the first at [i, j, z, x], and
          the third itself at [j, i, z, x].

        Each entry is the same sum of products as the entry it matches, up
        to the order of summation, so the largest defect is the one the
        validated algebra or module already passed.
        """
        module = cls.__new__(cls)
        module._set(algebra, left, right)
        return module

    def _set(self, algebra: FiniteAlgebra, L: np.ndarray, R: np.ndarray):
        self.algebra = algebra
        self.left = L
        self.right = R
        self.symmetric = bool(np.array_equal(L, R))
        self.left.setflags(write=False)
        self.right.setflags(write=False)

    @property
    def dim(self) -> int:
        return self.left.shape[1]

    def act_left(self, a, x) -> np.ndarray:
        return np.einsum("i,x,ixy->y", a, x, self.left)

    def act_right(self, x, a) -> np.ndarray:
        return np.einsum("i,x,ixy->y", a, x, self.right)

    def dual(self) -> "FiniteBimodule":
        """Dual module: (a.psi)(x) = psi(x.a) and (psi.a)(x) = psi(a.x).

        The dual actions are the module-index transposes of the swapped
        originals, so the dual of a symmetric module is symmetric.
        """
        dual_left = self.right.transpose(0, 2, 1)
        dual_right = self.left.transpose(0, 2, 1)
        return FiniteBimodule._derived(self.algebra, dual_left, dual_right)

    def __repr__(self):
        return (f"FiniteBimodule(dim={self.dim}, "
                f"symmetric={self.symmetric})")


# Relative thresholds: for the singular values a rank or a span keeps, for
# an anchor's residual, and (halved) for the |a0 . D(a0)| a transfer needs;
# then the seeded random elements find_transfer_functional tries.
_RANK_THRESHOLD = _ANCHOR_TOL = _TRANSFER_TOL = 1e-9
_RANDOM_PROBES = 64
# the largest residual is_inner counts as solved, and transfer's derivation
# identity tolerance relative to derivation_scale
_INNER_TOL, _IDENTITY_TOL = 1e-9, 1e-10


def matrix_rank(M: np.ndarray) -> int:
    """Numerical rank: singular values over _RANK_THRESHOLD of the largest."""
    s = np.linalg.svd(_numeric(M), compute_uv=False)
    return int(np.count_nonzero(s > _RANK_THRESHOLD * s.max(initial=0.0)))


def opnorm_l1_to_l1(M: np.ndarray) -> float:
    """Operator norm for l1 -> l1 coordinates: max column sum of moduli."""
    return float(np.abs(_numeric(M)).sum(axis=0).max(initial=0.0))


def opnorm_l1_to_sup(M: np.ndarray) -> float:
    """Operator norm for l1 -> sup coordinates: largest entry modulus."""
    return float(np.abs(_numeric(M)).max(initial=0.0))


def square_span(A: FiniteAlgebra) -> np.ndarray:
    """Orthonormal basis (rows) of the linear span of all products e_i e_j.

    Finite-dimensional subspaces are closed, so no topology is involved.
    The basis is computed once per algebra, and is read-only.
    """
    if A._span is None:
        d = A.dim
        _, s, vh = np.linalg.svd(A.structure.reshape(d * d, d),
                                 full_matrices=False)
        basis = vh[s > _RANK_THRESHOLD * s.max(initial=0.0)]
        basis.setflags(write=False)
        A._span = basis
    return A._span


def _project_onto_rows(basis: np.ndarray, v: np.ndarray) -> np.ndarray:
    return basis.T @ (basis.conj() @ v)


def find_anchor(A: FiniteAlgebra) -> np.ndarray:
    """First basis vector off the product span: a rank-one anchor."""
    span = square_span(A)
    for candidate in np.eye(A.dim, dtype=A.structure.dtype):
        residual = candidate - _project_onto_rows(span, candidate)
        if np.linalg.norm(residual) > 1e-9:
            return candidate
    raise NotOutsideSquareError("every basis vector lies in the product span; "
                                "no rank-one non-inner derivation exists here")


def _derivation_terms(M, c, left, right):
    # entry [i, j, y] of D(e_i e_j), e_i.D(e_j) and D(e_i).e_j at coordinate
    # y, as matrix products: sum_k c[i, j, k] M[y, k], sum_x M[x, j]
    # left[i, x, y] and sum_x M[x, i] right[j, x, y]
    d, m = c.shape[0], M.shape[0]
    return ((c.reshape(d * d, d) @ M.T).reshape(d, d, m), M.T @ left,
            (M.T @ right).transpose(1, 0, 2))


def derivation_defect(A: FiniteAlgebra, E: FiniteBimodule,
                      D: FiniteMap) -> float:
    """Largest coefficient of D(ab) - a.D(b) - D(a).b over basis pairs."""
    whole, left, right = _derivation_terms(D.matrix, A.structure, E.left,
                                           E.right)
    return float(np.abs(whole - left - right).max(initial=0.0))


def derivation_scale(A: FiniteAlgebra, E: FiniteBimodule,
                     D: FiniteMap) -> float:
    """Size of the terms in ``derivation_defect``: the largest entry of
    |M| |c| + |M| |E.left| + |M| |E.right|, entrywise moduli.

    Rounding in the defect grows with this, so tolerances are relative to
    ``max(1, scale)``.
    """
    terms = _derivation_terms(np.abs(D.matrix), np.abs(A.structure),
                              np.abs(E.left), np.abs(E.right))
    return float(sum(terms).max(initial=0.0))


def rank_one_derivation(A: FiniteAlgebra,
                        a0) -> Tuple[FiniteMap, FiniteMap]:
    """Rank-one non-inner derivation anchored off the product span.

    Solves the underdetermined system {lambda(v) = 0 on the product span,
    lambda(a0) = 1} by minimum-norm least squares and returns
    (lambda0, D) with D(a) = lambda0(a) lambda0.  Killing the product span
    makes both sides of the derivation identity vanish, and
    D(a0)(a0) = 1 while every inner derivation into the dual of a
    commutative algebra is zero, so D is not inner.
    """
    a0 = _numeric(a0)
    span = square_span(A)
    residual = a0 - _project_onto_rows(span, a0)
    scale = float(np.linalg.norm(a0))
    if scale == 0.0 or np.linalg.norm(residual) <= _ANCHOR_TOL * scale:
        raise NotOutsideSquareError(
            "anchor element lies in the span of products")
    constraints = np.vstack([span, a0[None, :]])
    rhs = np.zeros(constraints.shape[0])
    rhs[-1] = 1.0
    lam = np.linalg.pinv(constraints) @ rhs
    return FiniteMap(lam[None, :]), FiniteMap(np.outer(lam, lam))


@dataclass
class InnerFit:
    """Least-squares fit of an inner derivation a |-> a.e - e.a to D.

    ``element`` is the minimiser, ``defect`` the residual map D - delta_e,
    ``residual`` its largest coefficient modulus, and ``solved`` whether
    that is below tolerance.  Over a symmetric module delta_e vanishes
    identically, so a solution exists exactly when D = 0.
    """

    element: np.ndarray
    defect: FiniteMap
    residual: float
    solved: bool


def is_inner(A: FiniteAlgebra, E: FiniteBimodule, D: FiniteMap) -> InnerFit:
    d, m = A.dim, E.dim
    blocks = [E.left[i].T - E.right[i].T for i in range(d)]
    S = np.vstack(blocks)
    b = D.matrix.T.reshape(d * m)
    e, *_ = np.linalg.lstsq(S, b, rcond=None)
    delta = np.column_stack([blocks[i] @ e for i in range(d)])
    defect = FiniteMap(D.matrix - delta)
    residual = float(np.abs(defect.matrix).max(initial=0.0))
    return InnerFit(element=e, defect=defect, residual=residual,
                    solved=residual <= _INNER_TOL)


def dual_homomorphism(A: FiniteAlgebra, E: FiniteBimodule, lam) -> FiniteMap:
    """The module homomorphism E -> A* sending x to the functional
    a |-> lambda(a.x); defined for symmetric E.

    No check runs here, and none is needed: R(e_i.x)(a) = lambda(a.(e_i.x))
    = lambda((a e_i).x) = (e_i.R(x))(a) by the module axiom and the dual
    action (e_i.psi)(a) = psi(a e_i), and the right side follows as E is
    symmetric and A commutative.  The axiom held when E was built, checked
    by ``FiniteBimodule.__init__`` or proved by ``_derived``, and the
    action arrays are read-only.
    """
    if not E.symmetric:
        raise NotSymmetricError("the induced map into the dual needs a "
                                "symmetric module")
    return FiniteMap(np.einsum("axy,y->ax", E.left, lam))


def _transfer_candidates(d: int, seed: int):
    """The elements ``find_transfer_functional`` scans, made as needed."""
    eye = np.eye(d)
    yield from eye
    for i in range(d):
        for j in range(i + 1, d):
            yield eye[i] + eye[j]
    rng = np.random.default_rng(seed)
    for _ in range(_RANDOM_PROBES):
        yield rng.standard_normal(d) + 1j * rng.standard_normal(d)


def find_transfer_functional(A: FiniteAlgebra, E: FiniteBimodule,
                             D: FiniteMap, seed: int = 42):
    """Element a0 with a0 . D(a0) != 0 and a functional normalised against it.

    Scans basis vectors, then sums of basis pairs, then seeded random
    combinations, in that fixed order for reproducibility.  The returned
    functional lam satisfies lam(a0 . D(a0)) = 1 and is the minimum-norm
    such choice.  Requires the product span to be the whole algebra.
    """
    d = A.dim
    if square_span(A).shape[0] != d:
        raise ValueError("the product span must be the whole algebra for "
                         "the transfer construction")
    for probes, a0 in enumerate(_transfer_candidates(d, seed), 1):
        # lam needs w != 0; w = D(a0^2)/2 if E is symmetric and D a derivation
        w = E.act_left(a0, D(a0))
        if float(np.abs(w).max(initial=0.0)) <= _TRANSFER_TOL / 2:
            continue
        lam = w.conj() / float(np.vdot(w, w).real)
        return a0, lam
    raise NoSuchElementError(
        f"D vanished on the squares of all {probes} probed elements")


@dataclass
class _Transferred(FiniteMap):
    """The map ``transfer`` returns, carrying what it computed: the
    homomorphism R into the dual, and the derivation-identity defect with
    its scale and the tolerance it met."""

    homomorphism: Optional[FiniteMap] = None
    defect: float = 0.0
    scale: float = 0.0
    tolerance: float = 0.0


def transfer(D: FiniteMap, lam, A: FiniteAlgebra,
             E: FiniteBimodule) -> FiniteMap:
    """Compose D with the induced homomorphism into the dual.

    D must be a derivation into E, and the result is again a derivation
    into the dual: both are checked on all basis pairs, to ``_IDENTITY_TOL``
    relative to ``derivation_scale``, and a failure raises ValueError.
    The result's rank never exceeds rank(D), and its operator norm is at
    most the product of the factors' norms in the declared coordinate
    norms.  It also carries the homomorphism, the defect, the scale and
    the tolerance as attributes.
    """
    defect = derivation_defect(A, E, D)
    tolerance = _IDENTITY_TOL * max(1.0, derivation_scale(A, E, D))
    if not defect <= tolerance:
        raise ValueError(f"the map to transfer is not a derivation into the "
                         f"module: defect {defect:.3e} > {tolerance:.1e}")
    R = dual_homomorphism(A, E, lam)
    composed = _Transferred(R.matrix @ D.matrix, homomorphism=R)
    dual_of_A = A.self_bimodule().dual()
    composed.defect = derivation_defect(A, dual_of_A, composed)
    composed.scale = derivation_scale(A, dual_of_A, composed)
    composed.tolerance = _IDENTITY_TOL * max(1.0, composed.scale)
    if composed.defect > composed.tolerance:
        raise ValueError(f"transferred map violates the derivation identity "
                         f"by {composed.defect:.3e}")
    return composed


# ---------------------------------------------------------------------------
# example algebras and serialisation
# ---------------------------------------------------------------------------

_TRUNC_RE = re.compile(r"^trunc(\d+)$")


def truncated_polynomials(order: int) -> FiniteAlgebra:
    """The polynomials modulo t^order, basis 1, t, ..., t^{order-1}."""
    if order < 1:
        raise ValueError("order must be at least 1")
    c = np.zeros((order, order, order))
    i, j = np.nonzero(np.add.outer(np.arange(order), np.arange(order)) < order)
    c[i, j, i + j] = 1.0
    return FiniteAlgebra._exact(c)


def zero_product_algebra(dim: int) -> FiniteAlgebra:
    return FiniteAlgebra._exact(np.zeros((dim, dim, dim)))


def euler_derivation(A: FiniteAlgebra) -> FiniteMap:
    """t d/dt on a truncated polynomial algebra: e_k |-> k e_k.

    A derivation into the self-module: D(e_i e_j) = (i + j) e_{i+j} =
    e_i.D(e_j) + D(e_i).e_j when i + j < K, and both sides vanish when
    i + j >= K.
    """
    return FiniteMap(np.diag(np.arange(A.dim)))


def algebra_catalog(name: str) -> FiniteAlgebra:
    """Built-in examples: zero2, nil1, and truncK for K >= 1."""
    if name == "zero2":
        return zero_product_algebra(2)
    if name == "nil1":
        return zero_product_algebra(1)
    match = _TRUNC_RE.match(name)
    if match:
        return truncated_polynomials(int(match.group(1)))
    raise KeyError(f"unknown algebra {name!r}; available: zero2, nil1, "
                   f"truncK")


# complex() and float() would read True as 1 and parse "1"
_NOT_NUMBERS = (bool, np.bool_, str)


def _as_number(entry):
    """A structure constant: a float from a real number, a complex from an
    [re, im] pair or a complex number."""
    try:
        if isinstance(entry, (list, tuple)):
            if len(entry) != 2:
                raise ValueError("complex entries are [re, im] pairs")
            real, imag = entry
            if isinstance(real, _NOT_NUMBERS) or \
                    isinstance(imag, _NOT_NUMBERS):
                raise TypeError
            return complex(float(real), float(imag))
        if isinstance(entry, _NOT_NUMBERS):
            raise TypeError
        return float(entry) if isinstance(entry, numbers.Real) \
            else complex(entry)
    except TypeError:
        raise ValueError(f"bad structure constant {entry!r}") from None


def _numeric_structure(raw, d: int, bools: bool) -> Optional[np.ndarray]:
    """``raw`` as a (d, d, d) int64 or float64 array in one call, or None.

    Only such an array is taken, which ``FiniteAlgebra`` rounds to doubles
    as ``float`` does: numpy builds one from numbers, and from bools
    among them, read as 0 or 1, which are looked for unless
    ``bools`` is False.  None sends the input entry by entry, with that
    path's errors: [re, im] pairs, strings, bools, None, ints that fit no
    int64 and meet no float, ragged nesting and wrong shapes.
    """
    try:
        c = np.array(raw)
    except (ValueError, TypeError, OverflowError):
        return None
    if c.dtype not in (np.int64, np.float64) or c.shape != (d, d, d):
        return None
    types = map(type, chain.from_iterable(chain.from_iterable(raw)))
    if bools and not {bool, np.bool_}.isdisjoint(types):
        return None
    return c


def algebra_from_dict(payload: dict) -> FiniteAlgebra:
    """Structure constants from {"dim": d, "c": nested array}."""
    return _algebra(payload, bools=True)


def algebra_from_file(path: str) -> FiniteAlgebra:
    with open(path, "r", encoding="utf-8") as handle:
        text = handle.read()
    # JSON spells a bool true or false: without either, no entry is one
    return _algebra(json.loads(text), "true" in text or "false" in text)


def _algebra(payload, bools: bool) -> FiniteAlgebra:
    """``algebra_from_dict``, looking for a bool among plain numbers only
    when ``bools`` is True."""
    if not isinstance(payload, dict):
        raise ValueError('an algebra file must hold one JSON object, '
                         '{"dim": d, "c": ...}')
    d = payload["dim"]
    if not isinstance(d, numbers.Integral) or isinstance(d, bool):
        raise ValueError(f'"dim" must be an integer (got {d!r})')
    c = _numeric_structure(payload["c"], d, bools)
    if c is not None:
        return FiniteAlgebra(c)

    def sized(items):
        if not isinstance(items, (list, tuple)) or len(items) != d:
            raise ValueError(f'"c" must have shape (dim, dim, dim) = '
                             f'{(d, d, d)}')
        return items

    # float64, or complex128 if any entry is complex
    c = np.array([[[_as_number(entry) for entry in sized(row)]
                   for row in sized(plane)] for plane in sized(payload["c"])]
                 ).reshape(d, d, d)
    return FiniteAlgebra(c)

