#!/usr/bin/env python3
"""Finite-dimensional bimodules: the rank-one construction and transfer.

Two stories.  First: an algebra whose products do not span it carries a
rank-one derivation into its dual that is not inner.  Second: a non-zero
derivation into any symmetric module transfers to a non-zero derivation
into the dual of the algebra, composing with the homomorphism induced by a
functional; rank never grows and boundedness transfers with the product of
operator norms.
"""

import numpy as np

import convderiv as cd

print("== rank-one non-inner derivation on the zero-product plane ==")
A = cd.algebra_catalog("zero2")
print("dimension of the span of products:", cd.square_span(A).shape[0])
anchor = np.array([1.0, 0.0], dtype=complex)
lambda0, D = cd.rank_one_derivation(A, anchor)
print("functional:", lambda0.matrix[0].real, " rank of D:", D.rank)
dual = A.self_bimodule().dual()
print("derivation-identity residual:", cd.derivation_defect(A, dual, D))
print("D(a0)(a0) =", complex(anchor @ D.matrix @ anchor))
fit = cd.is_inner(A, dual, D)
print("best inner fit residual:", fit.residual,
      "(inner derivations into a symmetric module vanish)")

print()
print("== transfer on truncated polynomials of order 4 ==")
B = cd.algebra_catalog("trunc4")
E = B.self_bimodule()
euler = cd.euler_derivation(B)
print("the Euler derivation t d/dt, e_k -> k e_k (rank", euler.rank, "):")
print(euler.matrix.real)
print("its derivation-identity residual into B:",
      cd.derivation_defect(B, E, euler))
a0, lam = cd.find_transfer_functional(B, E, euler)
print("anchor element a0 =", a0.real, " functional =", lam.real)
composed = cd.transfer(euler, lam, B, E)
print("transferred matrix (rank", composed.rank, "):")
print(composed.matrix.real)
print("identity residual:", cd.derivation_defect(B, E.dual(), composed))
print("anchor pairing:", complex(a0 @ composed.matrix @ a0))

print()
print("== boundedness transfers with the norm product ==")
R = cd.dual_homomorphism(B, E, lam)
print(f"|D'| = {cd.opnorm_l1_to_sup(composed.matrix):.6f}  <=  "
      f"|R| |D| = {cd.opnorm_l1_to_sup(R.matrix) * cd.opnorm_l1_to_l1(euler.matrix):.6f}")
print("(weak compactness adds nothing at finite dimension: every bounded "
      "map is compact)")
