#!/usr/bin/env python3
"""The swiss-cheese counterexample, built and certified end to end.

Remove one small disc above each dyadic subinterval of [0, 1/2] from the
closed unit disc.  The heights are chosen so the derivative of any
rational function without poles on the set is bounded on the interval by
13/2 times its sup norm, yet the unit-sup probes r_n/(z - a_n) have
derivative exactly 1 at their own ground points and nearly 0 at everyone
else's: restriction-of-derivative is a bounded, non-compact derivation.
"""

import numpy as np

import convderiv as cd

print("== construction ==")
X = cd.build_cheese(12)
for n in (1, 2, 3, 12):
    d = X.disc(n)
    print(f"disc {n:2d}: centre {d.center.real:.6f} + {d.center.imag:.2e} i, "
          f"radius {d.radius:.3e}")
print("geometry margins:", X.margins)

print()
print("== the certified derivative bound ==")
verification = cd.verify_cheese(X, grid=2001)
print(f"max bound sum on the interval:    {verification.max_sum:.6f}")
print(f"with tail allowance (grid sample): {verification.max_certified:.6f} "
      f"< 6.5")
print(f"proven per-term dyadic margin:    {verification.per_term_margin:.3e}")

print()
print("== the unit probes ==")
for n in (1, 2, 3, 12):
    f = cd.pole_probe(X, n)
    print(f"|f_{n}'(x_{n})| = {abs(f.derivative(cd.midpoint(n))):.15f}")

print()
print("== the unit-diagonal pattern that defeats compactness ==")
demo = cd.noncompact_report(X, n_hi=6, grid=2001)
print("matrix |f_n'(x_m)| for n, m <= 6:")
with np.printoptions(precision=4, suppress=True):
    print(demo.matrix)
print(f"diagonal error: {demo.diag_error:.2e}")
print(f"min pairwise sup-separation: {demo.min_separation:.4f} >= 0.7")
print("no subsequence of the probe images can converge: the derivation "
      "is not compact, though it is bounded by the certificate above")
