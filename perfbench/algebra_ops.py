"""Workload ``algebra-ops``: Python-API jobs on the algebra itself.

Why: ``convolve`` and the module action (``Derivation.apply``,
``act_on_dual``, ``DualSequence.bulk``) do the work here, with vectorised
numpy rules, so the ``rules`` module stays idle.  ``validate_tail`` runs on
the array path here and on the scalar path in ``deriv-rules``: a change
that speeds up one use but slows the other shows on one of the two.

Jobs call the package API through ``convderiv.<name>`` at call time, so the
traced run sees the wrapped functions.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

import convderiv as cd

from jobs import Job, interleave, ints, mismatch, strata

KERNEL = ("interp", "small", "conv")  # calibration parts like this work
FLOAT_REL = 1e-10     # of sum_r |a_r| |b_(m-r)| for float convolution
IDENTITY_REL = 1e-12  # of ||D|| ||f||_1 ||g||_1 for the derivation identity


# -- convolve ----------------------------------------------------------------

def convolve_job(rng, degree: int, exact: bool) -> Job:
    size = degree + 1
    if exact:
        parts = rng.integers(-9, 10, size=(4, size))
        parts[:, -1] = np.where(parts[:, -1] == 0, 1, parts[:, -1])
        a, b = parts[0] + 1j * parts[1], parts[2] + 1j * parts[3]
    else:
        a, b = (rng.standard_normal(size) + 1j * rng.standard_normal(size)
                for _ in range(2))
    probes = np.concatenate([[0, 2 * degree],
                             rng.integers(0, 2 * degree + 1, size=4)])

    def run():
        return cd.convolve(cd.L1Element(a), cd.L1Element(b))

    def window(m: int):
        lo, hi = max(0, m - degree), min(m, degree)
        return slice(lo, hi + 1), slice(m - hi, m - lo + 1)

    def check(product) -> Optional[str]:
        got = np.asarray(product.coeffs)
        if got.size != 2 * degree + 1:
            return f"product has {got.size} coefficients, expected " \
                   f"{2 * degree + 1}"
        for m in probes:
            sa, sb = window(int(m))
            if exact:
                # Python-int sums: no floating point in the reference
                ar, ai = parts[0][sa].tolist(), parts[1][sa].tolist()
                br, bi = parts[2][sb][::-1].tolist(), parts[3][sb][::-1].tolist()
                re = sum(x * y for x, y in zip(ar, br)) \
                    - sum(x * y for x, y in zip(ai, bi))
                im = sum(x * y for x, y in zip(ar, bi)) \
                    + sum(x * y for x, y in zip(ai, br))
                if got[m] != complex(re, im):
                    return f"exact coefficient {m}: {got[m]} != {re}+{im}j"
            else:
                want = np.dot(a[sa], b[sb][::-1])
                scale = np.dot(np.abs(a[sa]), np.abs(b[sb][::-1]))
                cause = mismatch(f"float coefficient {m}", got[m], want, 0.0,
                                 FLOAT_REL * scale)
                if cause:
                    return cause
        return None

    path = "exact" if exact else "float"
    return Job(f"convolve-{path}", f"convolve {path} degree {degree}", run,
               check)


# -- derivation identity -----------------------------------------------------

def _phi_template(rng, choice: int):
    """(constructor, reference phi on an int array, sup |mu|)."""
    if choice == 0:
        return (lambda: cd.DualSequence(
            lambda n: 1.0 / (np.asarray(n, float) + 1.0),
            tail=cd.ClosedForm(cd.Decay(0)), vectorized=True),
            lambda n: 1.0 / (n + 1.0), 1.0)
    if choice == 1:
        r = int(rng.integers(2, 6))
        return (lambda: cd.DualSequence(
            lambda n: float(r) ** -np.asarray(n, float),
            tail=cd.ClosedForm(cd.Decay(0, ratio=1.0 / r)), vectorized=True),
            lambda n: float(r) ** -n, 1.0)
    if choice == 2:
        c, a = int(rng.integers(1, 10)), int(rng.integers(1, 10))
        n = np.arange(1, 10 ** 4)
        sup = float(np.max(n * c / (n - 1.0 + a) ** 2))
        return (lambda: cd.DualSequence(
            lambda n: c / (np.asarray(n, float) + a) ** 2,
            tail=cd.ClosedForm(cd.Decay(0)), vectorized=True),
            lambda n: c / (n + float(a)) ** 2, sup)
    size = int(rng.integers(4, 33))
    table = rng.uniform(-1, 1, size) + 1j * rng.uniform(-1, 1, size)
    return (lambda: cd.DualSequence.from_values(table,
                                                tail=cd.ZeroTail(size)),
            lambda n: np.where(n < size, table[np.minimum(n, size - 1)], 0),
            float(np.max(np.arange(1, size + 1) * np.abs(table))))


def _sparse(rng, terms: int) -> np.ndarray:
    coeffs = np.zeros(2 * terms + 1, dtype=complex)
    where = np.append(rng.choice(2 * terms, size=terms - 1, replace=False),
                      2 * terms)  # the last term fixes the degree
    radius = np.sqrt(rng.random(terms))
    coeffs[where] = radius * np.exp(2j * np.pi * rng.random(terms))
    return coeffs


def identity_job(rng, f_terms: int, g_terms: int, template: int) -> Job:
    make_phi, phi_ref, sup_mu = _phi_template(rng, template)
    fc, gc = _sparse(rng, f_terms), _sparse(rng, g_terms)
    hc = rng.standard_normal(101) + 1j * rng.standard_normal(101)

    def run():
        D = cd.Derivation.from_phi(make_phi(), probe_depth=32)
        f, g = cd.L1Element(fc), cd.L1Element(gc)
        image = D.apply(cd.convolve(f, g))
        lhs = image.values(100)
        rhs = cd.act_on_dual(f, D.apply(g)).values(100) \
            + cd.act_on_dual(g, D.apply(f)).values(100)
        return lhs, rhs, cd.pair(image, cd.L1Element(hc))

    def check(out) -> Optional[str]:
        lhs, rhs, paired = out
        scale = sup_mu * np.abs(fc).sum() * np.abs(gc).sum()
        defect = float(np.abs(lhs - rhs).max())
        if not defect <= IDENTITY_REL * scale:
            return f"identity defect {defect:.3e} above " \
                   f"{IDENTITY_REL:.0e} * ||D|| ||f|| ||g|| = " \
                   f"{IDENTITY_REL * scale:.3e}"
        # D(fg)(t^n) = sum_k k (fg)_k phi(t^(n+k-1))
        fg = np.convolve(fc, gc)
        k = np.arange(1, fg.size)
        n = np.arange(101)
        want = (phi_ref(n[:, None] + k[None, :] - 1) * (k * fg[1:])).sum(1)
        return (mismatch("D(fg) values", lhs, want, 0.0, IDENTITY_REL * scale)
                or mismatch("pairing", paired, np.dot(want, hc), 0.0,
                            IDENTITY_REL * scale * np.abs(hc).sum()))

    return Job("identity", f"identity |f|={f_terms} |g|={g_terms}", run, check)


# -- norm --------------------------------------------------------------------

def norm_job(rng, depth: int, choice: int) -> Job:
    if choice == 0:
        c, a, k = int(rng.integers(1, 10)), int(rng.integers(1, 10)), \
            int(rng.integers(1, 4))
        rule, ratio = (lambda n: c / (np.asarray(n, float) + a) ** k), None
    elif choice == 1:
        r = float(rng.integers(2, 6))
        rule, ratio = (lambda n: np.asarray(n, float) * r ** (1.0 - np.asarray(
            n, float))), None
    else:
        r = float(rng.integers(2, 10))
        rule, ratio = (lambda n: r ** -np.asarray(n, float)), 1.0 / r

    def run():
        D = cd.Derivation.from_mu(
            rule, tail=cd.ClosedForm(cd.Decay(1, ratio=ratio)))
        return D.norm(depth)

    def check(out) -> Optional[str]:
        lower, exact = out
        want = float(np.abs(rule(np.arange(1, depth + 1))).max())
        if exact is None:
            return "a decay tail inside the probe must pin the norm"
        return (mismatch("norm lower bound", lower, want, 1e-12)
                or mismatch("exact norm", exact, want, 1e-12))

    return Job("norm", f"Derivation.norm depth {depth}", run, check)


# -- decks -------------------------------------------------------------------

def deck(rng, defects: bool = False) -> list:
    """Both convolution paths, identity checks on all four functionals and
    norms on all three rules, with stratified sizes."""
    del defects  # this workload has no known-defect shape
    jobs = [convolve_job(rng, d, exact) for exact in (True, False)
            for d in ints(strata(rng, 8, 1e2, 1.6e4, 3))]
    jobs += [identity_job(rng, f, g, i % 4) for i, (f, g) in enumerate(zip(
        ints(strata(rng, 10, 8, 128)),
        ints(strata(rng, 10, 8, 128, 7))))]
    jobs += [norm_job(rng, d, i % 3) for i, d in
             enumerate(ints(strata(rng, 9, 1e5, 1e6, 2)))]
    return interleave(jobs)


def warmup(rng) -> list:
    return [convolve_job(rng, 200, True), convolve_job(rng, 200, False),
            identity_job(rng, 8, 8, 0), norm_job(rng, 10 ** 4, 0)]
