"""Workload ``deriv-rules``: ``deriv`` CLI jobs on rule-language input.

Why: the CLI evaluates rules per index in Python, and ``validate_tail``
loops over the probe in Python, so those two do most of the work here
while ``convolve``, ``cheese`` and ``bimodules`` stay idle.

Rules come from seeded templates: rational rules that go through the exact
analysis (no ``--tail``), and non-rational rules with ``--tail
decay|none|zero:N``.  Each template carries its own numpy/Fraction
reference for mu_n, so norms, verdicts, truncation errors, images and
witnesses are checked against values the program did not compute.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional

import numpy as np

from jobs import cli_job, complex_array, interleave, ints, mismatch, strata

KERNEL = ("interp", "small")  # calibration parts like this work
REL = 1e-9


@dataclass
class Rule:
    flags: list          # ["--mu"|"--phi", text] plus any ["--tail", ...]
    shape: str           # decay | floor | undeclared
    mu_array: Callable   # float64 array of indices >= 1 -> mu values
    mu_exact: Callable   # Python int index -> mu value
    floor: float = 0.0   # liminf |mu_n| for the non-compact shapes
    zero_from: Optional[int] = None  # declared ZeroTail start

    def mu(self, n: np.ndarray) -> np.ndarray:
        values = self.mu_array(n.astype(float))
        if self.zero_from is not None:
            values = np.where(n >= self.zero_from, 0.0, values)
        return values

    def mu_at(self, n: int) -> float:
        if self.zero_from is not None and n >= self.zero_from:
            return 0.0
        return float(self.mu_exact(n))

    @property
    def noncompact(self) -> bool:
        return self.floor > 0


def _consts(rng, lo, hi, count):
    return [int(v) for v in rng.integers(lo, hi + 1, size=count)]


def recip_mu(rng) -> Rule:
    c, a, k = _consts(rng, 1, 9, 2) + _consts(rng, 1, 3, 1)
    return Rule(["--mu", f"{c}/(n+{a})^{k}"], "decay",
                lambda n: c / (n + a) ** k,
                lambda n: Fraction(c, (n + a) ** k))


def recip_phi(rng) -> Rule:
    c, a, k = _consts(rng, 1, 9, 2) + _consts(rng, 2, 3, 1)
    return Rule(["--phi", f"{c}/(n+{a})^{k}"], "decay",
                lambda n: n * (c / (n - 1 + a) ** k),
                lambda n: Fraction(n * c, (n - 1 + a) ** k))


def ratq_mu(rng) -> Rule:
    a, b, c = _consts(rng, 1, 9, 1) + _consts(rng, 1, 5, 1) + _consts(rng, 1, 9, 1)
    return Rule(["--mu", f"(n+{a})/({b}*n^2+{c})"], "decay",
                lambda n: (n + a) / (b * n ** 2 + c),
                lambda n: Fraction(n + a, b * n * n + c))


def ratq_phi(rng) -> Rule:
    a, b, c = _consts(rng, 1, 9, 1) + _consts(rng, 1, 5, 1) + _consts(rng, 1, 9, 1)
    return Rule(["--phi", f"(n+{a})/({b}*n^2+{c})"], "floor",
                lambda n: n * ((n - 1 + a) / (b * (n - 1) ** 2 + c)),
                lambda n: Fraction(n * (n - 1 + a), b * (n - 1) ** 2 + c),
                floor=1.0 / b)


def mobius_mu(rng) -> Rule:
    while True:
        a, b, c, d = _consts(rng, 1, 9, 4)
        if a * d != b * c:  # a constant would take the Constant path
            break
    return Rule(["--mu", f"({a}*n+{b})/({c}*n+{d})"], "floor",
                lambda n: (a * n + b) / (c * n + d),
                lambda n: Fraction(a * n + b, c * n + d), floor=a / c)


def geom_decay(rng) -> Rule:
    r = _consts(rng, 2, 9, 1)[0]
    return Rule(["--mu", f"{r}^(-n)", "--tail", "decay"], "decay",
                lambda n: float(r) ** -n, lambda n: float(r) ** -n)


def ngeom_decay(rng) -> Rule:
    r = _consts(rng, 2, 5, 1)[0]
    return Rule(["--mu", f"n*{r}^(1-n)", "--tail", "decay"], "decay",
                lambda n: n * float(r) ** (1 - n),
                lambda n: n * float(r) ** (1 - n))


def geom_none(rng) -> Rule:
    r = _consts(rng, 2, 9, 1)[0]
    return Rule(["--mu", f"{r}^(-n)", "--tail", "none"], "undeclared",
                lambda n: float(r) ** -n, lambda n: float(r) ** -n)


def alt_none(rng) -> Rule:
    a = _consts(rng, 2, 9, 1)[0]
    return Rule(["--mu", f"{a}+(-1)^n", "--tail", "none"], "undeclared",
                lambda n: a + (-1.0) ** n, lambda n: a + (-1) ** n,
                floor=a - 1.0)


def zero_tail(rng, depth: int) -> Rule:
    base = [recip_mu, geom_decay, ngeom_decay][int(rng.integers(3))](rng)
    start = int(depth * rng.uniform(0.4, 0.6))
    flags = base.flags[:2] + ["--tail", f"zero:{start}"]
    return Rule(flags, "decay", base.mu_array, base.mu_exact,
                zero_from=start)


RATIONAL = (recip_mu, recip_phi, ratq_mu, ratq_phi, mobius_mu)
NON_RATIONAL = (geom_decay, ngeom_decay, geom_none, alt_none, zero_tail)
DECAYING = (recip_mu, recip_phi, ratq_mu, geom_decay, ngeom_decay, zero_tail)
NONCOMPACT = (ratq_phi, mobius_mu, alt_none)


def _make(template, rng, depth: int = 0) -> Rule:
    return template(rng, depth) if template is zero_tail else template(rng)


# -- jobs ------------------------------------------------------------------

def norm_job(rule: Rule, depth: int, defect: bool = False,
             expect_code: int = 0):
    def check(result: dict) -> Optional[str]:
        mags = np.abs(rule.mu(np.arange(1, depth + 1)))
        lower = float(mags.max())
        cause = mismatch("norm lower bound", result["lower"], lower, REL)
        if cause:
            return cause
        pinned = rule.shape == "decay" and (
            rule.zero_from is None or rule.zero_from <= depth + 1)
        if pinned != (result["exact"] is not None):
            return (f"exact norm {result['exact']!r} for a {rule.shape} "
                    f"tail at depth {depth}")
        if pinned:
            return mismatch("exact norm", result["exact"], lower, REL)
        return None

    argv = ["deriv", "norm", *rule.flags, "--depth", str(depth)]
    return cli_job("norm", argv, expect_code, check, defect)


def classify_job(rule: Rule, depth: int):
    tol = 1e-9
    want = {"decay": "compact", "floor": "noncompact",
            "undeclared": "inconclusive"}[rule.shape]

    def check(result: dict) -> Optional[str]:
        if result["verdict"] != want:
            return f"verdict {result['verdict']!r}, expected {want!r}"
        if want == "compact":
            n = result["decay_from"]
            if rule.zero_from is not None:
                return None if n == rule.zero_from else (
                    f"decay_from {n}, expected {rule.zero_from}")
            if n is None or not abs(rule.mu_at(n)) < tol:
                return f"|mu| at decay_from {n} is not below {tol}"
        if want == "noncompact":
            floor = result["floor"]
            if not floor > 0 or any(abs(rule.mu_at(n)) < floor - tol
                                    for n in result["cited_indices"]):
                return f"floor {floor} not held at the cited indices"
        return None

    argv = ["deriv", "classify", *rule.flags, "--depth", str(depth)]
    return cli_job("classify", argv, 0, check)


def truncate_job(rule: Rule, k: int, depth: int):
    def check(result: dict) -> Optional[str]:
        tail = np.abs(rule.mu(np.arange(k + 1, max(depth, k + 1) + 1)))
        head = np.concatenate([[0.0], rule.mu(np.arange(1, k + 1))])
        return (mismatch("truncation error", result["error"],
                         float(tail.max()), REL)
                or mismatch("head", complex_array(result["head"]), head,
                            REL, 1e-300))

    argv = ["deriv", "truncate", *rule.flags, "--terms", str(k),
            "--depth", str(depth)]
    return cli_job("truncate", argv, 0, check)


def apply_job(rule: Rule, coeffs: list, depth: int):
    def check(result: dict) -> Optional[str]:
        n = np.arange(depth + 1)
        terms = np.array([k * a * rule.mu(n + k) / (n + k)
                          for k, a in enumerate(coeffs) if k >= 1])
        want, scale = terms.sum(0), np.abs(terms).sum(0)
        # the terms can cancel exactly, so errors scale with their moduli;
        # the floor covers subnormal values
        return (mismatch("image values", complex_array(result["values"]),
                         want, 0.0, REL * scale + 1e-300)
                or mismatch("sup probe", result["sup_probe"],
                            float(np.abs(want).max()), 0.0,
                            REL * float(scale.max())))

    # "--f=" keeps a leading minus sign from reading as an option
    argv = ["deriv", "apply", *rule.flags,
            "--f=" + ",".join(str(c) for c in coeffs), "--depth", str(depth)]
    return cli_job("apply", argv, 0, check)


def witness_job(rng, rule: Rule):
    # the separation argument needs const well above 8 sup|mu| at large
    # indices (at most 10 here), or the witness honestly fails
    const = float(rng.choice([100.0, 1000.0]))
    terms = 4
    if rule.noncompact:
        eps = round(rule.floor * rng.uniform(0.3, 0.8), 6)
        # keep every index below 2^50, where float(n) is exact
        while (2 * const / eps) ** terms >= 2.0 ** 50:
            terms -= 1
    else:
        eps = round(rng.uniform(0.05, 0.5), 6)

    def probe(j: int, l: int) -> float:
        return j * rule.mu_at(j + l) / (j + l)

    def check(result: dict) -> Optional[str]:
        js, ls, ns = result["j"], result["l"], result["chosen_indices"]
        if len(js) != terms:
            return f"{len(js)} witness terms, expected {terms}"
        prev = 1
        for k, (j, l, n) in enumerate(zip(js, ls, ns)):
            if not (n > const / eps * prev and l == n // 2 and j == n - l):
                return f"witness index {n} breaks the growth rule"
            diag = abs(probe(j, l))
            cause = mismatch("diagonal", result["diagonal"][k], diag, REL)
            if cause or not diag > eps / 3:
                return cause or f"diagonal {diag} not above eps/3"
            for i in range(k):
                if not abs(probe(js[i], l) - probe(j, l)) > eps / 4:
                    return f"pair ({i}, {k}) not separated by eps/4"
            prev = j
        return None

    argv = ["deriv", "witness", *rule.flags, "--eps", repr(eps),
            "--terms", str(terms), "--const", repr(const)]
    # a compact derivation has no witness: the input calls for exit 1
    return cli_job("witness", argv, 0 if rule.noncompact else 1, check)


# -- decks -----------------------------------------------------------------

def deck(rng, defects: bool = False) -> list:
    """Every command on every template that suits it, with depths
    stratified log-uniformly over 1e3-1e5."""
    templates = RATIONAL + NON_RATIONAL
    count = len(templates)
    jobs = [norm_job(_make(t, rng, d), d) for t, d in
            zip(templates, ints(strata(rng, count, 1e3, 1e5)))]
    jobs += [classify_job(_make(t, rng, d), d) for t, d in
             zip(templates, ints(strata(rng, count, 1e3, 1e5, 3)))]
    size = len(DECAYING)
    jobs += [truncate_job(_make(t, rng, d), k, d) for t, d, k in zip(
        DECAYING, ints(strata(rng, size, 1e3, 1e5)),
        ints(strata(rng, size, 5, 500, 5)))]
    # images are rendered in full, so apply depths stop at 1e4 (~600 KB)
    for t, d in zip(templates, ints(strata(rng, count, 1e3, 1e4, 7))):
        coeffs = [int(c) for c in rng.choice([-5, -4, -3, -2, -1, 1, 2, 3, 4, 5],
                                             size=4)]
        jobs.append(apply_job(_make(t, rng, d), coeffs, d))
    for t in NONCOMPACT + NONCOMPACT + (recip_mu, geom_decay):
        jobs.append(witness_job(rng, _make(t, rng)))
    if defects:
        jobs += defect_jobs(rng)
    return interleave(jobs)


def defect_jobs(rng) -> list:
    """The two ROADMAP rule defects, one job each per deck.

    A constant beyond the float range is an input-domain error (exit 2);
    ``n^3+1-n^3`` is exactly 1, so its norm is 1 at every depth.
    """
    k = int(rng.integers(309, 401))
    huge = Rule(["--mu", f"10^{k}"], "decay", None, None)
    one = Rule(["--mu", "n^3+1-n^3"], "decay",
               lambda n: np.ones_like(n), lambda n: 1)
    return [norm_job(huge, int(strata(rng, 1, 1e3, 1e5)[0]), defect=True,
                     expect_code=2),
            norm_job(one, int(strata(rng, 1, 2.1e5, 3e5)[0]), defect=True)]


def warmup(rng) -> list:
    return [norm_job(recip_mu(rng), 2000), classify_job(geom_decay(rng), 2000),
            truncate_job(ratq_mu(rng), 20, 2000),
            apply_job(mobius_mu(rng), [0, 1, 2], 1000),
            witness_job(rng, mobius_mu(rng))]
