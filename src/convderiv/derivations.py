"""Bounded derivations from the convolution algebra into its dual.

A derivation D is determined by the coefficient sequence
mu_n = D(t^n)(1), equivalently by the functional phi = D(t) through
mu_n = n * phi(t^{n-1}); the correspondence is an isometry, so norms,
finite-rank truncation error and compactness are all read off mu.  The
compactness criterion is: D is compact exactly when mu vanishes at
infinity, and every verdict here is backed by a declared tail certificate
rather than by sampling.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Callable, Optional, Tuple

import numpy as np

from .convolution import (
    INDEX_CAP,
    ClosedForm,
    Constant,
    Decay,
    DualSequence,
    L1Element,
    Tail,
    UNDECLARED,
    Undeclared,
    ZeroTail,
    _per_index,
    act_on_dual,
    index_scaled_tail,
    shift_tail,
    tail_to_dict,
    validate_tail,
)


# truncate refuses, before evaluating anything, to read mu past this index
PROBE_CAP = 1 << 24

# the absolute slack of a recheck: CompactnessVerdict's, WitnessReport's
_VERDICT_SLACK, _WITNESS_SLACK = 1e-9, 1e-12


class UnboundedDerivationError(ValueError):
    """The declared tail proves sup_n n*|phi(t^{n-1})| is infinite."""


class TailUnknownError(RuntimeError):
    """A requested error bound needs tail knowledge that was not declared."""


class NoAdmissibleIndexError(RuntimeError):
    """No index with |mu| above the threshold exists in the required range."""

    def __init__(self, message, partial=None):
        super().__init__(message)
        self.partial = partial


class IndexOverflowError(RuntimeError):
    """The next witness index would exceed the supported index range."""

    def __init__(self, message, partial=None):
        super().__init__(message)
        self.partial = partial


class WitnessVerificationError(RuntimeError):
    """A claimed witness inequality failed its numerical re-check."""


class Derivation:
    """A bounded derivation into the dual, held as its coefficient sequence.

    Use :meth:`from_phi` or :meth:`from_mu`; the two round-trip exactly.
    """

    def __init__(self, mu: DualSequence, phi: DualSequence):
        self.mu = mu
        self.phi = phi

    # -- construction -------------------------------------------------------

    @classmethod
    def from_phi(cls, phi: DualSequence, probe_depth: int = 64,
                 mu_tail: Optional[Tail] = None) -> "Derivation":
        """Unique derivation with the given value at t.

        Raises UnboundedDerivationError when phi's declared tail proves
        sup_n n*|phi(t^{n-1})| infinite.  ``mu_tail`` lets a caller with
        exact knowledge of the derived sequence declare its tail directly;
        by default a sound declaration is derived from phi's.
        """
        if mu_tail is None:
            mu_tail = index_scaled_tail(shift_tail(phi.tail, -1), 1)
        if mu_tail is None:
            raise UnboundedDerivationError(
                f"phi's tail {phi.tail} bounds |phi| below, so n*|phi(n-1)| "
                f"is unbounded and no bounded derivation has phi as its "
                f"value at t")
        mu = _mu_sequence(lambda n: n * phi.bulk(n - 1), mu_tail)
        if probe_depth >= 1 and getattr(mu_tail, "certificate", None):
            validate_tail(mu, probe_depth, first_index=1)
        return cls(mu, phi)

    @classmethod
    def from_mu(cls, mu_rule: Callable, tail: Tail = UNDECLARED,
                vectorized: Optional[bool] = None) -> "Derivation":
        """Derivation from its coefficient sequence; index 0 is forced to 0.

        ``mu_rule`` maps an int64 index array to an array of values when
        ``vectorized`` is True, and one Python-int index to one value when
        it is False; None decides by calling it on the indices 1 and 2.
        """
        if vectorized is None:
            vectorized = _accepts_arrays(mu_rule)
        values = mu_rule if vectorized else _per_index(mu_rule)
        mu = _mu_sequence(values, tail)

        def phi_rule(n):
            # numpy's complex / real multiplies by a reciprocal; dividing
            # the parts separately matches Python's complex / int exactly
            num, den = mu.bulk(n + 1), (n + 1).astype(float)
            out = np.empty(n.shape, dtype=complex)
            out.real = num.real / den
            out.imag = num.imag / den
            return out

        phi_tail = shift_tail(index_scaled_tail(mu.tail, -1), 1)
        phi = DualSequence(phi_rule, tail=phi_tail, vectorized=True)
        return cls(mu, phi)

    @classmethod
    def from_mu_values(cls, values,
                       tail: Optional[Tail] = None) -> "Derivation":
        """Finite table of mu values; a ZeroTail at its end by default."""
        table = np.asarray(values, dtype=complex).ravel()
        if table.size and table[0] != 0:
            raise ValueError("mu_0 must be 0 for a derivation")
        if tail is None:
            tail = ZeroTail(table.size)
        seq = DualSequence.from_values(table, tail=tail)
        return cls.from_mu(seq.bulk, tail=tail, vectorized=True)

    # -- evaluation ---------------------------------------------------------

    def monomial_probe(self, j: int, l: int = 0) -> complex:
        """D(t^j) evaluated at t^l, i.e. j * phi(t^{j+l-1}).

        Exact for every index up to INDEX_CAP, the range the
        non-compactness witness works in.
        """
        if j < 1:
            return 0j
        return j * self.phi.at(j + l - 1)

    def monomial_probes(self, upto: int) -> np.ndarray:
        """D(t^k)(1) for k = 0..upto, batched through the phi route."""
        ks = np.arange(upto + 1)
        out = np.zeros(upto + 1, dtype=complex)
        out[1:] = ks[1:] * self.phi.bulk(ks[1:] - 1)
        return out

    def apply(self, f: L1Element) -> DualSequence:
        """The functional D(f) = f'.phi, the module action of the formal
        derivative f' = sum_k k a_k t^(k-1) on phi = D(t); its value at t^n
        is sum_k k a_k phi(t^{k+n-1})."""
        derivative = L1Element(np.arange(1, f.coeffs.size) * f.coeffs[1:])
        return act_on_dual(derivative, self.phi)

    # -- norm ---------------------------------------------------------------

    def norm(self, probe_depth: int) -> Tuple[float, Optional[float]]:
        """(lower bound, exact value or None) for the operator norm.

        The lower bound is max |mu_n| over 1 <= n <= probe_depth.  The norm
        is the truncation error at k = 0, so the exact entry is filled only
        when the tail pins that down within the probe: a ZeroTail inside the
        probe, monotone decay starting inside it, or an eventually constant
        sequence.
        """
        if probe_depth < 1:
            raise ValueError("probe depth must be at least 1")
        lower = validate_tail(self.mu, probe_depth, first_index=1)
        cut = _tail_cut(self.mu.tail, 0)
        if cut is None or cut[0] - 1 > probe_depth:
            return lower, None
        return lower, max(lower, cut[1])

    # -- compactness --------------------------------------------------------

    def classify_compact(self, tol: float = 1e-9,
                         probe_depth: int = 256) -> "CompactnessVerdict":
        """Compactness verdict backed by certificates, never by samples."""
        if tol <= 0:
            raise ValueError("tolerance must be positive")
        tail = self.mu.tail
        if isinstance(tail, ZeroTail):
            return CompactnessVerdict(
                verdict="compact", tolerance=tol, tail=tail,
                decay_from=tail.start,
                reason="mu vanishes identically beyond the declared index")
        if isinstance(tail, Undeclared):
            return CompactnessVerdict(
                verdict="inconclusive", tolerance=tol, tail=tail,
                reason="tail undeclared: membership in the space of "
                       "vanishing sequences is a tail property")
        cert = tail.certificate
        if cert is None:
            return CompactnessVerdict(
                verdict="inconclusive", tolerance=tol, tail=tail,
                reason="closed form carries no asymptotic certificate")
        validate_tail(self.mu, probe_depth, first_index=1)
        if isinstance(cert, Decay):
            start = max(cert.start, 1)
            decay_from = self._first_below(tol, start)
            return CompactnessVerdict(
                verdict="compact", tolerance=tol, tail=tail,
                decay_from=decay_from,
                reason="declared monotone decay to zero")
        if isinstance(cert, Constant) and cert.value == 0:
            return CompactnessVerdict(
                verdict="compact", tolerance=tol, tail=tail,
                decay_from=cert.start, reason="eventually zero")
        bound = abs(cert.value) if isinstance(cert, Constant) else cert.bound
        start = max(cert.start, 1)
        cited = tuple(start + d for d in (0, 1, 7, 63, 10 ** 6))
        return CompactnessVerdict(
            verdict="noncompact", tolerance=tol, tail=tail,
            floor=bound, cited_indices=cited,
            reason="|mu| is bounded below along the whole tail")

    def _first_below(self, tol: float, start: int) -> Optional[int]:
        # monotone decay: doubling scan for the first index with |mu| < tol
        n = max(start, 1)
        while abs(self.mu.at(n)) >= tol:
            n *= 2
            if n > INDEX_CAP:
                return None
        return n

    # -- finite-rank approximation ------------------------------------------

    def truncate(self, k: int) -> Tuple["Derivation", float]:
        """Best rank-<=k tail cut: zero mu beyond index k.

        Returns (D_k, err) with err = sup_{n>k} |mu_n|, which by the
        isometry equals the operator-norm distance to the truncation.
        Requires a tail declaration that pins the tail supremum down.
        D_k.probed is (stop, sup): err read mu over k < n < stop, where its
        largest modulus is sup, so a longer probe can read on from stop.
        """
        if k < 1:
            raise ValueError("truncation index must be at least 1")
        cut = _tail_cut(self.mu.tail, k)
        if cut is None:
            raise TailUnknownError(
                "truncation error needs a declared tail (zero, decay, or "
                "eventually constant)")
        stop, beyond = cut
        if max(k, stop - 1) > PROBE_CAP:
            raise ValueError(
                f"truncation at {k} needs mu up to index {max(k, stop - 1)}, "
                f"beyond the probe cap {PROBE_CAP}")
        truncated = Derivation.from_mu_values(self.mu.values(k),
                                              tail=ZeroTail(k + 1))
        read = validate_tail(self.mu, stop - 1, k + 1)
        truncated.probed = (max(stop, k + 1), read)
        return truncated, max(read, beyond)

    # -- non-compactness witness ----------------------------------------------

    def witness(self, epsilon: float, max_terms: int,
                growth_constant: float = 1000.0) -> "WitnessReport":
        """Constructive proof that D is not compact.

        Produces monomial exponents j_1 < j_2 < ... whose images under D
        are pairwise separated by more than epsilon/4, each separation
        re-checked by direct evaluation at the paired probe exponent
        l_k.  Step k picks an index N with |mu_N| > epsilon beyond
        growth_constant/epsilon times j_{k-1}, splits it as
        l_k = floor(N/2), j_k = N - l_k, and verifies the claimed
        inequalities numerically instead of trusting the constants.
        """
        if epsilon <= 0:
            raise ValueError("epsilon must be positive")
        if max_terms < 1:
            raise ValueError("at least one witness term is required")
        js: list[int] = []
        ls: list[int] = []
        ns: list[int] = []
        diagonal: list[float] = []
        gaps: list[tuple[int, int, float]] = []

        def partial():
            return self._witness_report(epsilon, growth_constant, js, ls, ns,
                                        diagonal, gaps)

        j_prev = 1  # seed: the induction needs a positive starting exponent
        for _ in range(max_terms):
            bound = growth_constant / epsilon * j_prev
            if bound >= INDEX_CAP:
                raise IndexOverflowError(
                    f"next admissible index must exceed {bound:.3e}, beyond "
                    f"the supported index range", partial=partial())
            n_found = self._scan_admissible(epsilon, math.floor(bound) + 1)
            if n_found is None:
                raise NoAdmissibleIndexError(
                    f"no index N > {math.floor(bound)} with |mu_N| > "
                    f"{epsilon} was found", partial=partial())
            l_k = n_found // 2
            j_k = n_found - l_k
            diag = abs(self.monomial_probe(j_k, l_k))
            if not diag > epsilon / 3:
                raise WitnessVerificationError(
                    f"diagonal probe {diag:.6e} at (j, l) = ({j_k}, {l_k}) "
                    f"is not above epsilon/3 = {epsilon / 3:.6e}")
            for idx, j_i in enumerate(js):
                gap = abs(self.monomial_probe(j_i, l_k)
                          - self.monomial_probe(j_k, l_k))
                if not gap > epsilon / 4:
                    raise WitnessVerificationError(
                        f"pair ({j_i}, {j_k}) probed at l = {l_k} has gap "
                        f"{gap:.6e}, not above epsilon/4 = {epsilon / 4:.6e}")
                gaps.append((idx, len(js), gap))
            js.append(j_k)
            ls.append(l_k)
            ns.append(n_found)
            diagonal.append(diag)
            j_prev = j_k
        return partial()

    def _scan_admissible(self, epsilon: float, lb: int) -> Optional[int]:
        # step-doubling scan upward from the lower bound, capped hard;
        # admissible indices recur geometrically for every catalogued rule,
        # so the scan is cheap
        offset = 0
        while True:
            n = lb + offset
            if n > INDEX_CAP:
                return None
            if isinstance(self.mu.tail, ZeroTail) and n >= self.mu.tail.start:
                return None
            if abs(self.mu.at(n)) > epsilon:
                return n
            offset = 1 if offset == 0 else offset * 2

    def _witness_report(self, epsilon, growth_constant, js, ls, ns,
                        diagonal, gaps) -> "WitnessReport":
        separation = min((g for *_, g in gaps), default=0.0)
        return WitnessReport(
            epsilon=epsilon, growth_constant=growth_constant,
            j=tuple(js), l=tuple(ls), chosen_indices=tuple(ns),
            diagonal=tuple(diagonal),
            gaps=tuple(gaps), separation=separation)

    def __repr__(self):
        return f"Derivation(mu_tail={self.mu.tail!r})"


def _mu_sequence(values: Callable, tail: Tail) -> DualSequence:
    """mu: 0 at index 0 (mu_0 = 0 for every derivation), ``values`` elsewhere.

    Index 0 is structurally zero, so certificates about mu start at 1.
    """
    def rule(n):
        if n.min() >= 1:
            return values(n)
        out = np.zeros(n.shape, dtype=complex)
        pos = n >= 1
        if pos.any():
            out[pos] = values(n[pos])
        return out

    cert = getattr(tail, "certificate", None)
    if cert is not None and cert.start < 1:
        tail = ClosedForm(replace(cert, start=1))
    return DualSequence(rule, tail=tail, vectorized=True)


def _tail_cut(tail: Tail, k: int) -> Optional[Tuple[int, float]]:
    """(stop, beyond): sup_{n>k} |mu_n| = max(|mu_n| over k < n < stop,
    beyond), or None when the tail leaves it open.  Decay never rises past
    its start, so its first value past both k and the start bounds the rest."""
    cert = getattr(tail, "certificate", None)
    if isinstance(tail, ZeroTail):
        return tail.start, 0.0
    if isinstance(cert, Decay):
        return max(k + 1, cert.start) + 1, 0.0
    if isinstance(cert, Constant):
        return cert.start, abs(cert.value)
    return None


def _accepts_arrays(rule: Callable) -> bool:
    probe = np.arange(1, 3)
    try:
        out = np.asarray(rule(probe), dtype=complex)
    except Exception:
        return False
    return out.shape == probe.shape


# ---------------------------------------------------------------------------
# result records
# ---------------------------------------------------------------------------

@dataclass
class CompactnessVerdict:
    """Outcome of the compactness test, with re-checkable evidence.

    For a compact verdict the evidence is the tail declaration plus the
    first index where |mu| drops below the tolerance; for a non-compact
    verdict it is a floor and a citation of indices where |mu| stays above
    it; an inconclusive verdict records why no honest answer exists.
    """

    verdict: str
    tolerance: float
    tail: Tail
    decay_from: Optional[int] = None
    floor: Optional[float] = None
    cited_indices: Tuple[int, ...] = ()
    reason: str = ""

    def recheck(self, deriv: Derivation) -> bool:
        """Re-evaluate mu at the cited indices and confirm the evidence."""
        if self.verdict == "noncompact":
            return all(abs(deriv.mu.at(n)) >= self.floor - _VERDICT_SLACK
                       for n in self.cited_indices)
        if self.verdict == "compact":
            if self.decay_from is None:
                return True
            probes = [self.decay_from, self.decay_from + 1,
                      self.decay_from + 8]
            return all(abs(deriv.mu.at(n)) < self.tolerance + _VERDICT_SLACK
                       for n in probes)
        return True

    def to_dict(self) -> dict:
        return {
            "verdict": self.verdict,
            "tolerance": self.tolerance,
            "tail": tail_to_dict(self.tail),
            "decay_from": self.decay_from,
            "floor": self.floor,
            "cited_indices": list(self.cited_indices),
            "reason": self.reason,
        }


@dataclass
class WitnessReport:
    """Self-certifying record of a non-compactness witness.

    ``j`` are the chosen monomial exponents, ``l`` the paired probe
    exponents, ``chosen_indices`` the admissible indices N = j_k + l_k.
    ``gaps`` holds (i, k, value) with value =
    |D(t^{j_i})(t^{l_k}) - D(t^{j_k})(t^{l_k})| for i < k, every one of
    which exceeded epsilon/4 when the report was built; ``separation`` is
    their minimum, a certified lower bound on the pairwise distances
    between the functionals D(t^{j_i}).
    """

    epsilon: float
    growth_constant: float
    j: Tuple[int, ...]
    l: Tuple[int, ...]
    chosen_indices: Tuple[int, ...]
    diagonal: Tuple[float, ...]
    gaps: Tuple[Tuple[int, int, float], ...] = field(default_factory=tuple)
    separation: float = 0.0

    def recheck(self, deriv: Derivation) -> bool:
        """Re-evaluate every cited probe against its claimed inequality."""
        if list(self.j) != sorted(set(self.j)):
            return False
        for j_k, l_k, diag in zip(self.j, self.l, self.diagonal):
            value = abs(deriv.monomial_probe(j_k, l_k))
            if abs(value - diag) > _WITNESS_SLACK \
                    or not value > self.epsilon / 3:
                return False
        for i, k, gap in self.gaps:
            value = abs(deriv.monomial_probe(self.j[i], self.l[k])
                        - deriv.monomial_probe(self.j[k], self.l[k]))
            if abs(value - gap) > _WITNESS_SLACK \
                    or not value > self.epsilon / 4:
                return False
        return True

    def to_dict(self) -> dict:
        return {
            "epsilon": self.epsilon,
            "growth_constant": self.growth_constant,
            "j": list(self.j),
            "l": list(self.l),
            "chosen_indices": list(self.chosen_indices),
            "diagonal": list(self.diagonal),
            "gaps": [[i, k, g] for i, k, g in self.gaps],
            "separation": self.separation,
        }
