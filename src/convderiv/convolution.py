"""Arithmetic in the unital convolution algebra of one-sided sequences.

Elements are finitely supported coefficient sequences (polynomials in the
shift t) multiplied by Cauchy product and measured in the l1 norm.
Functionals are represented by their values on the monomial basis together
with an explicit *tail declaration*: what, if anything, is known about the
values beyond a finite probe.  Operations that would need tail knowledge
refuse to guess when none is declared.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, replace
from typing import Callable, Optional, Union

import numpy as np

# Hard cap on polynomial degree; desk-scale experiments are low-degree and a
# runaway convolution should fail loudly rather than allocate gigabytes.
DEGREE_CAP = 1 << 16

# Indices are exact int64 values; anything above this is refused.
INDEX_CAP = 1 << 62

# act_on_dual reads psi on at most this many indices n + k at once.
_ACTION_BLOCK = 1 << 16


class DegreeCapError(ValueError):
    """Support of a constructed element exceeds DEGREE_CAP."""


class UndeclaredTailError(RuntimeError):
    """An evaluation depended on values beyond a table with no declared tail."""


class CertificateViolationError(RuntimeError):
    """Probed values contradict a declared tail certificate."""


# ---------------------------------------------------------------------------
# tail declarations and asymptotic certificates
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Decay:
    """|rule(n)| is non-increasing for n >= start with limit zero.

    When ``ratio`` is set the decrease is geometric:
    |rule(n+1)| <= ratio * |rule(n)| for all n >= start, with ratio < 1.
    """

    start: int = 0
    ratio: Optional[float] = None

    def __post_init__(self):
        if self.ratio is not None and not (0.0 <= self.ratio < 1.0):
            raise ValueError("geometric ratio must lie in [0, 1)")


@dataclass(frozen=True)
class Constant:
    """rule(n) == value exactly for every n >= start."""

    value: complex
    start: int = 0


@dataclass(frozen=True)
class Floor:
    """|rule(n)| >= bound > 0 for every n >= start."""

    bound: float
    start: int = 0

    def __post_init__(self):
        if not self.bound > 0.0:
            raise ValueError("floor bound must be positive")


Certificate = Union[Decay, Constant, Floor]


@dataclass(frozen=True)
class ZeroTail:
    """Values vanish identically from index ``start`` on."""

    start: int

    def __post_init__(self):
        if self.start < 0:
            raise ValueError(f"a zero tail starts at an index >= 0 "
                             f"(got {self.start})")


@dataclass(frozen=True)
class ClosedForm:
    """The rule is a total closed form, optionally with a certified asymptotic."""

    certificate: Optional[Certificate] = None


@dataclass(frozen=True)
class Undeclared:
    """Nothing is known beyond explicitly evaluated indices."""


Tail = Union[ZeroTail, ClosedForm, Undeclared]
UNDECLARED = Undeclared()


def tail_to_dict(tail: Tail) -> dict:
    """JSON-ready description of a tail declaration."""
    if isinstance(tail, ZeroTail):
        return {"kind": "zero", "start": tail.start}
    if isinstance(tail, Undeclared):
        return {"kind": "undeclared"}
    out = {"kind": "closed_form"}
    cert = tail.certificate
    if cert is not None:
        out.update(asdict(cert), certificate=type(cert).__name__.lower())
        if isinstance(cert, Constant):
            out["value"] = [cert.value.real, cert.value.imag]
    return out


def shift_tail(tail: Tail, k: int) -> Tail:
    """Tail of n -> psi(n + k): what held from index s holds from s - k."""
    if isinstance(tail, ZeroTail):
        return ZeroTail(max(0, tail.start - k))
    cert = getattr(tail, "certificate", None)
    if cert is None:
        return tail
    return ClosedForm(replace(cert, start=max(0, cert.start - k)))


def index_scaled_tail(tail: Tail, power: int) -> Optional[Tail]:
    """Tail of n -> n**power * psi(n) for power +1 or -1.

    None means the scaled sequence is unbounded: a non-zero constant or a
    floor times n.  Index 0 is left out of every scaled certificate.
    """
    cert = getattr(tail, "certificate", None)
    if cert is None:
        return tail
    if isinstance(cert, Constant) and cert.value == 0:
        return ZeroTail(cert.start)
    if isinstance(cert, Decay):
        if power < 0:
            # |psi(n+1)|/(n+1) <= ratio |psi(n)|/n: the same envelope
            return ClosedForm(replace(cert, start=max(cert.start, 1)))
        if cert.ratio is None:
            return ClosedForm()
        # |(n+1) psi(n+1)| <= ((n+1)/n) ratio |n psi(n)|, and the factor is
        # <= 1 once n >= ratio/(1-ratio); the geometric envelope forces -> 0
        return ClosedForm(Decay(max(
            cert.start, math.ceil(cert.ratio / (1 - cert.ratio)), 1)))
    if power > 0:
        return None
    if isinstance(cert, Constant):
        # a constant divided by n decreases monotonically to zero
        return ClosedForm(Decay(max(cert.start, 1)))
    return ClosedForm()


# ---------------------------------------------------------------------------
# algebra elements
# ---------------------------------------------------------------------------

class L1Element:
    """Finitely supported coefficient sequence a_0 + a_1 t + a_2 t^2 + ...

    Trailing zeros are trimmed on construction; two elements are equal iff
    their trimmed coefficient arrays agree exactly.  Values are immutable.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        arr = np.atleast_1d(np.asarray(coeffs, dtype=complex)).ravel()
        nz = np.flatnonzero(arr)
        arr = arr[: nz[-1] + 1].copy() if nz.size else arr[:0].copy()
        if arr.size > DEGREE_CAP + 1:
            raise DegreeCapError(
                f"degree {arr.size - 1} exceeds cap {DEGREE_CAP}")
        arr.setflags(write=False)
        object.__setattr__(self, "coeffs", arr)

    def __setattr__(self, name, value):
        raise AttributeError("L1Element is immutable")

    @property
    def degree(self) -> int:
        """Degree of the trimmed polynomial; -1 for the zero element."""
        return self.coeffs.size - 1

    @property
    def support(self) -> np.ndarray:
        return np.flatnonzero(self.coeffs)

    def __eq__(self, other):
        if not isinstance(other, L1Element):
            return NotImplemented
        return self.coeffs.shape == other.coeffs.shape and bool(
            np.array_equal(self.coeffs, other.coeffs))

    def __hash__(self):
        # -0.0 == 0.0, so signed zeros are normalised before hashing
        return hash((self.coeffs + 0.0).tobytes())

    def __add__(self, other):
        a, b = self.coeffs, other.coeffs
        n = max(a.size, b.size)
        out = np.zeros(n, dtype=complex)
        out[: a.size] += a
        out[: b.size] += b
        return L1Element(out)

    def __sub__(self, other):
        return self + L1Element(-other.coeffs)

    def __mul__(self, other):
        if isinstance(other, L1Element):
            return convolve(self, other)
        return L1Element(self.coeffs * complex(other))

    __rmul__ = __mul__

    def __repr__(self):
        return f"L1Element({[complex(c) for c in self.coeffs]})"


def monomial(k: int, coeff: complex = 1.0) -> L1Element:
    """coeff * t^k."""
    if k < 0:
        raise ValueError("monomial exponent must be non-negative")
    out = np.zeros(k + 1, dtype=complex)
    out[k] = coeff
    return L1Element(out)


def one() -> L1Element:
    """The multiplicative identity (the point mass at index 0)."""
    return L1Element([1.0])


def zero() -> L1Element:
    return L1Element([])


def _largest_integer_part(arr: np.ndarray) -> Optional[float]:
    """max |part| over the real and imaginary parts when every part is an
    integer, else None; read from the floats, before any cast."""
    re, im = arr.real, arr.imag
    if np.all(re == np.rint(re)) and np.all(im == np.rint(im)):
        return float(max(np.abs(re).max(), np.abs(im).max()))
    return None


def convolve(a: L1Element, b: L1Element) -> L1Element:
    """Cauchy product: coefficient n of the result is sum_r a_r b_{n-r}.

    When both inputs are Gaussian integers and every coefficient of the
    product is provably below 2^53 in modulus (2 min(len) max|a| max|b|
    < 2^53, with max over real and imaginary parts), the product is
    computed exactly and stored exactly, so identities that hold over the
    integers hold exactly here too: by FFT when the bound in
    ``_fft_product`` proves its rounding harmless, else by direct int64
    sums.  Both give the same bits.  Larger integer inputs, such as
    (2^27+1)^2, take the float path, a direct ``np.convolve``, and are
    rounded like any other float product.
    """
    ca, cb = a.coeffs, b.coeffs
    if ca.size == 0 or cb.size == 0:
        return zero()
    if ca.size + cb.size - 1 > DEGREE_CAP + 1:
        raise DegreeCapError(
            f"product degree {ca.size + cb.size - 2} exceeds cap {DEGREE_CAP}")
    top_a, top_b = _largest_integer_part(ca), _largest_integer_part(cb)
    # below 2^53 the float product of these integers is exact, so the
    # comparison is too; an infinite part fails it
    if top_a is not None and top_b is not None \
            and 2 * min(ca.size, cb.size) * top_a * top_b < 2.0 ** 53:
        product = _fft_product(ca, cb)
        return L1Element(_direct_product(ca, cb) if product is None
                         else product)
    return L1Element(np.convolve(ca, cb))


# pocketfft's twiddle factors are within a few units of 2^-53; the bound
# allows 2^7 of them
_TWIDDLE_ERROR = 2.0 ** -46


def _fft_product(ca: np.ndarray, cb: np.ndarray) -> Optional[np.ndarray]:
    """The Gaussian-integer product by FFT, or None when not proven exact.

    The caller's guard makes every part of every product coefficient an
    integer below 2^53 in modulus.  With L = 2^k >= la + lb - 1, the cyclic
    convolution of the inputs zero-padded to length L is their Cauchy
    product, computed as ifft(fft(a) fft(b)).

    Percival's theorem (Math. Comp. 72 (2003); Brent & Zimmermann, *Modern
    Computer Arithmetic*, Thm 3.3.2) bounds the error of every computed
    coefficient by ||a||_2 ||b||_2 ((1+u)^{3k} (1+sqrt(5) u)^{3k+1}
    (1+beta)^{3k} - 1), with u = 2^-53 and beta a bound on the error of
    each precomputed twiddle factor.  Its model is the radix-2 FFT: k
    butterfly levels per transform, each rounding one complex addition and
    at most one multiplication by a twiddle, and one rounded complex
    product per frequency.  numpy's pocketfft runs a power-of-two length as
    radix-8, radix-4 and radix-2 passes; a radix-2^r pass is r such levels
    whose inner twiddles are +-1, +-i (exact) or (+-1 +- i)/sqrt(2) (a
    rounded constant), and its 1/L scaling is exact.  That correspondence
    is argued, not proven, and beta = 2^-46 (``_TWIDDLE_ERROR``), 2^7 units
    of u where pocketfft's twiddles are within a few, is the margin for it.

    As beta >= sqrt(5) u, the factor is at most (1+beta)^M - 1 <= 2 M beta
    with M = 9k + 1, since M beta <= 1/2 for every k <= 17 the degree cap
    allows.  The error is therefore below 1/2 when s_a s_b (M beta)^2 <
    1/16, s = ||.||_2^2.  Each s is a float sum of 2 len squared parts;
    every term goes through at most 2 len <= 2^18 roundings of non-negative
    numbers, so the computed sum is at least s (1 - 2^-35).  (M beta)^2 is
    exact, and the check below rounds twice more, so a computed value
    below 1/32 proves s_a s_b (M beta)^2 < 1/32 / (1 - 2^-33) < 1/16.
    Then each part of each computed coefficient lies within 1/2 of its
    integer, ``rint`` returns that integer exactly, and + 0.0 turns the
    -0.0 that ``rint`` gives for small negative errors into the +0.0 of
    the direct int64 sums.
    """
    size = ca.size + cb.size - 1
    k = (size - 1).bit_length()
    m = 9 * k + 1
    va, vb = ca.view(np.float64), cb.view(np.float64)
    if not float(va @ va) * float(vb @ vb) * (m * m * _TWIDDLE_ERROR ** 2) \
            < 1 / 32:
        return None
    length = 1 << k
    # numpy.fft is imported on first use, so importing convderiv stays cheap
    spectrum = np.fft.fft(ca, length) * np.fft.fft(cb, length)
    return np.rint(np.fft.ifft(spectrum)[:size]) + 0.0


def _direct_product(ca: np.ndarray, cb: np.ndarray) -> np.ndarray:
    """The Gaussian-integer product by int64 sums; a part that is zero
    throughout is skipped, so real inputs cost one convolution, not four."""
    ar, ai = ca.real.astype(np.int64), ca.imag.astype(np.int64)
    br, bi = cb.real.astype(np.int64), cb.imag.astype(np.int64)
    re = np.zeros(ca.size + cb.size - 1, dtype=np.int64)
    im = np.zeros_like(re)
    for x, y, out, sign in ((ar, br, re, 1), (ai, bi, re, -1),
                            (ar, bi, im, 1), (ai, br, im, 1)):
        if x.any() and y.any():
            out += sign * np.convolve(x, y)
    return re + 1j * im


def l1_norm(a: L1Element) -> float:
    """Sum of coefficient moduli."""
    return float(np.abs(a.coeffs).sum())


# ---------------------------------------------------------------------------
# functionals on the algebra
# ---------------------------------------------------------------------------

def _per_index(scalar: Callable) -> Callable:
    """Array rule that calls a scalar rule once per index, as a Python int."""
    def rule(idx):
        values = (complex(scalar(i)) for i in idx.tolist())
        return np.fromiter(values, dtype=complex, count=idx.size)
    return rule


class DualSequence:
    """A functional presented by its values phi(t^n) on the monomial basis.

    ``rule`` maps an int64 index array to the array of complex values and
    must be deterministic; ``tail`` declares what is known beyond a finite
    probe.  A ``vectorized=False`` rule maps one Python-int index to one
    value and is wrapped once in a per-index loop, so :meth:`bulk` is the
    only evaluation path and ``at(n)`` is ``bulk([n])[0]``.
    """

    def __init__(self, rule: Callable, tail: Tail = UNDECLARED,
                 vectorized: bool = False):
        self._rule = rule if vectorized else _per_index(rule)
        self.tail = tail

    @classmethod
    def from_values(cls, values, tail: Tail = UNDECLARED) -> "DualSequence":
        """Finite table of values.

        The tail must be ZeroTail or Undeclared: a table is not a closed
        form.  Reading past an undeclared table raises UndeclaredTailError
        instead of fabricating zeros.
        """
        if isinstance(tail, ClosedForm):
            raise ValueError("a finite table cannot declare a closed form")
        table = np.asarray(values, dtype=complex).ravel()
        if isinstance(tail, ZeroTail):
            if tail.start > table.size:
                raise ValueError(
                    "ZeroTail start lies beyond the table; those values "
                    "would be undefined")
            if np.any(table[tail.start:] != 0):
                raise ValueError("table is non-zero beyond the declared "
                                 "ZeroTail start")

        def rule(n):
            if np.any(n >= table.size):
                raise UndeclaredTailError(
                    f"index {int(np.max(n))} is beyond the table "
                    f"(length {table.size}) and the tail is undeclared")
            return table[n]

        return cls(rule, tail=tail, vectorized=True)

    @classmethod
    def constant(cls, value: complex) -> "DualSequence":
        value = complex(value)
        tail = ClosedForm(Constant(value)) if value != 0 else ZeroTail(0)
        return cls(lambda n: np.full(n.shape, value, dtype=complex),
                   tail=tail, vectorized=True)

    def at(self, n) -> complex:
        """Value at a single index 0 <= n <= INDEX_CAP: a one-element bulk."""
        n = int(n)
        if not 0 <= n <= INDEX_CAP:
            raise ValueError(f"index {n} lies outside 0..INDEX_CAP")
        return complex(self.bulk([n])[0])

    __call__ = at

    def bulk(self, indices) -> np.ndarray:
        """Values at an array of indices, honouring a declared ZeroTail.

        The rule sees a one-dimensional, non-empty index array.
        """
        idx = np.asarray(indices, dtype=np.int64)
        if isinstance(self.tail, ZeroTail):
            out = np.zeros(idx.shape, dtype=complex)
            live = idx < self.tail.start
            if live.any():
                out[live] = self._rule(idx[live])
            return out
        if not idx.size:
            return np.zeros(idx.shape, dtype=complex)
        values = self._rule(idx.ravel())
        return np.asarray(values, dtype=complex).reshape(idx.shape)

    def values(self, upto: int) -> np.ndarray:
        """Array of values at indices 0..upto inclusive."""
        if upto < 0:
            return np.zeros(0, dtype=complex)
        return self.bulk(np.arange(upto + 1))

    def __repr__(self):
        return f"DualSequence(tail={self.tail!r})"


def validate_tail(seq: DualSequence, upto: int, first_index: int = 0,
                  atol: float = 1e-9) -> Optional[np.ndarray]:
    """Check a declared tail against every probed value up to ``upto``.

    Returns the values at 0..upto that were checked, so a caller needs not
    evaluate them again, or None when the tail carries no certificate to
    check.  Raises CertificateViolationError on contradiction, citing the
    first violation, once every value is evaluated.  This cannot prove a
    declaration, only catch it lying within the probe.

    Values are evaluated and checked in blocks of ``_ACTION_BLOCK``
    indices into one array, so the work space beside it stays the size of
    a block at any depth.
    """
    tail = seq.tail
    if not isinstance(tail, ClosedForm) or tail.certificate is None:
        # ZeroTail values are zero by construction and tables are checked
        # against their declaration at build time; nothing to probe here.
        return None
    cert = tail.certificate
    # a decay step is checked at its upper index, so from start + 1 on
    first = max(cert.start, first_index) + isinstance(cert, Decay)
    vals = np.empty(max(upto + 1, 0), dtype=complex)
    violation = None
    for lo in range(0, upto + 1, _ACTION_BLOCK):
        hi = min(lo + _ACTION_BLOCK, upto + 1)
        vals[lo:hi] = seq.bulk(np.arange(lo, hi))
        if violation is None and hi > first:
            violation = _violation(cert, vals, max(lo, first), hi, atol)
    if violation is not None:
        raise CertificateViolationError(violation)
    return vals


def _violation(cert: Certificate, vals: np.ndarray, lo: int, hi: int,
               atol: float) -> Optional[str]:
    """The first violation of ``cert`` at an index in lo..hi-1, or None.
    A decay step up to index n reads vals[n - 1] too, so lo >= 1 there."""
    if isinstance(cert, Constant):
        scale = max(1.0, abs(cert.value))
        bad = np.abs(vals[lo:hi] - cert.value) > atol * scale
    elif isinstance(cert, Decay):
        mags = np.abs(vals[lo - 1:hi])
        ratio = 1.0 if cert.ratio is None else cert.ratio
        # built in place: one temporary the size of the block, not two
        envelope = np.multiply(mags[:-1], ratio)
        envelope += atol
        bad = mags[1:] > envelope
    else:
        bad = np.abs(vals[lo:hi]) < cert.bound - atol
    if not bad.any():
        return None
    n = lo + int(bad.argmax())
    if isinstance(cert, Decay):
        return (f"declared decay from {cert.start} but |value| rises "
                f"from {abs(vals[n - 1]):.6e} to {abs(vals[n]):.6e} "
                f"at index {n}")
    if isinstance(cert, Constant):
        return (f"declared constant {cert.value} from {cert.start} but "
                f"value at {n} is {vals[n]}")
    return (f"declared |value| >= {cert.bound} from {cert.start} but "
            f"|value| at {n} is {abs(vals[n]):.6e}")


# ---------------------------------------------------------------------------
# pairing and module actions
# ---------------------------------------------------------------------------

def pair(phi: DualSequence, a: L1Element) -> complex:
    """Apply the functional to an element: sum_n phi(t^n) a_n."""
    if a.coeffs.size == 0:
        return 0j
    vals = phi.values(a.degree)
    return complex(np.dot(vals, a.coeffs))


def act_on_dual(a: L1Element, psi: DualSequence) -> DualSequence:
    """Module action of the algebra on a functional: (a.psi)(x) = psi(x a).

    On monomials this is the weighted shift
    (a.psi)(t^n) = sum_k a_k psi(t^{n+k}); the algebra is commutative so the
    left and right actions coincide.
    """
    ks = a.support
    coef = a.coeffs[ks]
    rows = max(1, _ACTION_BLOCK // max(1, ks.size))

    def rule(n):
        # psi is read once per distinct index n + k of a block of rows, and
        # the terms are summed in the order of k
        out = np.zeros(n.shape, dtype=complex)
        for lo in range(0, n.size, rows):
            grid = ks[:, None] + n[None, lo:lo + rows]
            wanted, where = np.unique(grid, return_inverse=True)
            values = psi.bulk(wanted)[where].reshape(grid.shape)
            block = out[lo:lo + rows]
            for c, row in zip(coef, values):
                block += c * row
        return out

    # every n + k reaches a start s once n >= s - min k
    tail = shift_tail(psi.tail, int(ks[0])) if ks.size else ZeroTail(0)
    cert = getattr(tail, "certificate", None)
    if isinstance(cert, Constant):
        total = complex(np.sum(coef)) * cert.value
        tail = ClosedForm(replace(cert, value=total)) if total != 0 \
            else ZeroTail(cert.start)
    elif cert is not None:
        tail = ClosedForm()
    return DualSequence(rule, tail=tail, vectorized=True)


def sup_norm_probe(phi: DualSequence, upto: int) -> float:
    """max |phi(t^n)| over 0 <= n <= upto.

    Always a lower bound for the sup norm; exact when the tail is
    ZeroTail(M) with M <= upto + 1.
    """
    if upto < 0:
        raise ValueError("probe depth must be non-negative")
    return float(np.abs(phi.values(upto)).max(initial=0.0))
