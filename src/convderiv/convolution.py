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
from typing import Callable, Optional, Tuple, Union

import numpy as np

# Hard cap on polynomial degree; desk-scale experiments are low-degree and a
# runaway convolution should fail loudly rather than allocate gigabytes.
DEGREE_CAP = 1 << 16

# Indices are exact int64 values; anything above this is refused.
INDEX_CAP = 1 << 62

# act_on_dual reads psi on at most this many indices n + k at once.
_ACTION_BLOCK = 1 << 16

# validate_tail reads this many indices at once: the algebra-ops norm jobs
# (depth 1e5-1e6) ran 8-14 % faster with 2^14 than with 2^16 on 2 vCPUs
# with numpy 2.4.6, their float64 blocks and the rules' temporaries being
# a quarter of the size
_READ_BLOCK = 1 << 14

# _distinct marks a grid's values when they span at most this many times
# its size, and sorts them otherwise
_SPAN_FACTOR = 4

# validate_tail's absolute slack on every certificate inequality
_TAIL_SLACK = 1e-9


class DegreeCapError(ValueError):
    """Support of a constructed element exceeds DEGREE_CAP."""


class UndeclaredTailError(RuntimeError):
    """An evaluation read past a table with no declared tail."""


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
    """A total closed-form rule, optionally with a certified asymptotic."""

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

    The product of ``convolve_with_radius``, which also returns its route
    and its error radius: 0 for Gaussian-integer products, which are exact.
    """
    return convolve_with_radius(a, b)[0]


def convolve_with_radius(a: L1Element, b: L1Element
                         ) -> Tuple[L1Element, float, str]:
    """The Cauchy product, a radius r with |computed_n - exact_n| <= r for
    every coefficient n, and the route that computed it.

    One size test picks the method for every input: a product with la lb
    >= 12 L (k + 2), L = 2^k >= la + lb - 1 (``_FFT_COST``: square inputs
    of length 384 to 512 and from 566 on), is an FFT (``_cyclic_product``),
    any other ``np.convolve``.  Exactness decides only how the result is
    rounded and which radius it reports.

    - ``"exact"``, r = 0: both inputs are Gaussian integers and 2 min(la,
      lb) max|a| max|b| < 2^53, max over real and imaginary parts.  A part
      of a product coefficient sums at most 2 min(la, lb) integer products
      of modulus at most max|a| max|b|, so every product and partial sum
      is an integer below 2^53 in any order of summation, fused
      multiply-add or split into lanes: ``np.convolve`` (on the real parts
      alone for real inputs) returns the exact integers.  An FFT is taken
      only when its radius (below) is under 1/2, so that ``rint`` returns
      the integers; + 0.0 turns -0.0 into +0.0, so both store the same
      bits, and identities over the integers hold exactly here too.
    - ``"fft"``: any other product above the cutoff, with r = 2 M beta
      ||a||_2 ||b||_2 from Percival's theorem (``_cyclic_product``): a
      normwise bound, the same for every coefficient.  An FFT whose output
      is not finite (an overflow, an inf or NaN input) is discarded for
      the direct route.
    - ``"direct"``: ``np.convolve``, with the bits it gives.  Each part of
      coefficient n is a sum of 2m products, m = min(la, lb), so it errs by
      at most gamma_3m sum_r |a_r||b_(n-r)| (see ``cli._cmd_conv``) barring
      underflow.  With gradual underflow a rounded product (or fused
      multiply-add) also errs by up to 2^-1075 absolutely, and a rounded
      sum does not; the 2m such errors of a part, carried through at most
      2m - 1 relative roundings, add at most 2m (1 + gamma_2m) 2^-1075 <=
      2m 2^-1074 to it, and sqrt(2) 2m <= 3m to the coefficient's modulus.
      By Cauchy-Schwarz, r = gamma_3m ||a||_2 ||b||_2 + 3m 2^-1074 bounds
      the error of every coefficient.  It is evaluated as ``_radius`` + (3m
      + 1) 2^-1074 >= r: the term is exact, ``_radius`` is at worst
      2^-1075 short of its bound when it is below 2^-1022, and the sum of
      two such doubles below 2^-1021 is exact; above, ``_radius`` exceeds
      its bound by a relative 2^-31, more than the sum's rounding can take
      back.  Integer inputs past the guard, such as (2^27+1)^2, are
      rounded with a radius like any float product.

    Each r is evaluated so that its own rounding cannot make it too small
    (``_radius``).  Like Higham's gamma_k, the FFT's rounding bound holds
    barring underflow: an intermediate below 2^-1022 rounds absolutely,
    not relatively, and only the direct route adds an absolute term for it.
    """
    ca, cb = a.coeffs, b.coeffs
    if ca.size == 0 or cb.size == 0:
        return zero(), 0.0, "exact"
    size = ca.size + cb.size - 1
    if size > DEGREE_CAP + 1:
        raise DegreeCapError(
            f"product degree {size - 1} exceeds cap {DEGREE_CAP}")
    k = (size - 1).bit_length()
    by_fft = ca.size * cb.size >= _FFT_COST * (k + 2) << k
    top_a, top_b = _largest_integer_part(ca), _largest_integer_part(cb)
    # below 2^53 the float product of these integers is exact, so the
    # comparison is too; an infinite part fails it
    if top_a is not None and top_b is not None \
            and 2 * min(ca.size, cb.size) * top_a * top_b < 2.0 ** 53:
        if by_fft and _radius(ca, cb, _fft_factor(size)) < 0.5:
            product = np.rint(_cyclic_product(ca, cb))
        elif ca.imag.any() or cb.imag.any():
            product = np.convolve(ca, cb)
        else:
            product = np.convolve(ca.real, cb.real)
        return L1Element(product + 0.0), 0.0, "exact"
    if by_fft:
        with np.errstate(over="ignore", invalid="ignore"):  # checked below
            product = _cyclic_product(ca, cb)
        if np.isfinite(product).all():
            return L1Element(product), \
                _radius(ca, cb, _fft_factor(size)), "fft"
    m = min(ca.size, cb.size)
    return L1Element(np.convolve(ca, cb)), \
        _radius(ca, cb, _gamma(3 * m)) + (3 * m + 1) * _TINY, "direct"


# pocketfft's twiddle factors are within a few units of 2^-53; the bound
# allows 2^7 of them
_TWIDDLE_ERROR = 2.0 ** -46

# An FFT product of length L = 2^k costs about as much as 12 L (k + 2)
# multiply-adds of np.convolve: measured on complex inputs with numpy 2.4.6
# on 2 CPUs, where square products break even near la = lb = 350 (0.08 ms)
# and a 256 x 16384 product still favours the direct sums (2.1 ms against
# 2.4 ms)
_FFT_COST = 12

_UNIT = 2.0 ** -53  # the unit roundoff of a double
_TINY = 2.0 ** -1074  # the smallest positive double


def _gamma(k: int) -> float:
    """Higham's gamma_k = k u / (1 - k u), u = 2^-53 (*Accuracy and
    Stability of Numerical Algorithms*, 2nd ed., §3.1), for k u < 1/2.

    k u is exact, and the subtraction and the division round once each, so
    the quotient is at least gamma_k (1 - 2u) / (1 + u); the factor
    1 + 2^-50 = 1 + 8u, rounded once more, lifts it back above gamma_k.
    """
    return k * _UNIT / (1.0 - k * _UNIT) * (1.0 + 2.0 ** -50)


def _fft_factor(size: int) -> float:
    """2 M beta, M = 9k + 1, for a product of ``size`` coefficients by FFT
    at length 2^k (see ``_cyclic_product``); exact as a double."""
    return 2 * (9 * (size - 1).bit_length() + 1) * _TWIDDLE_ERROR


def _norm(coeffs: np.ndarray) -> Tuple[float, int]:
    """(m, e) with ||coeffs||_2 = m 2^e within a relative 2^-34, and m in
    [1/2, 2^9] unless the norm is 0, inf or NaN (then e = 0).

    The parts are scaled by 2^-e, the power of two that brings the largest
    into [1/2, 1), so no square overflows and the sum is at least 1/4; the
    squares that underflow lose less than 2^-1050 of it.  The sum has at
    most 2 len <= 2^18 non-negative terms, each rounded once and carried
    through fewer than 2^18 additions, so it is within gamma_(2^18) <
    2^-35 of its value; the square root m halves that and rounds once.
    """
    parts = coeffs.view(np.float64)
    top = float(np.abs(parts).max())
    if not 0.0 < top < math.inf:
        return top, 0  # 0, inf or NaN
    scale = math.frexp(top)[1]
    scaled = np.ldexp(parts, -scale)
    return math.sqrt(float(scaled @ scaled)), scale


def _radius(ca: np.ndarray, cb: np.ndarray, factor: float) -> float:
    """An upper bound of factor ||a||_2 ||b||_2, for an exact factor or one
    already rounded up, if it is at least 2^-1022; below, at most 2^-1075
    short of it.  inf when a norm is not finite or the bound overflows.

    The two norms are m 2^e within 2^-34 each (``_norm``), and the three
    products of the factor, the two m and 1 + 2^-30 round once each, so
    their product is at least 2^-(e_a + e_b) times the bound times
    (1 - 2^-33)(1 - u)^3 (1 + 2^-30) > 1 + 2^-31.  None of these products
    underflows, and scaling back by 2^(e_a + e_b) is exact unless the
    result is below 2^-1022, where it rounds by at most 2^-1075.  (Scaled
    back first, a norm below 2^-1022 could lose most of its digits.)
    """
    (na, ea), (nb, eb) = _norm(ca), _norm(cb)
    try:
        radius = math.ldexp(factor * na * nb * (1.0 + 2.0 ** -30), ea + eb)
    except OverflowError:
        return math.inf
    return radius if radius <= math.inf else math.inf  # NaN: no bound


def _cyclic_product(ca: np.ndarray, cb: np.ndarray) -> np.ndarray:
    """ifft(fft(a) fft(b)) with both inputs zero-padded to the power of two
    L = 2^k >= la + lb - 1, where the cyclic convolution is the Cauchy
    product; its first la + lb - 1 coefficients.

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
    with M = 9k + 1 (``_fft_factor``), since M beta <= 1/2 for every k <=
    17 the degree cap allows.
    """
    size = ca.size + cb.size - 1
    length = 1 << (size - 1).bit_length()
    # numpy.fft is imported on first use, so importing convderiv stays cheap
    spectrum = np.fft.fft(ca, length)
    spectrum *= np.fft.fft(cb, length)
    return np.fft.ifft(spectrum)[:size]


def l1_norm(a: L1Element) -> float:
    """Sum of coefficient moduli."""
    return float(np.abs(a.coeffs).sum())


# ---------------------------------------------------------------------------
# functionals on the algebra
# ---------------------------------------------------------------------------

def _real_or_complex(values) -> np.ndarray:
    """A rule's values: a float64 array as it is, anything else as
    complex128."""
    if isinstance(values, np.ndarray) and values.dtype == np.float64:
        return values
    return np.asarray(values, dtype=complex)


def _per_index(scalar: Callable) -> Callable:
    """Array rule that calls a scalar rule once per index, as a Python int."""
    def rule(idx):
        values = (complex(scalar(i)) for i in idx.tolist())
        return np.fromiter(values, dtype=complex, count=idx.size)
    return rule


class DualSequence:
    """A functional presented by its values phi(t^n) on the monomial basis.

    ``rule`` maps an int64 index array to the array of values and must be
    deterministic; ``tail`` declares what is known beyond a finite probe.
    A ``vectorized=False`` rule maps one Python-int index to one value and
    is wrapped once in a per-index loop, so :meth:`bulk` is the only
    evaluation path and ``at(n)`` is ``bulk([n])[0]``.

    :meth:`bulk` returns complex128 values, which the paths that render
    them (``pair``, ``act_on_dual``, ``Derivation.apply``, the CLI's
    reports) need: a complex product can carry a -0.0 imaginary part.
    Only ``validate_tail``'s read keeps a float64 array that the rule
    returns as it is, and the two agree bit for bit: the modulus of a
    complex x + 0j is hypot(x, 0) = |x| exactly.
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

    def bulk(self, indices) -> np.ndarray:
        """Values at an array of indices, honouring a declared ZeroTail,
        as complex128 whatever the rule returns.

        The rule sees a one-dimensional, non-empty index array.
        """
        values = self._read(np.asarray(indices, dtype=np.int64))
        return values.astype(complex, copy=False)

    def _read(self, idx: np.ndarray) -> np.ndarray:
        """``bulk``'s values as the rule gives them when it returns a
        float64 array, and as complex128 otherwise."""
        if isinstance(self.tail, ZeroTail):
            live = idx < self.tail.start
            if not live.any():
                return np.zeros(idx.shape, dtype=complex)
            values = _real_or_complex(self._rule(idx[live]))
            out = np.zeros(idx.shape, dtype=values.dtype)
            out[live] = values
            return out
        if not idx.size:
            return np.zeros(idx.shape, dtype=complex)
        return _real_or_complex(self._rule(idx.ravel())).reshape(idx.shape)

    def values(self, upto: int) -> np.ndarray:
        """Array of values at indices 0..upto inclusive."""
        if upto < 0:
            return np.zeros(0, dtype=complex)
        return self.bulk(np.arange(upto + 1))

    def __repr__(self):
        return f"DualSequence(tail={self.tail!r})"


def validate_tail(seq: DualSequence, upto: int,
                  first_index: int = 0) -> float:
    """max |value| over first_index..upto, checking a declared tail there.

    The one pass that reads a sequence over a range: each index is
    evaluated once, in blocks of ``_READ_BLOCK`` indices, so the work
    space is one block at any depth.  A rule that returns float64 is read
    as it is, and any other as complex128: hypot(x, +-0) = |x|, so the
    moduli, the maximum and every comparison have the bits of the complex
    read, and a constant's message writes the value as a Python complex
    either way.  An empty range gives 0.0, and a NaN wins, as in
    ``np.max``.  Only a closed form's certificate is checked
    (ZeroTail values are zero by construction, tables are checked when
    built); CertificateViolationError cites the first violation once every
    value is evaluated.  This cannot prove a declaration, only catch it
    lying within the probe.
    """
    cert = getattr(seq.tail, "certificate", None)
    # a decay step is checked at its upper index, so from start + 1 on
    first = upto + 1 if cert is None else \
        max(cert.start, first_index) + isinstance(cert, Decay)
    top, before, violation = np.float64(0.0), np.zeros(0), None
    for lo in range(first_index, upto + 1, _READ_BLOCK):
        hi = min(lo + _READ_BLOCK, upto + 1)
        vals = seq._read(np.arange(lo, hi))
        mags = np.abs(vals)
        top = np.maximum(top, mags.max())
        if violation is None and hi > first:
            violation = _violation(cert, vals, mags, before, lo,
                                   max(lo, first))
        before = mags[-1:]
    if violation is not None:
        raise CertificateViolationError(violation)
    return float(top)


def _violation(cert: Certificate, vals: np.ndarray, mags: np.ndarray,
               before: np.ndarray, base: int, lo: int) -> Optional[str]:
    """The first violation of ``cert`` from index lo to the end of the
    block ``vals`` (moduli ``mags``) that starts at index ``base``, or None.
    ``before`` is the modulus at base - 1 when read: a decay step needs it."""
    if isinstance(cert, Constant):
        scale = max(1.0, abs(cert.value))
        bad = np.abs(vals[lo - base:] - cert.value) > _TAIL_SLACK * scale
    elif isinstance(cert, Decay):
        # steps[j] is the modulus at index lo - 1 + j
        steps = np.concatenate((before, mags))[lo - base + before.size - 1:]
        ratio = 1.0 if cert.ratio is None else cert.ratio
        # built in place: one temporary the size of the block, not two
        envelope = np.multiply(steps[:-1], ratio)
        envelope += _TAIL_SLACK
        bad = steps[1:] > envelope
    else:
        bad = mags[lo - base:] < cert.bound - _TAIL_SLACK
    if not bad.any():
        return None
    n = lo + int(bad.argmax())
    if isinstance(cert, Decay):
        return (f"declared decay from {cert.start} but |value| rises "
                f"from {steps[n - lo]:.6e} to {steps[n - lo + 1]:.6e} "
                f"at index {n}")
    if isinstance(cert, Constant):
        return (f"declared constant {cert.value} from {cert.start} but "
                f"value at {n} is {complex(vals[n - base])}")
    return (f"declared |value| >= {cert.bound} from {cert.start} but "
            f"|value| at {n} is {mags[n - base]:.6e}")


# ---------------------------------------------------------------------------
# pairing and module actions
# ---------------------------------------------------------------------------

def pair(phi: DualSequence, a: L1Element) -> complex:
    """Apply the functional to an element: sum_n phi(t^n) a_n."""
    if a.coeffs.size == 0:
        return 0j
    vals = phi.values(a.degree)
    return complex(np.dot(vals, a.coeffs))


def _distinct(grid: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """(wanted, where): the distinct values of an int64 grid in increasing
    order, and the position of each grid value among them, so that
    wanted[where] == grid; what ``np.unique(grid, return_inverse=True)``
    gives, reshaped to the grid.

    A grid whose values span at most ``_SPAN_FACTOR`` times its size marks
    them in a boolean array over that span, in time linear in both, instead
    of sorting them; an empty or a wider grid is sorted.
    """
    if grid.size:
        low = int(grid.min())
        span = int(grid.max()) - low + 1
        if span <= _SPAN_FACTOR * grid.size:
            offsets = grid - low
            marked = np.zeros(span, dtype=bool)
            marked[offsets] = True
            rank = np.cumsum(marked) - 1
            return np.flatnonzero(marked) + low, rank[offsets]
    wanted, where = np.unique(grid, return_inverse=True)
    return wanted, where.reshape(grid.shape)


def act_on_dual(a: L1Element, psi: DualSequence) -> DualSequence:
    """Module action of the algebra on a functional: (a.psi)(x) = psi(x a).

    On monomials this is the weighted shift
    (a.psi)(t^n) = sum_k a_k psi(t^{n+k}); the algebra is commutative so the
    left and right actions coincide.

    The indices n are taken in blocks of rows, at most ``_ACTION_BLOCK``
    pairs (k, n) each.  psi is read once per distinct index n + k of a
    block (``_distinct``), and the terms are summed in the order of k from
    +0, as a loop that adds a_k psi(t^{n+k}) to zeros would: numpy reduces
    a C-ordered (k, n) array over its first axis by adding row k to the
    running sums after row k - 1, so signed zeros, infinities and NaNs
    come out as that loop gives them.  A single column would be summed
    pairwise instead, so it is accumulated.
    """
    ks = a.support
    coef = a.coeffs[ks][:, None]
    rows = max(1, _ACTION_BLOCK // max(1, ks.size))

    def rule(n):
        out = np.empty(n.shape, dtype=complex)
        for lo in range(0, n.size, rows):
            grid = ks[:, None] + n[None, lo:lo + rows]
            wanted, where = _distinct(grid)
            terms = coef * psi.bulk(wanted)[where]
            if terms.shape[1] > 1:
                np.sum(terms, axis=0, initial=0j, out=out[lo:lo + rows])
            else:  # one column: np.sum would add it pairwise
                terms[0] += 0j
                out[lo] = np.add.accumulate(terms[:, 0])[-1]
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

