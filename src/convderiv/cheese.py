"""A swiss-cheese set whose derivative-restriction derivation is bounded
but not compact, built and certified.

The set is the closed unit disc minus a family of small open discs, one
above each dyadic subinterval of [0, 1/2]: disc n sits above the midpoint
x_n of I_n = [1/2 - 2^-n, 1/2 - 2^-(n+1)), at height y_n = 2^-m(n),
m(n) = floor(3n/2) + 3, with radius r_n = y_n^2.  Two facts about its term
T_n(t) = r_n / (|t - a_n| - r_n)^2 on the real line are proven per disc in
integer arithmetic (``_term_check``):

  * T_n < 2 everywhere, its largest value being r_n / (y_n - r_n)^2, and
  * T_n(t) < 2^-(n+1) at every t in [0, 1/2] outside I_n.

2^-m(n) is the largest power of two that passes both (``build_cheese``).
With the unit-disc term (at most 4 on the interval) and the one landing
term (below 2) they keep the derivative bound sum below 13/2, and they
force |f_n'(x_m)| into the unit diagonal pattern that defeats compactness.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from functools import cached_property
from typing import ClassVar, Optional, Sequence, Tuple

import numpy as np

INTERVAL = (0.0, 0.5)


class ConstructionFailedError(RuntimeError):
    """A level's disc fails its landing or per-term check."""

    def __init__(self, n: int):
        super().__init__(f"no admissible height for disc {n}")
        self.n = n


class OnBoundaryError(ValueError):
    """The bound sum is undefined where some distance vanishes."""


@dataclass(frozen=True)
class Disc:
    """Open disc; for constructed cheeses radius == center.imag ** 2."""

    center: complex
    radius: float

    def __post_init__(self):
        if not self.radius > 0:
            raise ValueError("disc radius must be positive")


@dataclass(frozen=True)
class GeometryMargins:
    """Strict positive margins certifying the three set invariants."""

    containment: float   # min over n of 1 - (|a_n| + r_n)
    disjointness: float  # min over pairs of |a_i - a_j| - (r_i + r_j)
    interval_gap: float  # min over n of y_n - r_n

    @property
    def all_positive(self) -> bool:
        return min(self.containment, self.disjointness,
                   self.interval_gap) > 0.0


# Points per pass of ``CheeseSet.bound_sum_grid``
_CHUNK = 4096


class CheeseSet:
    """The closed unit disc minus the constructed discs, with certificates.

    Discs are indexed from 1 as in the construction; ``disc(n)`` fetches
    them.  Geometry invariants are certified at construction time and the
    margins kept on the instance.
    """

    def __init__(self, discs: Sequence[Disc]):
        self.discs = tuple(discs)
        self.n_max = len(self.discs)
        self.r0 = 1.0
        # one column per disc, for sweeps over rows of points
        self._centers = np.array([d.center for d in self.discs],
                                 dtype=complex)[:, None]
        self._radii = np.array([d.radius for d in self.discs],
                               dtype=float)[:, None]
        self.margins = self._certify()

    def _certify(self) -> GeometryMargins:
        centers, radii = self._centers[:, 0], self._radii[:, 0]
        if centers.size == 0:
            return GeometryMargins(1.0, 1.0, 1.0)
        containment = float((1.0 - (np.abs(centers) + radii)).min())
        if self.n_max > 1:
            gaps = np.abs(centers[:, None] - centers[None, :]) \
                - (radii[:, None] + radii[None, :])
            disjointness = float(gaps[~np.eye(self.n_max, dtype=bool)].min())
        else:
            disjointness = 1.0
        # every centre's real part lies inside the interval, so the distance
        # from centre to interval is exactly the height
        interval_gap = float((centers.imag - radii).min())
        margins = GeometryMargins(containment, disjointness, interval_gap)
        if not margins.all_positive:
            raise ValueError(f"geometry invariants violated: {margins}")
        return margins

    @cached_property
    def _term_checks(self) -> Tuple[Tuple[bool, float], ...]:
        """``_term_check`` of each disc, computed once."""
        return tuple(_term_check(n, d) for n, d in enumerate(self.discs, 1))

    def disc(self, n: int) -> Disc:
        if not 1 <= n <= self.n_max:
            raise IndexError(f"disc index {n} outside 1..{self.n_max}")
        return self.discs[n - 1]

    def bound_sum_grid(self, xs) -> Tuple[np.ndarray, np.ndarray]:
        """(value, certified_lt): the derivative bound sum at each of an
        array of real or complex points z.

        value = sum_{j=0..n_max} r_j / s_j(z)^2, where s_0(z) = 1 - |z| and
        s_j(z) = |z - a_j| - r_j is the distance from z to removed disc j.
        certified_lt adds the dyadic tail allowance 2^-(n_max+1), which
        covers every admissible extension of the disc family at points
        outside the extensions' landing intervals.  A point on or outside
        the unit circle, or on or inside a removed disc, raises
        OnBoundaryError.
        """
        xs = np.asarray(xs)
        s0 = 1.0 - np.abs(xs)
        if np.any(s0 <= 0.0):
            raise OnBoundaryError("a point is not interior to the unit disc")
        total = self.r0 / s0 ** 2
        points, flat = xs.reshape(-1), total.reshape(-1)
        # every disc at once over chunks of points, in two buffers reused
        # by every chunk; each term is added to the total in disc order
        step = max(1, min(points.size, _CHUNK))
        diff = np.empty((self.n_max, step), dtype=complex)
        s = np.empty((self.n_max, step))
        touching = np.zeros(self.n_max, dtype=bool)
        for start in range(0, points.size, step):
            chunk = points[start:start + step]
            d, t = diff[:, :len(chunk)], s[:, :len(chunk)]
            np.abs(np.subtract(chunk, self._centers, out=d), out=t)
            t -= self._radii
            touching |= (t <= 0.0).any(1)
            if not touching.any():
                np.divide(self._radii, np.square(t, out=t), out=t)
                for term in t:
                    flat[start:start + step] += term
        if touching.any():
            raise OnBoundaryError(
                f"a point touches removed disc {touching.argmax() + 1}")
        return total, total + 2.0 ** -(self.n_max + 1)

    def to_dict(self) -> dict:
        return {"n_max": self.n_max,
                "discs": [{"x": d.center.real, "y": d.center.imag,
                           "r": d.radius} for d in self.discs]}

    @classmethod
    def from_dict(cls, payload: dict) -> "CheeseSet":
        discs = [Disc(complex(item["x"], item["y"]), float(item["r"]))
                 for item in payload["discs"]]
        if len(discs) != int(payload["n_max"]):
            raise ValueError("disc count disagrees with n_max")
        return cls(discs)

    def __repr__(self):
        return f"CheeseSet(n_max={self.n_max})"


def landing_interval(n: int) -> Tuple[float, float]:
    """The dyadic subinterval [1/2 - 2^-n, 1/2 - 2^-(n+1)) under disc n."""
    return 0.5 - 2.0 ** -n, 0.5 - 2.0 ** -(n + 1)


def midpoint(n: int) -> float:
    lo, hi = landing_interval(n)
    return 0.5 * (lo + hi)


_GUARD = 64  # bits of the floor of s * 2^(K+G) in ``_term_check``


def _term_check(n: int, disc: Disc) -> Tuple[bool, float]:
    """(landing, margin) for disc n, proven in integer arithmetic.

    The disc's term T(t) = r/(|t - a| - r)^2, a = x + iy, falls as |t - x|
    grows where |t - a| > r.  landing: its largest value on the real line,
    r/(|y| - r)^2 with |y| > r, is below 2.  margin: a lower bound on
    c - sup T over the real t off I_n = [lo, hi), c = 2^-(n+1), as a
    double.  Those t come nearest x at d = max(0, min(x - lo, hi - x)), so
    with s = sqrt(d^2 + y^2) the supremum is r(s + r)^2/(s^2 - r^2)^2, and
    margin is -inf where s <= r, as T is unbounded there.

    x, y, r, lo and hi are integers over a common 2^K, so s^2 - r^2 is
    exact.  Only s is not: q = floor(s 2^(K+G)), one ``math.isqrt``, gives
    s < (q + 1)/2^(K+G), and G guard bits make q >= 2^(_GUARD-1), so the
    bound on T is within a relative 2^-(_GUARD-2).  The margin this gives,
    a fraction of integers, is divided to the nearest double, within half
    an ulp, and stepped down to the next double; one past the doubles is
    below -2^1024.
    """
    (x, px), (y, py), (r, pr) = (disc.center.real.as_integer_ratio(),
                                 abs(disc.center.imag).as_integer_ratio(),
                                 disc.radius.as_integer_ratio())
    one = max(px, py, pr, 2 << n)  # 2^K
    x, y, r = x * (one // px), y * (one // py), r * (one // pr)
    lo, hi = (one >> 1) - (one >> n), (one >> 1) - (one >> n + 1)
    landing = y > r and r * one < 2 * (y - r) ** 2
    d = min(x - lo, hi - x)
    s2 = d * d + y * y if d > 0 else y * y
    if s2 <= r * r:
        return landing, -math.inf
    e2 = (s2 - r * r) ** 2  # (s^2 - r^2)^2 * 2^4K
    g = max(0, _GUARD - s2.bit_length() // 2)
    upper = math.isqrt(s2 << 2 * g) + 1 + (r << g)  # > (s + r) * 2^(K+G)
    num = (e2 << 2 * g) - (r * one * upper * upper << n + 1)
    den = e2 << 2 * g + n + 1
    try:  # the next double below num / den rounded to nearest
        return landing, math.nextafter(num / den, -math.inf)
    except OverflowError:
        return landing, -math.inf


def build_cheese(n_max: int) -> CheeseSet:
    """Construct the disc family for levels 1..n_max and certify it.

    Level n's height is 2^-m(n), certified by ``_term_check`` (geometry by
    ``CheeseSet``).  With r = y^2 each of its facts, once failed, fails at
    every larger y: the landing term is 1/(1 - y)^2, and the term at
    distance d is (y/(sqrt(d^2 + y^2) - y^2))^2, whose root's reciprocal
    sqrt(d^2/y^2 + 1) - y falls as y grows.  So 2^-m(n), which passes,
    is the largest admissible power of two when 2^-(m(n)-1) fails, which
    ``test_formula_heights_are_the_largest_exactly`` (60-digit decimals)
    and ``test_all_heights_match_descent_oracle`` (the float search) check
    for n <= 25.  Levels 1-52 pass; from 53 on, midpoint(n) is not a
    double, and the build stops at the first level that fails.
    """
    if n_max < 1:
        raise ValueError("n_max must be at least 1")
    discs, checks = [], []
    for n in range(1, n_max + 1):
        y = 2.0 ** -(3 * n // 2 + 3)
        discs.append(Disc(complex(midpoint(n), y), y * y))
        checks.append(_term_check(n, discs[-1]))
        if not (checks[-1][0] and checks[-1][1] > 0.0):
            raise ConstructionFailedError(n)
    X = CheeseSet(discs)
    X._term_checks = tuple(checks)  # verification reads the checks made
    return X


# ---------------------------------------------------------------------------
# rational probe functions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RationalFunction:
    """sum_k residue_k / (z - pole_k), with its derivative."""

    poles: Tuple[complex, ...]
    residues: Tuple[complex, ...]

    def __post_init__(self):
        if len(self.poles) != len(self.residues):
            raise ValueError("poles and residues must pair up")

    def __call__(self, z):
        z = np.asarray(z, dtype=complex)
        out = np.zeros(z.shape, dtype=complex)
        for p, res in zip(self.poles, self.residues):
            out = out + res / (z - p)
        return out if out.shape else complex(out)

    def derivative(self, z):
        z = np.asarray(z, dtype=complex)
        out = np.zeros(z.shape, dtype=complex)
        for p, res in zip(self.poles, self.residues):
            out = out - res / (z - p) ** 2
        return out if out.shape else complex(out)


def pole_probe(X: CheeseSet, n: int) -> RationalFunction:
    """The unit-sup probe for disc n: radius over the distance to its centre.

    Its sup over the set is exactly 1, attained on the disc's boundary
    circle, and its derivative at the disc's ground point x_n has modulus
    exactly radius / height^2 = 1.
    """
    disc = X.disc(n)
    return RationalFunction((disc.center,), (disc.radius,))


# ---------------------------------------------------------------------------
# verification sweeps
# ---------------------------------------------------------------------------

@dataclass
class CheeseVerification:
    """Grid-certified summary of the construction."""

    n_max: int
    grid: int
    margins: GeometryMargins
    max_sum: float
    max_certified: float
    per_term_margin: float  # proven below 2^-(n+1) - r_n/s_n^2 off I_n
    landing_ok: bool  # every disc's landing fact; reported in per_term_ok
    bound_threshold: ClassVar[float] = 6.5

    @property
    def geometry_ok(self) -> bool:
        return self.margins.all_positive

    @property
    def bound_ok(self) -> bool:
        return self.max_certified < self.bound_threshold

    @property
    def per_term_ok(self) -> bool:
        return self.landing_ok and self.per_term_margin > 0.0

    @property
    def passed(self) -> bool:
        return self.geometry_ok and self.bound_ok and self.per_term_ok

    def to_dict(self) -> dict:
        return {
            "n_max": self.n_max, "grid": self.grid,
            "margins": asdict(self.margins),
            "max_sum": self.max_sum, "max_certified": self.max_certified,
            "per_term_margin": self.per_term_margin,
            "bound_threshold": self.bound_threshold,
            "geometry_ok": self.geometry_ok, "bound_ok": self.bound_ok,
            "per_term_ok": self.per_term_ok, "passed": self.passed,
        }


def interval_grid(points: int) -> np.ndarray:
    return np.linspace(INTERVAL[0], INTERVAL[1], points)


# Relative rounding allowance of the two screens below, times the
# cancellation factor y/(y - r) in the bound-sum screen.  Rounding
# Re a +- w needs none: rounding is monotone and the grid points are
# doubles.
_SCREEN = 2.0 ** -40

# Below this distance from a disc, the bound-sum screen sweeps the whole
# grid (see ``verify_cheese``).
_TINY = 2.0 ** -500


def _derivative_window(xs, centers, radii, tau):
    """[lo, hi) per probe: the points of the sorted xs where the computed
    |f_k'| can reach tau (see ``noncompact_report``), every x with
    |x - Re a| <= sqrt(r/tau' - (Im a)^2), tau' = tau (1 - _SCREEN)."""
    with np.errstate(divide="ignore"):
        reach = np.sqrt(radii / (tau * (1.0 - _SCREEN)))
    half = np.sqrt(np.maximum(reach * reach - centers.imag ** 2, 0.0))
    return (np.searchsorted(xs, centers.real - half),
            np.searchsorted(xs, centers.real + half, "right"))


def _block_bounds(X, xs, width):
    """[block]: a bound on every computed bound sum over each run of
    ``width`` consecutive points of the sorted grid xs in [0, 1/2], or None
    where the proof in ``verify_cheese`` does not hold."""
    first = np.arange(0, len(xs), width)
    last = np.minimum(first + width, len(xs)) - 1
    centers, radii = X._centers, X._radii
    # [side, disc, block]: the block's points beside Re a on either side
    beside = np.searchsorted(xs, centers.real)
    near = np.clip(np.stack([beside - 1, beside]), first, last)
    s = np.abs(xs[near] - centers) - radii
    # kappa >= 1 exactly when y > r
    kappa = centers.imag / (centers.imag - radii)
    allowance = 1.0 + _SCREEN * (kappa.max(initial=1.0) + X.n_max)
    if not (kappa.min(initial=1.0) >= 1.0 and allowance <= 2.0
            and s.min(initial=math.inf) >= _TINY):
        return None
    bound = (X.r0 / (1.0 - xs[last]) ** 2
             + (radii / s ** 2).max(0).sum(0)) * allowance
    return bound if np.isfinite(bound).all() else None


def _largest_sum(X, xs) -> float:
    """The largest computed bound sum over the sorted grid xs, evaluated
    only in the blocks where it can lie (see ``verify_cheese``)."""
    grid = len(xs)
    width = math.isqrt(grid - 1) + 1
    bound = _block_bounds(X, xs, width)
    if bound is None:
        return float(X.bound_sum_grid(xs)[0].max())
    beside = np.searchsorted(xs, X._centers.real[:, 0])
    seeds = np.clip(np.concatenate([beside - 1, beside, [grid - 1]]), 0,
                    grid - 1)
    top = X.bound_sum_grid(xs[seeds])[0].max()
    swept = (width * np.flatnonzero(bound >= top)[:, None]
             + np.arange(width)).ravel()
    sums = X.bound_sum_grid(xs[swept[swept < grid]])[0]
    return float(sums.max(initial=top))


def verify_cheese(X: CheeseSet, grid: int = 2001) -> CheeseVerification:
    """Re-certify geometry, the per-term dyadic bounds, and the full sum.

    The per-term margin is the least of ``_term_check``'s proven margins,
    and the per-term check also needs every disc's landing fact.
    The largest full sum is found by screening blocks of the grid.

    The computed bound sum at x is S(x) = t_0 + t_1 + ... + t_n, added in
    that order by ``bound_sum_grid``, with t_0 = 1/(1 - x)^2 and t_j the
    computed term of disc j.  The grid is cut into blocks of
    ceil(sqrt(grid)) consecutive points.  Over a block B ending at e, t_0
    is largest at e, since each of its roundings is monotone.  The true
    term T_j is decreasing in |x - Re a|, so over B it is largest at the
    point of B nearest Re a, one of B's two points beside Re a (both are
    B's end nearer Re a when Re a lies outside B); let v_j be the larger
    computed term at those two.  With u = 2^-53 and barring underflow, the
    subtraction x - a rounds only its real part, by at most u|x - a|, and
    the modulus adds at most 4u; as |x - a| >= y > r, s = |x - a| - r
    loses at most the factor kappa = y/(y - r) of that, a relative error
    below 6.1 kappa u, and squaring and dividing bring t_j within
    15 kappa u of T_j.  So for x in B, t_j(x) <= (1 + 15 kappa u) T_j(x)
    and v_j >= (1 - 15 kappa u) T_j(x),
    so t_j(x) <= (1 + 31 kappa u) v_j when kappa <= 2^40.  Each addition
    of nonnegative terms rounds up by at most a factor 1 + u, and each
    addition in the computed t_0(e) + v_1 + ... + v_n rounds down by at
    most 1 - u.  So with K the largest kappa, the majorant
    M_B = (t_0(e) + v_1 + ... + v_n)(1 + 2^-40 (K + n)) bounds S(x) at
    every x in B: 2^-40 (K + n) = 8192 (K + n) u covers the 31 K u of the
    terms, the 2 n u of the two sums and the few u of rounding M_B itself,
    as long as it is at most 1.  Underflow is kept out by asking every
    distance s at the points beside Re a to be at least 2^-500: T_j(x) is
    at most T_j there, so s at x is at least 2^-501 and its square a
    normal number, and a term that underflows errs by at most 2^-1075, far
    inside the allowance of a sum that t_0 >= 1 alone exceeds.  Let L be
    the largest computed sum at the seeds: the grid points beside each
    Re a, and x = 1/2.  L is at most the largest computed sum S*, and the
    block holding S* has M_B >= S* >= L.  So the largest sum over the seeds
    and the blocks with M_B >= L, each evaluated by ``bound_sum_grid``, is
    S* with its bits, since the sums are computed point by point whatever
    array holds them.  max_certified is S* + 2^-(n+1) rounded, the largest
    certified sum, since rounding is monotone.  Where no majorant can be
    formed (y <= r for some disc, K or n too large, a distance below
    2^-500 or a majorant that is not finite), the whole grid is swept, as
    it then raises any ``OnBoundaryError`` with the same disc.  For
    ``build_cheese(25)`` at grid 100001 the screen evaluates 514 sums.
    """
    if grid < 2:
        raise ValueError("grid must be at least 2")
    xs = interval_grid(grid)
    max_sum = _largest_sum(X, xs)
    return CheeseVerification(
        n_max=X.n_max, grid=grid, margins=X.margins,
        max_sum=max_sum, max_certified=max_sum + 2.0 ** -(X.n_max + 1),
        per_term_margin=min((margin for _, margin in X._term_checks),
                            default=math.inf),
        landing_ok=all(landing for landing, _ in X._term_checks))


@dataclass
class NoncompactnessReport:
    """The unit-diagonal pattern demonstrating failure of compactness.

    ``matrix`` holds |f_n'(x_m)| for n, m up to n_hi: exactly 1 on the
    diagonal, vanishing down each column.  ``separations`` holds the grid
    maxima of |f_i' - f_j'| over the interval (with the ground points
    included among the evaluation points): every pair stays far apart, so
    no subsequence of the image probes can converge.
    """

    matrix: np.ndarray
    separations: np.ndarray
    diag_error: float
    min_separation: float
    diag_tol: ClassVar[float] = 1e-12
    separation_floor: ClassVar[float] = 0.7

    @property
    def diagonal_ok(self) -> bool:
        return self.diag_error <= self.diag_tol

    @property
    def separation_ok(self) -> bool:
        return self.min_separation >= self.separation_floor

    @property
    def passed(self) -> bool:
        return self.diagonal_ok and self.separation_ok

    def to_dict(self) -> dict:
        return {"matrix": self.matrix,
                "separations": self.separations,
                "diag_error": self.diag_error,
                "min_separation": self.min_separation,
                "diag_tol": self.diag_tol,
                "separation_floor": self.separation_floor,
                "diagonal_ok": self.diagonal_ok,
                "separation_ok": self.separation_ok,
                "passed": self.passed}


def _probe_derivatives(centers, radii, points):
    """[k, p]: f_k'(points[p]) = -r_k / (points[p] - a_k)^2, in one
    buffer."""
    values = points[None, :] - centers[:, None]
    return np.divide(-radii[:, None], np.square(values, out=values),
                     out=values)


def _others_bound(xs, lo, hi, centers, radii):
    """[k]: E_k, a bound on every computed |f_i'|, i != k, over the grid
    points xs[lo[k]:hi[k]] (see ``noncompact_report``)."""
    # [k, i]: the distance from Re a_i to the window's extreme points
    ends = xs[np.clip(np.stack([lo, hi - 1]), 0, len(xs) - 1)]
    d = np.maximum(np.maximum(ends[0][:, None] - centers.real,
                              centers.real - ends[1][:, None]), 0.0)
    bound = radii / (d * d + centers.imag ** 2)
    np.fill_diagonal(bound, 0.0)
    return bound.max(1) * (1.0 + _SCREEN)


def _fold_spreads(reach, values, owners, columns):
    """reach[k, i] = max(reach[k, i], computed |values[i, c] - values[k, c]|)
    over the pairs (k, c) of owners (in increasing order) and columns."""
    diff = values[:, columns]
    diff -= values[owners, columns]
    first = np.flatnonzero(np.diff(owners, prepend=-1))
    k = owners[first]
    reach[k] = np.maximum(
        reach[k], np.maximum.reduceat(np.abs(diff), first, axis=1).T)


def noncompact_report(X: CheeseSet, n_hi: Optional[int] = None,
                      grid: int = 2001) -> NoncompactnessReport:
    """Evaluate the probe derivatives pairwise and certify their separation.

    Evaluation points are the uniform interval grid plus the ground points
    x_m themselves; the per-term dyadic certificates make
    |f_i'(x_j)| < 2^-(i+1) for i != j while |f_j'(x_j)| = 1, so every
    pairwise sup distance exceeds 3/4 up to grid slack.

    Each separation is the exact maximum of the computed h = |v_i - v_j|
    over all evaluation points, found by sweeping only screened candidate
    points.  The computed h at x_i and at x_j bound pair (i, j)'s maximum
    from below, and so does L_ij, the larger of the two; L is the least
    L_ij over all pairs.  With
    tau = L/2 (1 - 1e-9), S_k is the set of points where the computed
    |v_k| >= tau.  Let p* be where the computed h is largest.  If p* lay
    outside S_i and S_j, then, with eps = 2^-53 covering the rounding of
    the subtraction and of the three moduli, and barring underflow,

        h(p*) <= (|v_i| + |v_j|)(1 + 8 eps) < 2 tau (1 + 8 eps) < L <= h(p*),

    a contradiction.  So p* lies in S_i or S_j, row k sweeps a part of S_k
    that holds it (below), every candidate is an evaluation point, and the
    result is the same maximum of the same computed numbers.

    The ground points of S_k are read off the n x n ground values.  Its
    grid points are located by geometry, and only there are the probes
    evaluated.  With u = 2^-53, the computed |v_k(x)| is within 18u of the
    true r/|x - a|^2, barring underflow: the subtraction x - a rounds only
    its real part (2u on |x - a|^2), squaring a complex number errs by at
    most 3u|z|^2 whatever the cancellation in its real part, numpy's
    quotient of the real -r by the square adds at most 8u, and the modulus
    4u.  So a point of S_k has true r/|x - a|^2 >= tau(1 - delta/2),
    delta = 2^-40, and r/|x - a|^2 >= t = tau(1 - delta) exactly where
    |x - Re a| <= w = sqrt(r/t - y^2).  The other half of delta covers the
    rounding of w (that of r/t - y^2 is at most 6u r/t, against a margin of
    delta/2 r/t), and rounding Re a +- w cannot drop a grid point, since
    rounding is monotone and the points are doubles.  So the grid points
    in [Re a - w, Re a + w], found by binary search on the sorted grid,
    hold S_k's; call them W_k.  When L is 0, tau is 0 and every W_k is the
    whole grid.

    Row k then sweeps only the part W'_k of W_k that can hold the maximum
    of one of its pairs, given what the other probes reach there.  Let
    [e, e'] span W_k's extreme grid points and d_ik be the distance from
    Re a_i to it, 0 where Re a_i lies inside, as it does where W_k overlaps
    W_i around x_i.  At x in W_k the true |f_i'(x)| =
    r_i/((x - Re a_i)^2 + y_i^2) is at most r_i/(d_ik^2 + y_i^2).  The
    computed d_ik is within u of the true one, relative (its subtraction
    rounds once), and with its square, y_i^2, the sum and the quotient the
    computed bound is at least 1 - 5u times the true one, barring
    underflow.  So E_k, the largest of these over i != k times 1 + delta,
    rounded, is at least 1 + delta - 7u > 1 + 18u times the true bound,
    and bounds every computed |v_i| on W_k, near x_i as well.  Let L_k be
    the least lower bound of the pairs (i, k), so L_k <= L_ik, and
    theta_k = L_k(1 - 1e-9) - E_k as computed: where it is positive,
    E_k + theta_k <= L_k(1 - 1e-9)(1 + u)^3.  Let p* be a grid point of
    S_k (the argument above puts pair (i, k)'s p* in S_i or S_k; name k
    the one), so that it lies in W_k.  If its |v_k| were below theta_k,

        h(p*) <= (|v_i| + |v_k|)(1 + 8 eps) < (E_k + theta_k)(1 + 8 eps)
              < L_k <= L_ik <= h(p*).

    So |v_k(p*)| >= max(tau, theta_k), and the lemma above, which holds at
    any threshold, puts p* in W'_k, the window of max(tau, theta_k).  That
    window lies inside W_k, as each of its roundings is monotone in the
    threshold.  Ground points keep the tau test.  Each grid point of some
    W'_k is evaluated once, by every probe, and the rows take their maxima
    over chunks of (row, point) pairs, so memory stays at one block of n
    rows beyond those values.
    """
    n_hi = X.n_max if n_hi is None else n_hi
    if not 1 <= n_hi <= X.n_max:
        raise ValueError("n_hi must lie in 1..n_max")
    centers, radii = X._centers[:n_hi, 0], X._radii[:n_hi, 0]
    ground = _probe_derivatives(centers, radii, centers.real)
    matrix = np.abs(ground)  # rows n, columns m: |f_n'(x_m)|
    stable_diag = radii / centers.imag ** 2
    diag_error = float(np.abs(np.diagonal(matrix) - 1.0).max())
    diag_error = max(diag_error, float(np.abs(stable_diag - 1.0).max()))
    off_diag = ~np.eye(n_hi, dtype=bool)
    # [i, m]: the computed |f_i'(x_m) - f_m'(x_m)|
    at_ground = np.abs(ground - np.diagonal(ground))
    # [k]: L_k, the least ground-point bound L_ik of probe k's pairs
    least = np.where(off_diag, np.maximum(at_ground, at_ground.T),
                     math.inf).min(1)
    tau = 0.5 * least.min(initial=math.inf) * (1.0 - 1e-9)
    xs = interval_grid(grid)
    # W_k, then W'_k within it
    lo, hi = _derivative_window(xs, centers, radii, tau)
    theta = least * (1.0 - 1e-9) - _others_bound(xs, lo, hi, centers, radii)
    lo, hi = _derivative_window(xs, centers, radii, np.maximum(tau, theta))
    # the windows' grid points, each once, evaluated by every probe
    inside = np.zeros(grid, dtype=bool)
    for k in range(n_hi):
        inside[lo[k]:hi[k]] = True
    covered = np.flatnonzero(inside)
    near = _probe_derivatives(centers, radii, xs[covered])
    # [k, i]: the largest computed |f_i' - f_k'| over probe k's candidates,
    # its window's grid points (pairs p of all windows side by side, p of
    # window k at column p + shift[k] of near) and the ground points where
    # |f_k'| >= tau, each taken in chunks of pairs
    reach = np.zeros((n_hi, n_hi))
    counts = hi - lo
    stops = np.cumsum(counts)
    shift = np.searchsorted(covered, lo) - (stops - counts)
    for start in range(0, stops[-1], _CHUNK):
        pairs = np.arange(start, min(start + _CHUNK, stops[-1]))
        owners = np.searchsorted(stops, pairs, "right")
        _fold_spreads(reach, near, owners, pairs + shift[owners])
    owners, columns = np.nonzero(matrix >= tau)
    for start in range(0, len(owners), _CHUNK):
        _fold_spreads(reach, ground, owners[start:start + _CHUNK],
                      columns[start:start + _CHUNK])
    separations = np.maximum(reach, reach.T)
    min_separation = float(separations[off_diag].min(initial=math.inf))
    return NoncompactnessReport(
        matrix=matrix, separations=separations, diag_error=diag_error,
        min_separation=min_separation)
