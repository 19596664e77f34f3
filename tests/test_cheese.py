"""Swiss-cheese construction: geometry, bound certificates, non-compactness."""

import decimal
import inspect
import math
import tracemalloc
from dataclasses import fields
from decimal import Decimal

import numpy as np
import pytest

import convderiv as cd
from convderiv import cheese


def descent_oracle(n):
    """Independent height search: largest 2^-m meeting all three conditions,
    with the per-term condition taken against the conservative minimum of
    the two printed estimate denominators and the exact endpoint distance.
    """
    x = 0.5 - 3.0 * 2.0 ** -(n + 2)
    for m in range(1, 41):
        y = 2.0 ** -m
        r = y * y
        if math.hypot(x, y) + r >= 1.0:
            continue
        if 1.0 / (1.0 - y) ** 2 >= 2.0:
            continue
        inner = 2.0 ** (-2 * (n + 1)) - y * y
        if inner < 0:
            continue
        d1 = math.sqrt(inner) + r
        d2 = math.sqrt(2.0 ** (-2 * (n + 1)) + y * y) - r
        d3 = math.sqrt(2.0 ** (-2 * (n + 2)) + y * y) - r
        den = min(d1, d2, d3)
        if den > 0 and r / den ** 2 < 2.0 ** -(n + 1):
            return y
    return None


def test_first_midpoint_is_one_eighth():
    assert cd.midpoint(1) == 0.125
    lo, hi = cd.landing_interval(1)
    assert (lo, hi) == (0.0, 0.25)


def test_first_height_matches_descent_oracle():
    assert descent_oracle(1) == 2.0 ** -4  # frozen from the oracle
    X = cd.build_cheese(1)
    assert X.disc(1).center == complex(0.125, 0.0625)


def test_all_heights_match_descent_oracle():
    X = cd.build_cheese(25)
    for n in range(1, 26):
        assert X.disc(n).center.imag == descent_oracle(n)


def test_radius_is_height_squared():
    X = cd.build_cheese(12)
    for n in range(1, 13):
        disc = X.disc(n)
        assert disc.radius == disc.center.imag ** 2


def test_geometry_invariants_have_strict_margins():
    X = cd.build_cheese(12)
    assert X.margins.containment > 0
    assert X.margins.disjointness > 0
    assert X.margins.interval_gap > 0


def _exact_checks(n, m):
    """The conservative height test on 2^-m at level n (containment, the
    landing bound, and the per-term bound against the least of the printed
    estimate denominators and the exact endpoint distance), decided in
    60-digit decimal arithmetic; each margin must be far above that
    precision for its sign to be the exact one."""
    with decimal.localcontext() as ctx:
        ctx.prec = 60
        two = Decimal(2)
        x = Decimal(1) / 2 - 3 * two ** -(n + 2)
        y = two ** -m
        r = y * y
        near, far, cap = two ** (-2 * (n + 1)), two ** (-2 * (n + 2)), \
            two ** -(n + 1)
        margins = [1 - (x * x + y * y).sqrt() - r,
                   2 - 1 / (1 - y) ** 2,
                   near - y * y]
        if margins[-1] > 0:
            den = min((near - y * y).sqrt() + r, (near + y * y).sqrt() - r,
                      (far + y * y).sqrt() - r)
            margins += [den, cap - r / den ** 2 if den > 0 else -1]
    assert all(abs(margin) > Decimal(10) ** -45 for margin in margins)
    return all(margin > 0 for margin in margins)


@pytest.mark.parametrize("n", range(1, 26))
def test_formula_heights_are_the_largest_exactly(n):
    # each check, once failed, fails for every larger height (see
    # build_cheese), so 2^-m(n) passing and 2^-(m(n)-1) failing make
    # 2^-m(n) the largest admissible power of two
    m = 3 * n // 2 + 3
    assert _exact_checks(n, m)
    assert not _exact_checks(n, m - 1)
    assert cd.build_cheese(n).disc(n).center.imag == 2.0 ** -m


@pytest.mark.parametrize("n", range(1, 26))
def test_the_level_check_agrees_with_the_decimal_checks(n):
    m = 3 * n // 2 + 3
    for height in (m, m - 1):
        y = 2.0 ** -height
        disc = cd.Disc(complex(cd.midpoint(n), y), y * y)
        landing, margin = cheese._term_check(n, disc)
        assert (landing and margin > 0.0) == _exact_checks(n, height)


def test_build_makes_one_admissibility_check_per_level(monkeypatch):
    # verification reads the checks the build made
    calls = []
    check = cheese._term_check
    monkeypatch.setattr(cheese, "_term_check",
                        lambda *args: calls.append(args) or check(*args))
    cd.verify_cheese(cd.build_cheese(25), grid=2001)
    assert len(calls) == 25


def test_construction_failure_is_reported():
    with pytest.raises(cd.ConstructionFailedError) as err:
        cd.build_cheese(26)
    assert err.value.n == 26
    assert str(err.value) == "no admissible height for disc 26 above 2^-40"


def test_build_takes_only_the_level_count():
    assert list(inspect.signature(cd.build_cheese).parameters) == ["n_max"]


def test_pass_thresholds_are_constants_not_fields():
    verification = cd.verify_cheese(cd.build_cheese(4), grid=101)
    report = cd.noncompact_report(cd.build_cheese(4), grid=101)
    assert {f.name for f in fields(verification)}.isdisjoint(
        {"bound_threshold", "per_term_tol"})
    assert {f.name for f in fields(report)}.isdisjoint(
        {"diag_tol", "separation_floor"})
    assert verification.to_dict()["bound_threshold"] == 6.5
    assert (report.to_dict()["diag_tol"],
            report.to_dict()["separation_floor"]) == (1e-12, 0.7)
    with pytest.raises(TypeError):
        cheese.CheeseVerification(
            n_max=1, grid=2, margins=verification.margins, max_sum=1.0,
            max_certified=1.0, per_term_margin=1.0, bound_threshold=1e9)


def test_unit_disc_term_is_at_most_four_on_interval():
    X = cd.build_cheese(4)
    for x in cd.interval_grid(101):
        s0 = 1.0 - abs(x)
        assert s0 >= 0.5
        assert X.r0 / s0 ** 2 <= 4.0 + 1e-15


def test_landing_term_at_first_centre():
    X = cd.build_cheese(2)
    disc = X.disc(1)
    x1, y1 = disc.center.real, disc.center.imag
    term = disc.radius / (abs(x1 - disc.center) - disc.radius) ** 2
    assert term == pytest.approx(1.0 / (1.0 - y1) ** 2, rel=1e-12)
    assert term == pytest.approx(256.0 / 225.0, rel=1e-12)  # y1 = 1/16
    assert term < 2.0


def test_bound_sum_errors_on_boundary():
    X = cd.build_cheese(2)
    with pytest.raises(cd.OnBoundaryError):
        X.bound_sum_grid([X.disc(1).center])
    with pytest.raises(cd.OnBoundaryError):
        X.bound_sum_grid([1.0 + 0j])


def test_verification_certifies_bound_below_thirteen_halves():
    X = cd.build_cheese(12)
    verification = cd.verify_cheese(X, grid=1001)
    assert verification.passed
    assert verification.max_certified < 6.5
    assert verification.per_term_margin > -1e-12


def test_per_term_certificates_on_grid():
    X = cd.build_cheese(12)
    xs = cd.interval_grid(2001)
    for n in range(1, 13):
        lo, hi = cd.landing_interval(n)
        outside = (xs < lo) | (xs >= hi)
        disc = X.disc(n)
        s = np.abs(xs[outside] - disc.center) - disc.radius
        assert (disc.radius / s ** 2 < 2.0 ** -(n + 1) + 1e-12).all()


def test_certified_sum_dominates_plain_sum():
    X = cd.build_cheese(8)
    xs = cd.interval_grid(257)
    sums, certified = X.bound_sum_grid(xs)
    assert (certified > sums).all()
    (value,), (cert,) = X.bound_sum_grid([0.25])
    assert cert == value + 2.0 ** -9


def test_bound_sum_at_complex_point_matches_direct_sum():
    X = cd.build_cheese(6)
    z = 0.2 - 0.15j
    direct = 1.0 / (1.0 - abs(z)) ** 2
    for d in X.discs:
        direct += d.radius / (abs(z - d.center) - d.radius) ** 2
    sums, certified = X.bound_sum_grid([z, 0.25])
    assert (sums[0], certified[0]) == (direct, direct + 2.0 ** -7)
    assert sums[1] == X.bound_sum_grid([0.25])[0][0]


def test_serialisation_round_trip():
    X = cd.build_cheese(6)
    payload = X.to_dict()
    Y = cd.CheeseSet.from_dict(payload)
    assert Y.n_max == 6
    for n in range(1, 7):
        assert Y.disc(n) == X.disc(n)
    with pytest.raises(ValueError):
        cd.CheeseSet.from_dict({"n_max": 2, "discs": payload["discs"]})


# -- probe functions -----------------------------------------------------------

def test_probe_sup_is_one_on_its_circle():
    X = cd.build_cheese(4)
    f1 = cd.pole_probe(X, 1)
    disc = X.disc(1)
    circle = disc.center + disc.radius * np.exp(
        2j * np.pi * np.arange(64) / 64)
    assert np.abs(np.abs(f1(circle)) - 1.0).max() < 1e-12


def test_probe_derivative_unit_at_own_ground_point():
    X = cd.build_cheese(12)
    for n in range(1, 13):
        f = cd.pole_probe(X, n)
        ground = X.disc(n).center.real
        assert abs(f.derivative(ground)) == 1.0


def test_probe_derivative_vanishes_at_fixed_point():
    X = cd.build_cheese(12)
    x = 0.25
    values = [abs(cd.pole_probe(X, n).derivative(x)) for n in range(3, 13)]
    assert values[-1] < 1e-6
    assert values[-1] < values[0]


def test_noncompact_report_unit_diagonal_and_separation():
    X = cd.build_cheese(12)
    report = cd.noncompact_report(X, grid=2001)
    assert report.diag_error <= 1e-12
    assert report.min_separation >= 0.7
    assert report.passed
    # off-diagonal entries obey the per-term dyadic certificates
    for i in range(12):
        for m in range(12):
            if i != m:
                assert report.matrix[i, m] < 2.0 ** -(i + 2)


def test_separation_certificate_floor():
    # |f_j'(x_j)| - |f_i'(x_j)| >= 1 - 2^{-(i+1)} >= 3/4 pins each pair
    X = cd.build_cheese(12)
    report = cd.noncompact_report(X, grid=2001)
    for i in range(12):
        for j in range(12):
            if i < j:
                floor = 1.0 - 2.0 ** -(i + 2)
                assert report.separations[i, j] >= floor - 1e-9


# -- pinned pairwise separations ----------------------------------------------

def reference_separations(X, n_hi=None, grid=2001):
    """The pairwise sweep ``noncompact_report`` once ran, kept as the
    reference: every pair over every evaluation point.

    Returns (matrix, separations, diag_error, min_separation).
    """
    n_hi = X.n_max if n_hi is None else n_hi
    centers = np.array([X.disc(n).center for n in range(1, n_hi + 1)])
    radii = np.array([X.disc(n).radius for n in range(1, n_hi + 1)])
    points = np.concatenate([cd.interval_grid(grid), centers.real])
    values = -radii[None, :] / (points[:, None] - centers[None, :]) ** 2
    matrix = np.abs(values[grid:, :]).T
    stable_diag = radii / centers.imag ** 2
    diag_error = float(np.abs(np.diagonal(matrix) - 1.0).max())
    diag_error = max(diag_error, float(np.abs(stable_diag - 1.0).max()))
    separations = np.zeros((n_hi, n_hi))
    for i in range(n_hi):
        for j in range(i + 1, n_hi):
            sep = float(np.abs(values[:, i] - values[:, j]).max())
            separations[i, j] = separations[j, i] = sep
    off_diag = separations[~np.eye(n_hi, dtype=bool)]
    min_separation = float(off_diag.min()) if off_diag.size else math.inf
    return matrix, separations, diag_error, min_separation


def assert_matches_reference(X, n_hi=None, grid=2001):
    report = cd.noncompact_report(X, n_hi=n_hi, grid=grid)
    matrix, separations, diag_error, min_separation = \
        reference_separations(X, n_hi, grid)
    assert np.array_equal(report.separations, separations)
    assert np.array_equal(report.matrix, matrix)
    assert report.diag_error == diag_error
    assert report.min_separation == min_separation
    return report


@pytest.mark.parametrize("n_max, grid", [
    (1, 2001), (2, 2), (8, 2001), (16, 20001), (24, 20001), (25, 2001),
    (25, 100001), (12, 50000)])
def test_separations_match_the_pairwise_reference(n_max, grid):
    assert_matches_reference(cd.build_cheese(n_max), grid=grid)


def test_separations_of_a_leading_subfamily_match_the_reference():
    assert_matches_reference(cd.build_cheese(20), n_hi=7, grid=2001)


def test_a_grid_of_two_points_certifies_separation():
    # the ground points alone carry the separation certificate
    report = assert_matches_reference(cd.build_cheese(12), grid=2)
    assert report.passed


def _family(*discs):
    return cd.CheeseSet.from_dict({
        "n_max": len(discs),
        "discs": [{"x": x, "y": y, "r": r} for x, y, r in discs]})


def _near_meeting_families():
    """Discs 1 and 2 under one ground point, where both probe derivatives
    are 1 (the ground-point bound is 0) or nearly so."""
    return [_family((0.25, 0.25, 0.0625), (0.25, 0.125, r),
                    (0.4, 0.05, 0.0025)) for r in (0.015625, 0.0156)]


def test_separations_match_the_reference_when_two_probes_meet():
    # discs 1 and 2 share a ground point where both probe derivatives are
    # exactly 1, so no pair is bounded away from 0 at the ground points
    X = _near_meeting_families()[0]
    assert cd.pole_probe(X, 1).derivative(0.25) \
        == cd.pole_probe(X, 2).derivative(0.25)
    report = assert_matches_reference(X, grid=2001)
    assert report.min_separation > 0.0


def test_separations_match_the_reference_when_two_probes_nearly_meet():
    assert_matches_reference(_near_meeting_families()[1], grid=2001)


def _moved_disc_family():
    """``build_cheese(25)`` with disc 2 moved under disc 1: both probe
    derivatives are 1 at the shared ground point, so the ground-point bound
    and tau are 0, and every screened window is the whole grid."""
    payload = cd.build_cheese(25).to_dict()
    payload["discs"][1]["x"] = payload["discs"][0]["x"]
    return cd.CheeseSet.from_dict(payload)


@pytest.mark.parametrize("grid", [2, 2001, 20001])
def test_overlapping_windows_are_evaluated_once(grid, monkeypatch):
    X = _moved_disc_family()
    evaluated = _counting_probes(monkeypatch)
    report = assert_matches_reference(X, grid=grid)
    n = X.n_max
    assert report.matrix[1, 0] == report.matrix[0, 0]
    assert sum(evaluated) <= n * (grid + n)


def _stretched_radii():
    """The constructed centres with radii that are not y^2, from y/2 up to
    a disc whose cancellation factor y/(y - r) passes 2^40."""
    X = cd.build_cheese(10)
    factors = (0.5, 0.1, 0.9, 1.0 - 1e-13, 0.25, 0.75, 0.99, 0.3, 0.6, 0.05)
    return _family(*[(d.center.real, d.center.imag, d.center.imag * f)
                     for d, f in zip(X.discs, factors)])


@pytest.mark.parametrize("grid", [2, 101, 2001, 20001])
def test_separations_match_the_reference_for_radii_not_y_squared(grid):
    assert_matches_reference(_stretched_radii(), grid=grid)


@pytest.mark.parametrize("grid", [2, 101, 2001, 20001])
def test_separations_match_the_reference_for_other_families(grid):
    for X in [*_near_meeting_families(), *_perturbed_families(grid + 1, 12)]:
        assert_matches_reference(X, grid=grid)


def _counting_probes(monkeypatch):
    """The number of probe values each ``_probe_derivatives`` call makes."""
    evaluated = []
    probe = cheese._probe_derivatives

    def counting(centers, radii, points):
        evaluated.append(len(centers) * len(points))
        return probe(centers, radii, points)

    monkeypatch.setattr(cheese, "_probe_derivatives", counting)
    return evaluated


def test_the_probe_screen_evaluates_a_tenth_of_the_tau_windows(monkeypatch):
    # the tau windows alone made 892,850 probe values here
    evaluated = _counting_probes(monkeypatch)
    report = cd.noncompact_report(cd.build_cheese(25), grid=100001)
    assert report.passed
    assert sum(evaluated) <= 100_000


def test_moved_disc_family_memory_stays_near_one_grid_of_probes():
    # the probes over the whole grid are 40 MB; the sweep held a copy of
    # one probe's slice and its moduli beside them, 100.8 MB
    X = _moved_disc_family()
    tracemalloc.start()
    try:
        cd.noncompact_report(X, grid=100001)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 60e6


def _probe_screen_cases():
    """(family, grid, points): interval grids, then (with grid None) a grid
    refined around each ground point down to neighbouring doubles."""
    families = [cd.build_cheese(25), cd.build_cheese(8), _stretched_radii(),
                *_near_meeting_families(), *_perturbed_families(7, 6)]
    near = np.concatenate([np.arange(-64, 65) * 2.0 ** -54,
                           np.geomspace(1e-15, 1e-2, 60),
                           -np.geomspace(1e-15, 1e-2, 60)])
    for X in families:
        grounds = np.array([d.center.real for d in X.discs])
        for grid in (2, 101, 2001, 20001):
            yield X, grid, cd.interval_grid(grid)
        yield X, None, np.unique(np.clip(np.concatenate([
            cd.interval_grid(2001), (grounds[:, None] + near).ravel()]),
            0.0, 0.5))


def test_probe_screen_bounds_the_other_probes_and_drops_only_low_points(
        monkeypatch):
    probe = cheese._probe_derivatives
    evaluated = _counting_probes(monkeypatch)
    dropped = 0
    for X, grid, xs in _probe_screen_cases():
        centers = np.array([d.center for d in X.discs])
        radii = np.array([d.radius for d in X.discs])
        ground = probe(centers, radii, centers.real)
        at_ground = np.abs(ground - np.diagonal(ground))
        bounds = np.maximum(at_ground, at_ground.T)
        np.fill_diagonal(bounds, np.inf)
        least = bounds.min(1)
        tau = 0.5 * least.min() * (1.0 - 1e-9)
        lo, hi = cheese._derivative_window(xs, centers, radii, tau)
        others = cheese._others_bound(xs, lo, hi, centers, radii)
        theta = least * (1.0 - 1e-9) - others
        kept = cheese._derivative_window(xs, centers, radii,
                                         np.maximum(tau, theta))
        swept = np.zeros(len(xs), dtype=bool)
        for k in np.flatnonzero(hi > lo):
            size = np.abs(probe(centers, radii, xs[lo[k]:hi[k]]))
            # E_k bounds every other probe over all of W_k
            assert (np.delete(size, k, 0) <= others[k]).all()
            # W'_k lies in W_k and drops only points below theta_k
            start, stop = kept[0][k] - lo[k], kept[1][k] - lo[k]
            assert 0 <= start <= stop <= hi[k] - lo[k]
            low = np.concatenate([size[k, :start], size[k, stop:]])
            assert (low < theta[k]).all()
            dropped += low.size
            swept[kept[0][k]:kept[1][k]] = True
        if grid is not None:
            # the report evaluates exactly these windows
            evaluated.clear()
            cd.noncompact_report(X, grid=grid)
            n = X.n_max
            assert sum(evaluated) == n * (n + swept.sum())
    assert dropped > 0


# -- pinned per-term margins and bound sums -----------------------------------

def reference_sums(X, grid):
    """The bound sum with fresh arrays per disc over the whole grid, as
    ``verify_cheese`` once swept it: (sums, certified)."""
    xs = cd.interval_grid(grid)
    total = X.r0 / (1.0 - np.abs(xs)) ** 2
    for disc in X.discs:
        total = total + disc.radius / (np.abs(xs - disc.center)
                                       - disc.radius) ** 2
    return total, total + 2.0 ** -(X.n_max + 1)


def reference_verification(X, grid):
    """The two sweeps ``verify_cheese`` once ran, kept as the reference: the
    bound sum over every grid point, then every term at every grid point
    off each landing interval, a sample of the per-term margin.

    Returns (sums, certified, per_term_margin).
    """
    xs = cd.interval_grid(grid)
    per_term_margin = math.inf
    for n, disc in enumerate(X.discs, 1):
        lo, hi = cd.landing_interval(n)
        outside = (xs < lo) | (xs >= hi)
        s = np.abs(xs[outside] - disc.center) - disc.radius
        margin = float((2.0 ** -(n + 1) - disc.radius / s ** 2).min())
        per_term_margin = min(per_term_margin, margin)
    return (*reference_sums(X, grid), per_term_margin)


def assert_maximum_matches_reference(verification, sums, certified):
    assert repr(verification.max_sum) == repr(float(sums.max()))
    assert repr(verification.max_certified) == repr(float(certified.max()))


def assert_verification_matches_reference(X, grid):
    verification = cd.verify_cheese(X, grid=grid)
    sums, certified, per_term_margin = reference_verification(X, grid)
    assert_maximum_matches_reference(verification, sums, certified)
    # the proven margin covers the whole interval, the grid only a sample
    assert verification.per_term_margin <= per_term_margin
    # the CSV table's arrays: one full-grid call
    table = X.bound_sum_grid(cd.interval_grid(grid))
    assert table[0].tobytes() == sums.tobytes()
    assert table[1].tobytes() == certified.tobytes()


GRIDS = [2, 3, 101, 2001, 2002, 20001, 100001]


@pytest.mark.parametrize("grid", GRIDS)
@pytest.mark.parametrize("n_max", [1, 2, 8, 16, 25])
def test_verification_matches_the_two_sweep_reference(n_max, grid):
    assert_verification_matches_reference(cd.build_cheese(n_max), grid)


@pytest.mark.parametrize("grid", [2, 101, 2001, 20001])
def test_verification_matches_the_reference_for_radii_not_y_squared(grid):
    assert_verification_matches_reference(_stretched_radii(), grid)


def exact_term_checks(X):
    """[n]: (landing, margin) of disc n in 80-digit decimals: whether its
    term r/(y - r)^2 at Re a_n is below 2 (with y > r), and 2^-(n+1) less
    the supremum of its term over [0, 1/2] off I_n, -inf where the term is
    unbounded there.

    The term falls with the distance from Re a_n, so its supremum is at
    the distance from Re a_n to the nearest of the closed pieces
    [0, lo] (when lo > 0) and [hi, 1/2].
    """
    checks = []
    with decimal.localcontext() as ctx:
        ctx.prec = 80
        for n, disc in enumerate(X.discs, 1):
            x, y, r = (Decimal(v) for v in (disc.center.real,
                                            disc.center.imag, disc.radius))
            lo, hi = (Decimal(v) for v in cd.landing_interval(n))
            pieces = [(hi, Decimal("0.5"))] + [(Decimal(0), lo)] * (lo > 0)
            d = min(max(a - x, 0, x - b) for a, b in pieces)
            s = (d * d + y * y).sqrt()
            checks.append((abs(y) > r and r / (abs(y) - r) ** 2 < 2,
                           Decimal(2) ** -(n + 1) - r / (s - r) ** 2
                           if s > r else Decimal("-Infinity")))
    return checks


def _disc_near_its_interval_start():
    """``build_cheese(8)`` with disc 8 moved to 2^-15 right of the left end
    of I_8: its term passes 2^-9 just left of that end, between the points
    of a 201-point grid."""
    payload = cd.build_cheese(8).to_dict()
    payload["discs"][7]["x"] = cd.landing_interval(8)[0] + 2.0 ** -15
    return cd.CheeseSet.from_dict(payload)


def test_term_margins_are_proven_bounds_within_2_to_the_minus_60():
    families = [*(cd.build_cheese(n) for n in range(1, 26)),
                _stretched_radii(), _moved_disc_family(),
                _disc_near_its_interval_start(), *_perturbed_families(3, 12)]
    landings = set()
    for X in families:
        margins = [margin for _, margin in X._term_checks]
        for n, ((landing, margin), (exact_landing, exact)) in enumerate(
                zip(X._term_checks, exact_term_checks(X)), 1):
            assert landing == exact_landing
            landings.add(landing)
            if exact.is_infinite():
                assert margin == -math.inf
                continue
            # at most the exact margin, and below it by at most 2^-60 c_n
            # and the rounding to a double, two ulps: half an ulp to the
            # nearest double, then a step down
            assert Decimal(margin) <= exact
            assert exact - Decimal(margin) <= \
                Decimal(2) ** -(n + 61) + 2 * Decimal(math.ulp(margin))
        assert cd.verify_cheese(X, grid=2).per_term_margin == min(margins)
    assert landings == {True, False}


def test_a_disc_meeting_the_line_off_its_interval_has_no_margin():
    # at t = Re a = 0.4, off I_1 = [0, 1/4), |t - a| = y <= r
    for y, r in ((0.25, 0.25), (0.0, 0.05), (1e-3, 2e-3)):
        disc = cd.Disc(complex(0.4, y), r)
        assert cheese._term_check(1, disc) == (False, -math.inf)


def test_a_term_past_its_bound_between_grid_points_fails_the_check():
    X = _disc_near_its_interval_start()
    assert reference_verification(X, 201)[2] > 0.0  # no grid point sees it
    verification = cd.verify_cheese(X, grid=201)
    assert verification.per_term_margin < 0.0
    assert not verification.per_term_ok and not verification.passed


# -- the bound-sum screen keeps the full sweep's maximum ----------------------

@pytest.mark.parametrize("grid", GRIDS)
def test_screened_maximum_matches_the_full_sweep(grid):
    for n_max in range(1, 26):
        X = cd.build_cheese(n_max)
        assert_maximum_matches_reference(cd.verify_cheese(X, grid=grid),
                                         *reference_sums(X, grid))


def _perturbed_families(seed, count):
    """Constructed families with each height scaled by a random factor and
    each radius a random fraction of the height's square or, for one disc
    in five, just below the height (cancellation factors y/(y - r) up to
    2^33); only families that pass the geometry certificate are kept."""
    rng = np.random.default_rng(seed)
    families = []
    while len(families) < count:
        payload = cd.build_cheese(int(rng.integers(1, 26))).to_dict()
        for item in payload["discs"]:
            item["y"] *= rng.uniform(0.25, 2.0)
            item["r"] = item["y"] * (
                item["y"] * rng.uniform(0.05, 3.0) if rng.random() < 0.8
                else 1.0 - 2.0 ** -rng.uniform(1.0, 33.0))
        try:
            families.append(cd.CheeseSet.from_dict(payload))
        except ValueError:
            continue
    return families


@pytest.mark.parametrize("grid", [2, 101, 2001, 20001, 100001])
def test_screened_maximum_matches_for_other_families(grid):
    for X in [_stretched_radii(), _moved_disc_family(),
              *_perturbed_families(grid, 12)]:
        assert_maximum_matches_reference(cd.verify_cheese(X, grid=grid),
                                         *reference_sums(X, grid))


class _Uncertified(cd.CheeseSet):
    """A disc family without the geometry certificate: a certified disc
    lies above the real axis (height above radius), so it never reaches
    the interval."""

    def _certify(self):
        return cheese.GeometryMargins(1.0, 1.0, 1.0)


@pytest.mark.filterwarnings("error")  # no division by a zero distance
@pytest.mark.parametrize("grid", [101, 2001, 100001])
def test_a_disc_across_the_grid_raises_the_full_sweep_error(grid):
    payload = cd.build_cheese(8).to_dict()
    # disc 6 moved down onto [0, 0.1], far from the other discs' ground
    # points and from x = 1/2, at distance 0 from x = 0; disc 7 touches
    # x = 1/2
    payload["discs"][5].update(x=0.05, y=0.0, r=0.05)
    payload["discs"][6].update(x=0.5, y=1e-3, r=2e-3)
    X = _Uncertified.from_dict(payload)
    with pytest.raises(cd.OnBoundaryError) as full:
        X.bound_sum_grid(cd.interval_grid(grid))
    assert str(full.value) == "a point touches removed disc 6"
    with pytest.raises(cd.OnBoundaryError) as screened:
        cd.verify_cheese(X, grid=grid)
    assert str(screened.value) == str(full.value)
    # both discs meet the real line off their landing intervals
    assert [margin for _, margin in X._term_checks[5:7]] == [-math.inf] * 2


def test_verification_sweeps_a_small_share_of_a_large_grid(monkeypatch):
    # the full sweep passed every grid point to bound_sum_grid
    points = []
    sweep = cd.CheeseSet.bound_sum_grid

    def counting(self, xs):
        points.append(len(xs))
        return sweep(self, xs)

    monkeypatch.setattr(cd.CheeseSet, "bound_sum_grid", counting)
    cd.verify_cheese(cd.build_cheese(25), grid=100001)
    assert 0 < sum(points) < 0.05 * 100001


def test_verification_rejects_a_grid_without_an_interval():
    with pytest.raises(ValueError, match="grid must be at least 2"):
        cd.verify_cheese(cd.build_cheese(3), grid=1)


# -- the screens hold every point that can reach their threshold -------------

def _screen_cases():
    for X in (cd.build_cheese(25), _stretched_radii()):
        centers = np.array([d.center for d in X.discs])
        radii = np.array([d.radius for d in X.discs])
        # every (disc, point) pair over a grid refined around each ground
        # point, down to neighbouring doubles
        near = np.concatenate([np.arange(-64, 65) * 2.0 ** -54,
                               np.geomspace(1e-15, 1e-2, 60),
                               -np.geomspace(1e-15, 1e-2, 60)])
        xs = np.unique(np.concatenate([cd.interval_grid(2001),
                                       (centers.real[:, None] + near).ravel()]))
        k, p = (a.ravel() for a in np.indices((len(radii), len(xs))))
        yield xs, centers[k], radii[k], p


def test_derivative_screen_holds_each_point_at_its_own_modulus():
    for xs, centers, radii, p in _screen_cases():
        tau = np.abs(-radii / (xs[p] - centers) ** 2)
        lo, hi = cheese._derivative_window(xs, centers, radii, tau)
        assert ((lo <= p) & (p < hi)).all()


def test_block_bounds_hold_every_sum_in_their_block():
    families = [cd.build_cheese(25), cd.build_cheese(3),
                *_perturbed_families(5, 6)]
    left = np.concatenate([np.arange(1, 65) * 2.0 ** -54,
                           np.geomspace(1e-15, 1e-2, 60)])
    near = np.concatenate([-left, 1.5 * left])
    for X in families:
        # a grid refined around each ground point, down to neighbouring
        # doubles, so that blocks end right beside the peaks; the nearer
        # point lies left of odd ground points and right of even ones
        grounds = np.array([d.center.real for d in X.discs])
        side = (-1.0) ** np.arange(X.n_max)
        xs = np.unique(np.clip(np.concatenate([
            cd.interval_grid(2001),
            (grounds[:, None] + side[:, None] * near).ravel()]), 0.0, 0.5))
        sums = X.bound_sum_grid(xs)[0]
        for width in (1, 2, 3, 45, 1000):
            bound = cheese._block_bounds(X, xs, width)
            padded = np.append(sums, np.full(-len(xs) % width, -np.inf))
            assert (padded.reshape(-1, width).max(1) <= bound).all()


def test_block_bounds_refuse_where_the_proof_does_not_hold():
    # cancellation factor y/(y - r) past 2^40
    assert cheese._block_bounds(_stretched_radii(), cd.interval_grid(101),
                                11) is None


def test_demo_sweep_memory_stays_near_the_screened_points():
    # the dense n x (grid + n) sweep peaked at 77 MB here
    X = cd.build_cheese(25)
    tracemalloc.start()
    try:
        cd.noncompact_report(X, grid=100001)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 40e6
