"""Closed-form radial inequality against quadrature, Gaussian and power-counting oracles."""

import math
from functools import partial

import mpmath
import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import gamma
from references import lhs_slope_expected, rhs_slope_expected

from enhq.inequality import (
    _ZETA_OVER_K,
    RadialField,
    _upper_gamma,
    lhs,
    rhs,
    scan,
    sphere_area,
)


class TestValidation:
    def test_alpha_window(self):
        RadialField(alpha=1.3, n=5)
        with pytest.raises(ValueError):
            RadialField(alpha=1.5, n=5)  # at the (n-2)/2 boundary
        with pytest.raises(ValueError):
            RadialField(alpha=-0.1, n=5)
        with pytest.raises(ValueError):
            RadialField(alpha=0.0, n=2)  # empty window in two dimensions
        with pytest.raises(ValueError):
            RadialField(alpha=0.0, n=1)

    def test_eps_sequence_rules(self):
        with pytest.raises(ValueError):
            scan(5, [0.5], eps_sequence=(1e-3, 1e-2))
        with pytest.raises(ValueError):
            scan(5, [0.5], eps_sequence=(1e-2, 1e-9))
        with pytest.raises(ValueError):
            lhs(RadialField(alpha=0.0, n=3), 0.0)

    @pytest.mark.parametrize("kwargs", [
        {"alpha": 0.5, "n": 5.5},
        {"alpha": 0.5, "n": 5.0},
        {"alpha": 0.5, "n": True},
    ])
    def test_field_rejects_bad_parameters(self, kwargs):
        with pytest.raises(ValueError):
            RadialField(**kwargs)

    @pytest.mark.parametrize("side", [lhs, rhs])
    @pytest.mark.parametrize("eps", [math.nan, math.inf, -1e-3])
    def test_bad_cutoff_rejected(self, side, eps):
        with pytest.raises(ValueError, match="eps"):
            side(RadialField(alpha=0.5, n=5), *([1.0] if side is rhs else []), eps)

    @pytest.mark.parametrize("m0", [math.nan, math.inf])
    def test_non_finite_mass_rejected(self, m0):
        with pytest.raises(ValueError, match="m0"):
            rhs(RadialField(alpha=0.5, n=5), m0, 1e-3)

    def test_scan_rejects_non_finite(self):
        # NaN compares false both ways, so it used to pass the decrease check
        with pytest.raises(ValueError, match="finite"):
            scan(5, [0.5], eps_sequence=(1e-2, math.nan, 1e-4))
        with pytest.raises(ValueError, match="finite"):
            scan(5, [0.5], eps_sequence=(math.inf, 1e-2, 1e-4))
        with pytest.raises(ValueError, match="finite"):
            scan(5, [0.5], m0=math.nan)

    def test_out_of_range_result_raises(self):
        # n = 400: Gamma(200) overflows and omega_400 underflows to 0
        with pytest.raises(ArithmeticError):
            lhs(RadialField(alpha=0.0, n=400), 1e-3)
        with pytest.raises(ArithmeticError):
            rhs(RadialField(alpha=0.0, n=400), 1.0, 1e-3)
        # n = 50, alpha = 23.9: (4 eps^2)^(a + i) overflows in the Gamma
        # recurrence, and the side is named instead of a bare OverflowError
        with pytest.raises(ArithmeticError, match=r"lhs = inf .* n=50\), eps = 1e-08"):
            lhs(RadialField(alpha=23.9, n=50), 1e-8)


def _profile(field, r):
    """phi(r) = r^(-alpha) e^(-r^2)."""
    return r ** (-field.alpha) * np.exp(-r * r)


def _dprofile(field, r):
    return -(field.alpha / r + 2.0 * r) * _profile(field, r)


def _quad_radial(f, eps):
    """int_eps^inf f(r) dr by adaptive quadrature in u = log r, cut at r = 30."""
    g = lambda u: f(np.exp(u)) * np.exp(u)
    val, err = quad(g, np.log(eps), np.log(30.0), limit=500, epsabs=0.0, epsrel=1e-11)
    assert err <= 1e-8 * abs(val)
    return val


def _oracle_cells():
    """Seeded (field, m0, eps) cells for n = 3..8.

    The pinned alphas put the lhs Gamma order a = (n - 4 alpha)/2 at 0
    (n = 5), -0.8 (n = 6), -1 (n = 7) and -1.8 (n = 8).
    """
    rng = np.random.default_rng(20171)
    pinned = {5: [1.25], 6: [1.9], 7: [2.25], 8: [2.9]}
    cells = []
    for n in range(3, 9):
        for alpha in [*rng.uniform(0.0, (n - 2) / 2, 3), *pinned.get(n, [])]:
            field = RadialField(alpha=float(alpha), n=n)
            for eps in 10.0 ** rng.uniform(-8.0, -2.0, 2):
                for m0 in (1.0, 0.3):
                    cells.append((field, m0, float(eps)))
    return cells


class TestQuadratureOracle:
    def test_grid_covers_every_gamma_branch(self):
        orders = {(f.n - 4.0 * f.alpha) / 2.0 for f, _, _ in _oracle_cells()}
        assert any(a > 0 for a in orders)
        assert 0.0 in orders and -1.0 in orders
        assert any(a < 0 and a != round(a) for a in orders)

    @pytest.mark.parametrize("n", range(3, 9))
    def test_matches_adaptive_quadrature(self, n):
        w = sphere_area(n)
        for field, m0, eps in (c for c in _oracle_cells() if c[0].n == n):
            phi, dphi = partial(_profile, field), partial(_dprofile, field)
            quartic = lambda r: phi(r) ** 4 * r ** (n - 1)
            gradient = lambda r: (dphi(r) ** 2 + m0**2 * phi(r) ** 2) * r ** (n - 1)
            l_ref = np.sqrt(w * _quad_radial(quartic, eps))
            r_ref = w * _quad_radial(gradient, eps)
            assert lhs(field, eps) == pytest.approx(l_ref, rel=1e-10, abs=0.0)
            assert rhs(field, m0, eps) == pytest.approx(r_ref, rel=1e-10, abs=0.0)


class TestSmallOrderGamma:
    @pytest.mark.parametrize("delta", [1e-3, 1e-6])
    def test_orders_near_non_positive_integers(self, delta):
        # a recurrence step through an order 0 < |a + j| = delta cancelled
        # about log10(1/delta) digits: 1.2e-10 at a = -1e-6, x = 0.04
        with mpmath.workdps(40):
            for m in (0, 1, 2):
                for a in (-m - delta, -m + delta):
                    for x in (1e-16, 1e-8, 4e-4, 0.04, 0.5, 0.99):
                        ref = mpmath.gammainc(a, x)
                        assert abs(_upper_gamma(a, x) - ref) <= 1e-14 * abs(ref), (a, x)

    def test_both_sides_of_the_series_window(self):
        # for x < 1 the series starts at a from a > -1/2 on (E1 at a = 0), and
        # below that at the order a + j nearest 0, from which the recurrence runs down
        with mpmath.workdps(40):
            for a in (-2.7, -2.0, -1.5, -0.5001, -0.4999, -0.3, 0.0, 0.2, 0.4999, 0.5, 1.3):
                for x in (1e-10, 0.3, 0.999):
                    ref = mpmath.gammainc(a, x)
                    assert abs(_upper_gamma(a, x) - ref) <= 1e-13 * abs(ref), (a, x)

    @pytest.mark.parametrize("a,x", [(-1e-6, 1.5), (-2.0 - 1e-6, 1.5), (-1e-6, 4.0)])
    def test_small_orders_past_x_one(self, a, x):
        # a recurrence through the order -1e-6 was off by 2.9e-9, 5.0e-9
        # and 1.1e-10 here; for x >= 1 the continued fraction takes a < 1/2
        with mpmath.workdps(40):
            ref = mpmath.gammainc(a, x)
            assert abs(_upper_gamma(a, x) - ref) <= 1e-13 * abs(ref)

    def test_continued_fraction_range(self):
        # from the x = 1 edge, where the fraction converges slowest, to a
        # deep recurrence at x = 100 that lost 5% (a = -9.75)
        with mpmath.workdps(40):
            for a in (-9.75, -4.5, -2.0, -0.5, -0.1, 0.0, 0.3, 0.4999):
                for x in (1.0, 1.2, 4.0, 30.0, 100.0):
                    ref = mpmath.gammainc(a, x)
                    assert abs(_upper_gamma(a, x) - ref) <= 1e-13 * abs(ref), (a, x)


class TestGammaEvaluators:
    """The series and the continued fraction each reach every order through
    the recurrence; mpmath at 40 digits is the reference."""

    @staticmethod
    def _worst(cells):
        worst = 0.0
        with mpmath.workdps(40):
            for a, x in cells:
                ref = mpmath.gammainc(a, x)
                worst = max(worst, float(abs((_upper_gamma(a, x) - ref) / ref)))
        return worst

    def test_upward_recurrence_past_x_one(self):
        # the continued fraction at b = a - m <= 1/2, then m steps up
        orders = (0.5, 0.75, 1.0, 1.5, 2.3, 5.0, 10.25, 17.5, 25.0, 33.3, 40.0)
        args = (1.0, 1.5, 4.0, 10.0, 30.0, 100.0, 250.0, 400.0)
        assert self._worst([(a, x) for a in orders for x in args]) <= 1e-13

    def test_series_from_order_one_half(self):
        # x < 1 and b >= 1/2: the series' first term is Gamma(b) - 1/b
        orders = (0.5, 0.7, 1.0, 1.5, 3.3, 10.0, 40.0)
        args = (1e-16, 1e-8, 4e-4, 0.04, 0.5, 0.99, 0.999999)
        assert self._worst([(a, x) for a in orders for x in args]) <= 1e-13

    def test_zeta_constants(self):
        # zeta(k)/k for k = 63 down to 2, by Euler-Maclaurin past n = 1000
        with mpmath.workdps(40):
            for k, c in zip(range(63, 1, -1), _ZETA_OVER_K):
                ref = mpmath.zeta(k)
                assert abs(c * k - ref) <= 4.2e-16 * ref, k

    def test_infinite_argument(self):
        # c eps^2 overflows to inf for a cutoff past 1e154
        assert all(_upper_gamma(a, math.inf) == 0.0 for a in (-2.5, -1.0, 0.0, 0.3, 7.0))


class TestSphereArea:
    def test_matches_mpmath(self):
        with mpmath.workdps(40):
            for n in range(2, 344):
                h = mpmath.mpf(n) / 2
                ref = 2 * mpmath.pi**h / mpmath.gamma(h)
                assert abs(sphere_area(n) - ref) <= 1e-14 * ref, n

    @pytest.mark.parametrize("n", [344, 1240, 1242, 1300, 10**6])
    def test_zero_once_gamma_overflows(self, n):
        # n = 1240 gave nan with a RuntimeWarning, and n >= 1242 raised a bare
        # OverflowError from pi^(n/2)
        assert sphere_area(n) == 0.0


class TestGaussianOracles:
    def test_lhs_closed_form_n3(self):
        # {omega_3 int r^2 e^(-4 r^2) dr}^(1/2), alpha = 0
        got = lhs(RadialField(alpha=0.0, n=3), 1e-8)
        ref = np.sqrt(sphere_area(3) * gamma(1.5) / (2.0 * 4.0**1.5))
        assert abs(got - ref) < 1e-8

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_rhs_closed_form(self, n):
        # alpha = 0: phi' = -2r phi, so the integrand is
        # (4 r^2 + m0^2) e^(-2 r^2) r^(n-1); both pieces are Gamma integrals
        m0 = 1.7
        got = rhs(RadialField(alpha=0.0, n=n), m0, 1e-8)
        grad = 4.0 * gamma((n + 2) / 2) / (2.0 * 2.0 ** ((n + 2) / 2))
        mass = m0**2 * gamma(n / 2) / (2.0 * 2.0 ** (n / 2))
        assert abs(got - sphere_area(n) * (grad + mass)) < 1e-8

    def test_mass_term_linearity(self):
        f = RadialField(alpha=0.3, n=5)
        diff = rhs(f, 1.0, 1e-6) - rhs(f, 0.0, 1e-6)
        ref = sphere_area(5) * gamma(5 / 2 - 0.3) / (2.0 * 2.0 ** (5 / 2 - 0.3))
        assert abs(diff - ref) < 1e-8


class TestPowerCounting:
    def test_lhs_divergence_slope(self):
        f = RadialField(alpha=1.3, n=5)
        eps = np.geomspace(1e-6, 1e-8, 4)
        vals = [lhs(f, e) for e in eps]
        slope = np.polyfit(np.log(eps), np.log(vals), 1)[0]
        assert abs(slope - lhs_slope_expected(f)) < 0.05
        assert lhs_slope_expected(f) == pytest.approx(-(4 * 1.3 - 5) / 2)

    def test_lhs_converges_below_quarter_n(self):
        # 4 - 4 alpha = -0.8 > -1: integrable at the origin, so lhs(eps)
        # approaches a finite limit like eps^0.2 -- gaps must shrink
        f = RadialField(alpha=1.2, n=5)
        vals = [lhs(f, e) for e in (1e-4, 1e-6, 1e-8)]
        gaps = np.abs(np.diff(vals))
        assert gaps[1] < 0.5 * gaps[0]
        assert lhs_slope_expected(f) == 0.0

    def test_rhs_cauchy_convergence(self):
        f = RadialField(alpha=1.3, n=5)
        vals = [rhs(f, 1.0, e) for e in (1e-4, 1e-5, 1e-6, 1e-7)]
        gaps = np.abs(np.diff(vals))
        assert all(a > b for a, b in zip(gaps, gaps[1:]))

    def test_rhs_grows_toward_integrability_boundary(self):
        vals = [rhs(RadialField(alpha=a, n=5), 1.0, 1e-6) for a in (1.0, 1.3, 1.45)]
        assert vals[0] < vals[1] < vals[2]
        # inside the admissible window 2 alpha + 2 - n < 0: rhs never diverges
        assert rhs_slope_expected(RadialField(alpha=1.45, n=5)) == 0.0


class TestScan:
    def test_low_dimension_bounded(self):
        report = scan(3, np.linspace(0.0, 0.49, 6))
        assert report.max_ratio <= (4.0 / 3.0) * 1.1
        assert not any(v["lhs_divergent"] or v["rhs_divergent"] for v in report.verdicts)

    def test_boundary_dimension_bounded(self):
        report = scan(4, [0.5, 0.99])
        assert not any(v["lhs_divergent"] for v in report.verdicts)

    def test_high_dimension_separates(self):
        report = scan(5, [0.8, 1.3])
        by_alpha = {v["alpha"]: v for v in report.verdicts}
        assert not by_alpha[0.8]["lhs_divergent"]
        assert by_alpha[1.3]["lhs_divergent"]
        assert not by_alpha[1.3]["rhs_divergent"]
        assert abs(by_alpha[1.3]["lhs_slope"] - (-0.1)) < 0.05
