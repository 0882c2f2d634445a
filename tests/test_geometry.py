"""Fubini-Study metric and curvature checks against closed-form geometry."""

import numpy as np
import pytest
from references import (
    SpinPQChart,
    canonical_stencil_jet,
    fiducial_metric_coeffs,
    squeezed_ground_state,
)

import enhq.coherent
from enhq.coherent import AffineFamily, CanonicalFamily, ChartBoundaryError, SpinFamily
from enhq.geometry import fs_metric, gaussian_curvature
from enhq.hilbert import basis_state, make_fock_space


class TestCanonicalMetric:
    @pytest.mark.parametrize("hbar", [1.0, 0.25])
    def test_flat_identity(self, hbar):
        fam = CanonicalFamily(N=100, hbar=hbar)
        for p, q in ((0.0, 0.0), (1.0, -1.0), (0.5, 2.0)):
            m = fs_metric(fam, (p, q))
            assert np.max(np.abs(m.as_matrix() - np.eye(2))) < 1e-6

    def test_flat_curvature(self):
        rep = gaussian_curvature(CanonicalFamily(N=100), (0.2, -0.3))
        assert abs(rep.K) < 1e-4

    def test_positive_definite(self):
        m = fs_metric(CanonicalFamily(N=100), (1.0, 1.0))
        assert m.is_positive_definite()


class TestAffineMetric:
    # the exact jet at the fiducial, far from it, at small hbar and near q = 0;
    # grid-sampled states gave g_pp = 357158.6 at q = 1000 and could not resolve q = 0.01
    POINTS = [(1.0, 1.0, 0.3, 0.5), (1.0, 1.0, 0.3, 1.0), (1.0, 1.0, 0.3, 2.0),
              (1.0, 1.0, 0.0, 1000.0), (1.0, 0.01, 0.3, 1.0), (1.0, 0.01, 0.3, 2.0),
              (1.0, 1.0, 0.0, 0.01), (0.5, 0.25, -0.4, 0.005), (2.0, 1.0, 0.0, 1e4)]

    def test_components(self):
        # the Poincare half-plane (q^2/beta, 0, beta/q^2) to rounding
        for beta, hbar, p, q in self.POINTS:
            m = fs_metric(AffineFamily(beta, hbar), (p, q))
            assert abs(m.g_pp - q * q / beta) <= 1e-12 * q * q / beta, (beta, hbar, p, q)
            assert abs(m.g_qq - beta / (q * q)) <= 1e-12 * beta / (q * q), (beta, hbar, p, q)
            assert m.g_pq == 0.0

    def test_beta_scaling(self):
        fam = AffineFamily(2.0, 1.0)
        m = fs_metric(fam, (0.0, 1.0))
        assert abs(m.g_pp - 0.5) < 1e-5
        assert abs(m.g_qq - 2.0) < 1e-5

    def test_curvature_matches_metric(self):
        # Brioschi curvature of beta^-1 q^2 dp^2 + beta q^-2 dq^2 is -1/beta
        for beta in (0.5, 1.0, 2.0):
            hbar = 0.25 if beta == 0.5 else 1.0
            rep = gaussian_curvature(AffineFamily(beta, hbar), (0.0, 1.0))
            assert abs(rep.K + 1.0 / beta) < 1e-3 / beta
        # grid-sampled states gave K = -1.836, -0.99958 and -0.99337 at these points
        for hbar, p, q, tol in ((1.0, 0.0, 1000.0, 1e-3), (0.01, 0.3, 1.0, 1e-6),
                                (0.01, 0.3, 2.0, 1e-6)):
            assert abs(gaussian_curvature(AffineFamily(1.0, hbar), (p, q)).K + 1.0) <= tol, q

    def test_curvature_point_independent(self):
        fam = AffineFamily(1.0, 1.0)
        ks = [gaussian_curvature(fam, (0.0, q)).K for q in np.linspace(0.3, 3.0, 6)]
        assert np.ptp(ks) / abs(np.mean(ks)) < 1e-3

    def test_boundary_rejected(self):
        # the metric is exact up to q = 0; the curvature's 2 CURVATURE_STEP stencil is not
        fam = AffineFamily(1.0, 1.0)
        with pytest.raises(ChartBoundaryError):
            gaussian_curvature(fam, (0.0, 1e-4))
        with pytest.raises(ChartBoundaryError):
            fs_metric(fam, (0.0, 0.0))


class TestSpinMetric:
    @pytest.mark.parametrize("s", [0.5, 1.0, 1.5])
    def test_round_sphere(self, s):
        fam = SpinFamily(s, 1.0)
        theta = np.pi / 3
        m = fs_metric(fam, (theta, 0.8))
        ref = np.diag([s, s * np.sin(theta) ** 2])
        assert np.max(np.abs(m.as_matrix() - ref)) < 1e-6

    @pytest.mark.parametrize("s", [0.5, 1.0, 1.5])
    def test_curvature(self, s):
        rep = gaussian_curvature(SpinFamily(s, 1.0), (np.pi / 2, 0.8))
        assert abs(rep.K - 1.0 / s) < 1e-3

    def test_pq_chart_metric_consistency(self):
        # the (p, q) = (sqrt(sh) cos(theta), sqrt(sh) phi) chart must give
        # an isometric metric: ds^2 there is dp^2/(1-p^2/sh) + (1-p^2/sh) dq^2
        s = 1.0
        fam = SpinFamily(s, 1.0)
        p = 0.3
        m = fs_metric(SpinPQChart(fam), (p, 0.5))
        w = 1.0 - p * p / s
        assert abs(m.g_pp - 1.0 / w) < 1e-5
        assert abs(m.g_qq - w) < 1e-5
        assert abs(m.g_pq) < 1e-6

    @pytest.mark.parametrize("s", [0.5, 1.0, 1.5])
    @pytest.mark.parametrize("theta,phi", [(np.pi / 3, 0.8), (np.pi / 2, 2.0), (2.2, 4.5)])
    def test_chart_covariance(self, s, theta, phi):
        # a change of chart relabels the same states: with p = r cos(theta),
        # q = r phi, r = sqrt(s hbar), the metrics are related by the
        # Jacobian J = d(theta, phi)/d(p, q) and the curvature is a scalar
        fam = SpinFamily(s, 1.0)
        r = np.sqrt(s * fam.hbar)
        angles, pq = (theta, phi), (r * np.cos(theta), r * phi)
        jac = np.diag([-1.0 / (r * np.sin(theta)), 1.0 / r])
        g_angles = fs_metric(fam, angles).as_matrix()
        g_pq = fs_metric(SpinPQChart(fam), pq).as_matrix()
        assert np.max(np.abs(g_pq - jac.T @ g_angles @ jac)) < 1e-6
        k_angles = gaussian_curvature(fam, angles).K
        k_pq = gaussian_curvature(SpinPQChart(fam), pq).K
        assert abs(k_pq - k_angles) < 1e-3

    @pytest.mark.parametrize("hbar", [1.0, 0.25])
    @pytest.mark.parametrize("s", [1.5, 10.0, 50.0, 250.0, 500.0])
    def test_large_spin_round_sphere(self, s, hbar):
        # the stencil jet's step shrinks as 1/sqrt(s): with a fixed step,
        # s = 500 read g_vv 1.8% and K 10% low at theta = 0.2
        fam = SpinFamily(s, hbar)
        r = s * hbar
        for theta in (0.2, 0.7, 1.5, 2.9):
            m = fs_metric(fam, (theta, 0.4))
            w = np.sin(theta) ** 2
            assert abs(m.g_pp - r) <= 1e-6 * r and abs(m.g_qq - r * w) <= 1e-6 * r * w
            assert abs(m.g_pq) <= 1e-6 * r
            rep = gaussian_curvature(fam, (theta, 0.4))
            assert abs(rep.K - 1.0 / r) <= min(1e-5 / r, rep.error)

    def test_pole_rejected(self):
        fam = SpinFamily(1.0, 1.0)
        with pytest.raises(ChartBoundaryError):
            fs_metric(fam, (1e-4, 0.0))
        with pytest.raises(ChartBoundaryError):
            gaussian_curvature(fam, (0.1, 0.0))


class TestNoStateVectorInGeometry:
    """The metric and curvature read bare coefficient arrays: no family builds
    a validated `StateVector` on their path."""

    @pytest.mark.parametrize("make, point", [
        (lambda: CanonicalFamily(N=60, hbar=0.5), (0.4, -0.3)),
        (lambda: SpinFamily(2.0, 1.0), (1.1, 0.6)),
    ], ids=["canonical", "spin"])
    def test_geometry_builds_no_state_vector(self, monkeypatch, make, point):
        def refuse(*args, **kwargs):
            raise AssertionError("StateVector built on the geometry path")

        family = make()
        monkeypatch.setattr(enhq.coherent, "StateVector", refuse)
        assert fs_metric(family, point).is_positive_definite()
        assert np.isfinite(gaussian_curvature(family, point).K)


class TestCanonicalJet:
    @pytest.mark.parametrize("hbar", [1.0, 0.25])
    @pytest.mark.parametrize("point", [(0.0, 0.0), (0.2, -0.4), (1.5, 2.0), (-3.0, 0.7)])
    def test_exact_jet_matches_stencil_jet(self, hbar, point):
        # the exact tangents against the stencil jet of the same state map
        fam = CanonicalFamily(N=100, hbar=hbar)
        jet, _ = fam.chart(point, 0.0)
        for got, ref in zip(jet(*point), canonical_stencil_jet(fam)(*point)):
            assert np.max(np.abs(got - ref)) < 1e-8


class TestPhaseInvariance:
    def test_synthetic_phase_change(self):
        # multiplying the state map by exp(i alpha(p, q)) must not move the metric;
        # the jet rephases by the product rule d(e^(ia) psi) = e^(ia)(d psi + i da psi)
        base = CanonicalFamily(N=100)

        class Rephased:
            hbar = base.hbar

            @staticmethod
            def chart(point, margin):
                jet, inner = base.chart(point, margin)

                def rephased(p, q):
                    psi, dp, dq = jet(p, q)
                    e = np.exp(1j * (0.7 * p * q + 0.3 * p))
                    return (e * psi, e * (dp + 1j * (0.7 * q + 0.3) * psi),
                            e * (dq + 1j * 0.7 * p * psi))

                return rephased, inner

        plain = fs_metric(base, (0.4, 0.9)).as_matrix()
        rephased = fs_metric(Rephased(), (0.4, 0.9)).as_matrix()
        assert np.max(np.abs(plain - rephased)) < 1e-8


class TestFiducialCoeffs:
    def test_ground_state(self):
        sp = make_fock_space(100, 1.0)
        a, b, c = fiducial_metric_coeffs(basis_state(sp, 0))
        assert (a, b, c) == pytest.approx((0.5, 0.0, 0.5), abs=1e-10)

    def test_squeezed_state(self):
        lam = 1.4
        sp = make_fock_space(100, 1.0)
        a, b, c = fiducial_metric_coeffs(squeezed_ground_state(sp, lam))
        assert a == pytest.approx(lam**2 / 2, abs=1e-8)
        assert c == pytest.approx(1 / (2 * lam**2), abs=1e-8)
        assert b == pytest.approx(0.0, abs=1e-8)

    def test_first_excited(self):
        sp = make_fock_space(100, 1.0)
        a, b, c = fiducial_metric_coeffs(basis_state(sp, 1))
        assert (a, b, c) == pytest.approx((1.5, 0.0, 1.5), abs=1e-10)

    @pytest.mark.parametrize("which", ["ground", "squeezed", "excited"])
    def test_footnote_formula_matches_fs_metric(self, which):
        # the canonical jet is exact, so the metric meets the closed form to rounding
        for hbar in (1.0, 0.25, 0.05):
            sp = make_fock_space(100, hbar)
            fid = {
                "ground": basis_state(sp, 0),
                "squeezed": squeezed_ground_state(sp, 1.3),
                "excited": basis_state(sp, 1),
            }[which]
            fam = CanonicalFamily(space=sp, fiducial=fid)
            a, b, c = fiducial_metric_coeffs(fid)
            ref = (2.0 / sp.hbar) * np.array([[a, b / 2], [b / 2, c]])
            got = fs_metric(fam, (0.2, -0.4)).as_matrix()
            assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref)), hbar
