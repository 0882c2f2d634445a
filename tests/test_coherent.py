"""Coherent-state family checks, with analytic oracles where available."""

import gc
import math
import weakref

import mpmath
import numpy as np
import pytest
import scipy.linalg
from scipy.special import gammaln
from references import (
    SpinPQChart,
    affine_fiducial_wavefunction,
    canonical_state_uncached,
    hermite_functions,
    overlap,
    quadrature_expect_laurent,
    sampled_affine_state,
    spin_operators,
    spin_state_uncached,
    squeezed_ground_state,
    unitary_from_hermitian,
    xrep,
)

import enhq.coherent
from enhq.coherent import (
    AffineFamily,
    CanonicalFamily,
    SpinFamily,
    affine_moment,
    _ladder_spectrum,
)
from enhq.geometry import fs_metric
from enhq.hilbert import StateVector, basis_state, expectation, make_fock_space


# ---------------------------------------------------------------- canonical


class TestCanonical:
    def test_origin_is_fiducial(self):
        fam = CanonicalFamily(N=100)
        st = fam.state(0.0, 0.0)
        assert np.allclose(st.coeffs, basis_state(fam.space, 0).coeffs)

    @pytest.mark.parametrize("point", [(6.0, 6.0), (4.0, 4.0)])
    def test_truncated_tail_rejected(self, point):
        # at N = 40 the top 5 Fock levels hold 0.49 of the norm at (6, 6),
        # where <Q> reads 3 instead of 6, and 2.7e-5 at (4, 4)
        with pytest.raises(ValueError, match="top 5 of 40 Fock levels"):
            CanonicalFamily(N=40).state(*point)

    @pytest.mark.parametrize("N", [2, 5])
    def test_truncation_must_exceed_tail_levels(self, N):
        # at N <= 5 the guard counted the whole space, fiducial included
        with pytest.raises(ValueError, match="N > 5"):
            CanonicalFamily(N=N)
        CanonicalFamily(N=6).state(0.0, 0.0)

    def test_tail_guard_passes_resolved_states(self):
        # 4e-11 at (3, 3) for N = 40; about 1e-32 over the benchmark's
        # N = 100 points and their stencils
        CanonicalFamily(N=40).state(3.0, 3.0)
        for hbar in (1.0, 0.5, 0.25):
            fam = CanonicalFamily(N=100, hbar=hbar)
            for p in np.linspace(-1.5, 1.5, 7):
                for q in np.linspace(-1.5, 1.5, 7):
                    fam.state(p, q)

    @pytest.mark.parametrize("point", [(-0.5852891519223444, -1.9523610466359287), (2.0, 0.0),
                                       (2.5, 0.0)])
    def test_aliased_state_rejected(self, point):
        # at hbar = 0.01 these pass the tail guard, but the truncation folds
        # them back: mean Fock level 36.9, 34.6 and 5.5 against 207.7, 200 and 312.5
        with pytest.raises(ValueError, match="mean Fock level"):
            CanonicalFamily(N=100, hbar=0.01).state(*point)

    def test_mean_level_guard_passes_custom_fiducials(self):
        # the exact mean level reads the fiducial's <n>, <Q> and <P>
        sp = make_fock_space(60, 0.5)
        rng = np.random.default_rng(5)
        c = np.zeros(60, dtype=complex)
        c[:6] = rng.normal(size=6) + 1j * rng.normal(size=6)
        for fid in (StateVector(c / np.linalg.norm(c), sp), squeezed_ground_state(sp, 1.3)):
            fam = CanonicalFamily(space=sp, fiducial=fid)
            for p, q in rng.uniform(-1.5, 1.5, size=(10, 2)):
                fam.state(p, q)

    @pytest.mark.parametrize("point", [(np.nan, 0.0), (0.0, np.inf)])
    def test_non_finite_point_rejected(self, point):
        with pytest.raises(ValueError, match="finite"):
            CanonicalFamily(N=20).state(*point)

    def test_normalized_everywhere(self):
        fam = CanonicalFamily(N=100)
        for p, q in ((0.3, -1.2), (2.0, 2.0), (-1.5, 0.4)):
            assert abs(np.linalg.norm(fam.state(p, q).coeffs) - 1.0) < 1e-12

    def test_phase_space_expectations(self):
        fam = CanonicalFamily(N=100)
        st = fam.state(1.0, 2.0)
        assert abs(expectation(st, fam.Q).real - 2.0) < 1e-6
        assert abs(expectation(st, fam.P).real - 1.0) < 1e-6

    def test_gaussian_overlap_oracle(self):
        fam = CanonicalFamily(N=100)
        origin = fam.state(0.0, 0.0)
        for p, q in ((0.5, 0.5), (1.0, -1.0), (0.0, 1.7)):
            got = abs(overlap(origin, fam.state(p, q)))
            assert abs(got - np.exp(-(p * p + q * q) / 4.0)) < 1e-6

    def test_truncation_error_estimate(self):
        # doubling N barely moves moderate-amplitude expectations
        coarse = CanonicalFamily(N=100)
        fine = CanonicalFamily(N=200)
        vals = []
        for fam in (coarse, fine):
            st = fam.state(1.0, 1.5)
            vals.append(expectation(st, fam.Q @ fam.Q).real)
        assert abs(vals[0] - vals[1]) < 1e-8

    def test_continuity_linear_in_delta(self):
        fam = CanonicalFamily(N=100)
        base = fam.state(0.5, 0.5).coeffs
        dists = []
        for delta in (1e-3, 1e-4):
            dists.append(np.linalg.norm(fam.state(0.5 + delta, 0.5).coeffs - base))
        assert dists[0] / dists[1] == pytest.approx(10.0, rel=0.05)

    def test_with_hbar_keeps_custom_fiducial(self):
        # the squeezed ground state has hbar-independent Fock coefficients
        sp = make_fock_space(40, 1.0)
        fam = CanonicalFamily(space=sp, fiducial=squeezed_ground_state(sp, 1.3))
        moved = fam.with_hbar(0.25)
        assert moved.hbar == 0.25
        assert np.array_equal(moved.fiducial.coeffs, fam.fiducial.coeffs)
        ref = squeezed_ground_state(make_fock_space(40, 0.25), 1.3)
        assert abs(abs(overlap(moved.fiducial, ref)) - 1.0) < 1e-10
        assert expectation(moved.fiducial, moved.Q @ moved.Q).real == pytest.approx(
            1.3**2 * 0.25 / 2, abs=1e-8)

    def test_xrep_ground_state(self):
        fam = CanonicalFamily(N=100)
        x = np.linspace(-8.0, 8.0, 1601)
        samples = xrep(fam, 0.0, 0.0, x)
        gauss = np.pi**-0.25 * np.exp(-(x**2) / 2.0)
        assert np.max(np.abs(samples - gauss)) < 1e-6

    def test_xrep_modulus_independent_of_p(self):
        fam = CanonicalFamily(N=100)
        x = np.linspace(-7.0, 9.0, 1601)
        a = np.abs(xrep(fam, 0.0, 1.0, x))
        b = np.abs(xrep(fam, 2.0, 1.0, x))
        assert np.max(np.abs(a - b)) < 1e-10

    def test_xrep_matches_fock_construction(self):
        fam = CanonicalFamily(N=100)
        x = np.linspace(-8.0, 10.0, 3001)
        direct = xrep(fam, 1.0, 1.0, x)
        via_fock = fam.state(1.0, 1.0).coeffs @ hermite_functions(fam.space.dim, x, fam.hbar)
        ov = np.trapezoid(np.conj(direct) * via_fock, x)
        # the two constructions may differ by the displacement phase only
        assert abs(abs(ov) - 1.0) < 1e-6
        assert np.max(np.abs(np.abs(direct) - np.abs(via_fock))) < 1e-6


# ------------------------------------------------------------------- affine


class TestAffine:
    def test_rejects_non_normalizable(self):
        with pytest.raises(ValueError):
            AffineFamily(0.5, 1.0)
        with pytest.raises(ValueError):
            AffineFamily(-1.0, 1.0)
        for beta, hbar in ((np.nan, 1.0), (1.0, np.nan), (np.inf, 1.0), (1.0, np.inf)):
            with pytest.raises(ValueError, match="finite"):
                AffineFamily(beta, hbar)

    def test_state_matches_log_amplitude_formula(self):
        # the sampled reference state's log amplitude is
        # log M + (k-1)/2 (log x - log q) - beta x / (q hbar) - 1/2 log q
        for beta, hbar in ((1.0, 1.0), (2.0, 0.5), (0.5, 0.25)):
            k = 2.0 * beta / hbar
            log_m = 0.5 * (k * np.log(k) - gammaln(k))
            for p, q in ((0.0, 1.0), (0.7, 0.6), (-1.3, 2.5)):
                st = sampled_affine_state(AffineFamily(beta, hbar), p, q, center=q)
                x = st.grid.nodes
                ref = np.exp(log_m + 0.5 * (k - 1.0) * (np.log(x) - np.log(q))
                             - beta * x / (q * hbar) - 0.5 * np.log(q) + 1j * p * x / hbar)
                assert np.max(np.abs(st.samples - ref)) <= 1e-14 * np.max(np.abs(ref)), (beta, p, q)

    def test_fiducial_normalized_with_unit_mean(self):
        fam = AffineFamily(1.0, 1.0)
        fid = sampled_affine_state(fam, 0.0, 1.0)
        assert abs(fid.norm() - 1.0) < 1e-8
        assert abs(fam.expect_power(1) - 1.0) < 1e-8

    def test_fiducial_second_moment(self):
        for beta, hbar in ((1.0, 1.0), (2.0, 0.5)):
            fam = AffineFamily(beta, hbar)
            assert abs(fam.expect_power(2) - (1.0 + hbar / (2 * beta))) < 1e-8

    def test_fiducial_eigen_equation(self):
        # [(Q - 1) + i D / beta] |beta> = 0 with D = -i hbar (x d/dx + 1/2),
        # derivative by fourth-order central differences on a uniform grid
        beta, hbar = 1.0, 1.0
        psi_at = lambda x: affine_fiducial_wavefunction(beta, hbar, x)
        x = np.linspace(0.1, 10.0, 991)
        h = 1e-3
        psi = psi_at(x)
        dpsi = (psi_at(x - 2 * h) - 8 * psi_at(x - h)
                + 8 * psi_at(x + h) - psi_at(x + 2 * h)) / (12 * h)
        d_psi = -1j * hbar * (x * dpsi + 0.5 * psi)
        residual = (x - 1.0) * psi + 1j * d_psi / beta
        assert np.max(np.abs(residual)) / np.max(np.abs(psi)) < 1e-8

    def test_fiducial_dilation_expectation_vanishes(self):
        from enhq.wcp import enhanced_hamiltonian, parse_hamiltonian

        fam = AffineFamily(1.0, 1.0)
        d = parse_hamiltonian("D", "affine")
        assert abs(enhanced_hamiltonian(d, fam, 0.0, 1.0)) < 1e-8

    def test_unit_point_is_fiducial(self):
        fam = AffineFamily(1.0, 1.0)
        a = sampled_affine_state(fam, 0.0, 1.0)
        b = affine_fiducial_wavefunction(1.0, 1.0, a.grid.nodes)
        assert np.allclose(a.samples, b)

    def test_norm_preserved_off_center(self):
        fam = AffineFamily(1.0, 1.0)
        assert abs(sampled_affine_state(fam, 3.0, 0.2, center=0.2).norm() - 1.0) < 1e-8

    def test_unresolved_state_rejected(self):
        # the grid centred at q = 1 under-resolves q = 1.2, where norm() would read 2.8e11
        fam = AffineFamily(1.0, 1.0)
        with pytest.raises(ValueError, match="does not resolve"):
            sampled_affine_state(fam, 0.3, 1.2)
        assert abs(sampled_affine_state(fam, 0.3, 1.2, center=1.2).norm() - 1.0) < 1e-8

    def test_coherent_expectations(self):
        from enhq.wcp import enhanced_hamiltonian, parse_hamiltonian

        fam = AffineFamily(1.0, 1.0)
        q_spec = parse_hamiltonian("Q", "affine")
        d_spec = parse_hamiltonian("D", "affine")
        for p, q in ((0.0, 2.0), (1.5, 0.7), (-2.0, 1.3)):
            assert abs(enhanced_hamiltonian(q_spec, fam, p, q) - q) < 1e-8
            assert abs(enhanced_hamiltonian(d_spec, fam, p, q) - p * q) < 1e-8

    def test_chart_boundary_rejected(self):
        fam = AffineFamily(1.0, 1.0)
        for p, q in ((0.0, -1.0), (np.nan, 1.0), (0.0, np.nan), (0.0, np.inf)):
            with pytest.raises(ValueError, match="affine chart"):
                fs_metric(fam, (p, q))
            with pytest.raises(ValueError, match="affine chart"):
                fam.expect_laurent({1: 1.0}, p, q)

    @pytest.mark.parametrize("beta,hbar", [(1.0, 1.0), (1.0, 0.25), (2.0, 0.5)])
    def test_moments_match_gamma_oracle(self, beta, hbar):
        fam = AffineFamily(beta, hbar)
        for n in range(-1, 5):
            got = fam.expect_power(n)
            ref = affine_moment(beta, hbar, n)
            assert abs(got - ref) < 1e-7

    @pytest.mark.parametrize("beta,hbar", [(1.0, 1.0), (1.0, 0.25), (2.0, 0.5), (0.7, 0.9)])
    def test_exact_moments_match_quadrature(self, beta, hbar):
        # the Gauss-Gamma quadrature of the Gamma density that the exact
        # sums replaced; it integrates x^e exactly up to rounding
        fam = AffineFamily(beta, hbar)
        words = ({1: 1.0}, {-1: 0.5, 0: -1.0 + 0.5j, 2: 2.0}, {0: 1.0, 1: -0.3j, 3: 0.2, 4: 1.5})
        for q in (0.3, 1.0, 2.7):
            for coeffs in words:
                got = fam.expect_laurent(coeffs, 0.4, q)
                ref = quadrature_expect_laurent(fam, coeffs, 0.4, q)
                scale = sum(abs(c) * fam.expect_power(e, 0.4, q) for e, c in coeffs.items())
                assert abs(got - ref) <= 1e-12 * scale

    @pytest.mark.parametrize("beta,hbar", [(1.0, 0.25), (2.0, 0.05), (0.5 + 1e-7, 1.0),
                                           (0.5005, 1.0), (0.75, 1.0), (3.7, 0.9)])
    def test_exact_moments_match_mpmath(self, beta, hbar):
        # k = 2 beta / hbar reaches down to 1 + 2e-7, where <x^-1> ~ 1/(k - 1)
        fam = AffineFamily(beta, hbar)
        k = mpmath.mpf(fam.k)
        with mpmath.workdps(40):
            for q in (0.2, 1.0, 3.3):
                for e in range(-3, 7):
                    if fam.k + e <= 0:
                        continue
                    ref = (mpmath.mpf(q) / k) ** e * mpmath.gamma(k + e) / mpmath.gamma(k)
                    got = fam.expect_laurent({e: 1.0}, 0.0, q)
                    assert got.imag == 0.0
                    assert abs(got.real - ref) <= 1e-14 * ref, (e, q)

    def test_divergent_moment_rejected(self):
        fam = AffineFamily(1.0, 1.0)  # k = 2: <x^-1> is finite, <x^-2> is not
        fam.expect_laurent({-1: 1.0}, 0.0, 1.0)
        with pytest.raises(ValueError, match="diverges"):
            fam.expect_laurent({-2: 1.0, 1: 1.0}, 0.0, 1.0)

    def test_moment_oracle_values(self):
        assert affine_moment(1.0, 1.0, 0) == pytest.approx(1.0)
        assert affine_moment(1.0, 1.0, 1) == pytest.approx(1.0)
        assert affine_moment(1.0, 0.1, -1) == pytest.approx(20.0 / 19.0)

    def test_moment_oracle_validation(self):
        with pytest.raises(ValueError):
            affine_moment(1.0, 1.0, -2)
        with pytest.raises(ValueError):
            affine_moment(-1.0, 1.0, 1)
        for beta, hbar in ((np.nan, 1.0), (1.0, np.nan), (np.inf, 1.0), (1.0, np.inf)):
            with pytest.raises(ValueError, match="finite"):
                affine_moment(beta, hbar, 1)


# --------------------------------------------------------------------- spin


class TestSpin:
    def test_north_pole_is_highest_weight(self):
        fam = SpinFamily(1.5, 1.0)
        st = fam.state(0.0, 0.0)
        assert np.allclose(st.coeffs, basis_state(fam.space, 0).coeffs)

    @pytest.mark.parametrize("s", [0.5, 1.0, 1.5])
    def test_s3_expectation(self, s):
        fam = SpinFamily(s, 1.0)
        s3 = spin_operators(s, 1.0)[2]
        for theta in (0.3, 1.2, 2.5):
            st = fam.state(theta, 0.7)
            got = expectation(st, s3).real
            assert abs(got - s * np.cos(theta)) < 1e-10

    def test_bloch_vector_length(self):
        fam = SpinFamily(1.0, 0.5)
        ops = spin_operators(fam.s, fam.hbar)
        for theta, phi in ((0.4, 1.0), (1.5, 4.0), (2.8, 0.1)):
            st = fam.state(theta, phi)
            v = np.array([expectation(st, op).real for op in ops])
            assert abs(np.linalg.norm(v) - fam.s * fam.hbar) < 1e-10

    def test_half_spin_bloch_parametrization(self):
        fam = SpinFamily(0.5, 1.0)
        theta, phi = 1.1, 2.3
        st = fam.state(theta, phi).coeffs
        ref = np.array(
            [np.exp(-1j * phi / 2) * np.cos(theta / 2),
             np.exp(1j * phi / 2) * np.sin(theta / 2)]
        )
        ref = ref * (st[0] / ref[0] / abs(st[0] / ref[0]))  # common phase
        assert np.max(np.abs(st - ref)) < 1e-12

    def test_angle_validation(self):
        fam = SpinFamily(1.0, 1.0)
        for theta, phi in ((-0.1, 0.0), (-1e-300, 0.0), (np.nextafter(np.pi, 4.0), 0.0),
                           (math.nan, 0.0), (1.0, 7.0), (1.0, -1e-300), (1.0, 2.0 * np.pi),
                           (1.0, math.nan)):
            with pytest.raises(ValueError, match="must lie in"):
                fam.state(theta, phi)

    def test_chart_edges_are_states(self):
        fam = SpinFamily(1.0, 1.0)
        for theta, phi in ((0.0, 0.0), (np.pi, 0.0), (1.0, np.nextafter(2.0 * np.pi, 0.0))):
            assert abs(np.linalg.norm(fam.state(theta, phi).coeffs) - 1.0) < 1e-12

    def test_pq_chart_consistency(self):
        fam = SpinFamily(1.0, 1.0)
        r = np.sqrt(fam.s * fam.hbar)
        theta, phi = 1.2, 0.9
        point = (r * np.cos(theta), r * phi)
        jet, _ = SpinPQChart(fam).chart(point, 0.0)
        a = fam.state(theta, phi).coeffs
        assert abs(abs(np.vdot(a, jet(*point)[0])) - 1.0) < 1e-12


class TestStateMatchesJet:
    """`state` wraps the coefficients the chart's jet reads, bit for bit."""

    @pytest.mark.parametrize("hbar", [1.0, 0.25])
    @pytest.mark.parametrize("point", [(0.0, 0.0), (0.3, -1.2), (-2.0, 0.7)])
    def test_canonical(self, hbar, point):
        fam = CanonicalFamily(N=60, hbar=hbar)
        jet, _ = fam.chart(point, 0.0)
        c = fam._vu @ jet(*point)[0]  # the jet leaves out the unitary vu
        assert fam.state(*point).coeffs.tobytes() == (c / np.linalg.norm(c)).tobytes()

    @pytest.mark.parametrize("s, hbar", [(0.5, 1.0), (3.0, 0.25), (250.0, 1.0)])
    @pytest.mark.parametrize("point", [(0.3, 0.0), (1.5, 4.0), (2.9, 6.2)])
    def test_spin(self, s, hbar, point):
        fam = SpinFamily(s, hbar)
        jet, _ = fam.chart(point, 0.0)
        assert fam.state(*point).coeffs.tobytes() == jet(*point)[0].tobytes()


# ---------------------------------------------------------- ladder spectrum


class TestLadderSpectrum:
    """Both families step on the cached spectrum of one real generator."""

    @staticmethod
    def _rotated(op, u):
        # -U^dag A U with U = diag(u)
        return -(u.conj()[:, None] * op * u[None, :])

    @pytest.mark.parametrize("hbar", [1.0, 0.25, 0.05])
    def test_partner_is_phase_rotated_copy(self, hbar):
        def phases(dim):
            return np.array([1j ** n for n in range(dim)])

        for N in (6, 7, 100):
            fam = CanonicalFamily(N=N, hbar=hbar)
            u = phases(N)
            assert np.array_equal(fam.P, self._rotated(fam.Q, u))
            # the cached U^dag V is V with its rows multiplied by conj(u), exactly
            v, vu = _ladder_spectrum("fock", N)[1:3]
            assert np.array_equal(vu, u.conj()[:, None] * v)
        for s in (0.5, 1.0, 1.5, 3.0):
            s1, s2, _ = spin_operators(s, hbar)
            u = phases(len(s1))
            assert np.array_equal(s2, self._rotated(s1, u))

    @staticmethod
    def _dense_state(fam, p, q):
        hbar = fam.hbar
        return (unitary_from_hermitian(fam.P, -q / hbar)
                @ unitary_from_hermitian(fam.Q, p / hbar) @ fam.fiducial.coeffs)

    @pytest.mark.parametrize("N", [6, 100])
    @pytest.mark.parametrize("hbar", [1.0, 0.25, 0.05])
    def test_canonical_state_matches_dense_reference(self, N, hbar, monkeypatch):
        # at N = 6 most states reach the top Fock levels; lift the tail
        # and mean-level guards to reach the map itself
        if N == 6:
            monkeypatch.setattr(enhq.coherent, "TAIL_MASS_MAX", np.inf)
            monkeypatch.setattr(enhq.coherent, "LEVEL_TOL", np.inf)
        fam = CanonicalFamily(N=N, hbar=hbar)
        rng = np.random.default_rng(N + int(100 * hbar))
        for p, q in rng.uniform(-1.0, 1.0, size=(8, 2)):
            assert np.max(np.abs(fam.state(p, q).coeffs - self._dense_state(fam, p, q))) <= 1e-12

    @pytest.mark.parametrize("fiducial", ["squeezed", "excited"])
    def test_custom_fiducial_state_matches_dense_reference(self, fiducial):
        # V^T fiducial is cached per family; with_hbar must rebuild it
        sp = make_fock_space(60, 1.0)
        fid = squeezed_ground_state(sp, 1.3) if fiducial == "squeezed" else basis_state(sp, 1)
        fam = CanonicalFamily(space=sp, fiducial=fid)
        rng = np.random.default_rng(7)
        for f in (fam, fam.with_hbar(0.25)):
            for p, q in rng.uniform(-1.0, 1.0, size=(6, 2)):
                assert np.max(np.abs(f.state(p, q).coeffs - self._dense_state(f, p, q))) <= 1e-12

    @pytest.mark.parametrize("s", [0.5, 1.0, 1.5, 3.0])
    @pytest.mark.parametrize("hbar", [1.0, 0.25, 0.05])
    def test_spin_state_matches_dense_reference(self, s, hbar):
        fam = SpinFamily(s, hbar)
        _, s2, s3 = spin_operators(s, hbar)
        rng = np.random.default_rng(int(10 * s) + int(100 * hbar))
        for theta, phi in rng.uniform(0.0, 1.0, size=(8, 2)) * (np.pi, 2.0 * np.pi):
            ref = (unitary_from_hermitian(s3, -phi / hbar)
                   @ unitary_from_hermitian(s2, -theta / hbar) @ fam.fiducial.coeffs)
            assert np.max(np.abs(fam.state(theta, phi).coeffs - ref)) <= 1e-12

    @pytest.mark.parametrize("s", [10.0, 50.0])
    def test_large_spin_state_matches_closed_form(self, s):
        # |<s,m|theta,phi>| = sqrt(C(2s, s-m)) cos^(s+m)(theta/2) sin^(s-m)(theta/2),
        # at sizes the dense reference is not run at; row k holds m = s - k
        fam = SpinFamily(s)
        n = int(2 * s)
        rng = np.random.default_rng(int(s))
        for theta, phi in rng.uniform(0.0, 1.0, size=(8, 2)) * (np.pi, 2.0 * np.pi):
            lc, ls = math.log(math.cos(theta / 2)), math.log(math.sin(theta / 2))
            ref = [math.exp(0.5 * (math.lgamma(n + 1) - math.lgamma(n - k + 1) - math.lgamma(k + 1))
                            + (n - k) * lc + k * ls) for k in range(n + 1)]
            assert np.max(np.abs(np.abs(fam.state(theta, phi).coeffs) - ref)) <= 1e-12

    def test_families_share_one_spectrum_per_size(self, monkeypatch):
        canonical, spin = CanonicalFamily(N=37), SpinFamily(18.0)  # both dim 37
        canonical.state(0.5, 0.5)  # each family reads the spectrum when it is built
        misses = _ladder_spectrum.cache_info().misses
        # shared by every family of the size, so no caller may write to it
        assert not any(a.flags.writeable for kind in ("fock", "spin")
                       for a in _ladder_spectrum(kind, 37))

        def no_eigensolve(*args, **kwargs):
            raise AssertionError("eigendecomposition after the spectrum was cached")

        monkeypatch.setattr(scipy.linalg, "eigh_tridiagonal", no_eigensolve)
        monkeypatch.setattr(np.linalg, "eigh", no_eigensolve)
        for fam in (canonical.with_hbar(0.25), CanonicalFamily(N=37, hbar=0.5),
                    SpinFamily(spin.s, 0.25), SpinFamily(18.0, 0.5)):
            fam.state(0.5, 0.5)
        assert _ladder_spectrum.cache_info().misses == misses


# ------------------------------------------------------------ factor caches


class TestFactorCaches:
    """Each family caches the factors of its states that depend on one
    coordinate; a cached state must be the uncached one, bit for bit."""

    # repeated points, both signs of zero and a finite-difference stencil
    POINTS = (0.0, -0.0, 0.3, 0.0, 0.3 - 2e-3, 0.3 + 2e-3, -0.0, 0.3, 1.0)

    @pytest.mark.parametrize("N, hbar", [(40, 1.0), (100, 0.25)])
    def test_canonical_states_equal_uncached_formula(self, N, hbar):
        fam = CanonicalFamily(N=N, hbar=hbar)
        for _ in range(2):  # the second sweep reads every factor from the caches
            for p in self.POINTS:
                for q in self.POINTS:
                    got = fam.state(p, q).coeffs
                    assert got.tobytes() == canonical_state_uncached(fam, p, q).tobytes()
        assert fam._half.cache_info().hits > 0
        # e^(itx) differs in signed zeros at t = 0.0 and -0.0, so each has its own entry
        assert fam._phase(0.0).tobytes() != fam._phase(-0.0).tobytes()

    @pytest.mark.parametrize("s, hbar", [(0.5, 1.0), (2.0, 0.25)])
    def test_spin_states_equal_uncached_formula(self, s, hbar):
        fam = SpinFamily(s, hbar)
        for _ in range(2):
            for theta in self.POINTS:
                for phi in self.POINTS:
                    got = fam.state(theta, phi).coeffs
                    assert got.tobytes() == spin_state_uncached(fam, theta, phi).tobytes()
        assert fam._tilt.cache_info().hits > 0 and fam._turn.cache_info().hits > 0

    def test_new_families_start_with_empty_caches(self):
        CanonicalFamily(N=40).state(0.3, 0.3)
        SpinFamily(2.0).state(0.3, 0.3)
        canonical = CanonicalFamily(N=40)
        spin = SpinFamily(2.0)
        caches = [canonical._phase, canonical._half, canonical.with_hbar(0.5)._phase,
                  spin._tilt, spin._turn]
        assert [c.cache_info().currsize for c in caches] == [0] * len(caches)

    def test_families_hold_no_reference_cycle(self):
        # the caches close over arrays, not the family: dropping the last
        # reference frees it without the cycle collector
        gc.disable()
        try:
            for make in (lambda: CanonicalFamily(N=40), lambda: SpinFamily(2.0)):
                fam = make()
                fam.state(0.3, 0.3)
                ref = weakref.ref(fam)
                del fam
                assert ref() is None
        finally:
            gc.enable()


# ------------------------------------------------------------------ overlap


class TestOverlap:
    def test_self_overlap_and_symmetry(self):
        fam = CanonicalFamily(N=80)
        a, b = fam.state(0.0, 0.0), fam.state(1.0, 0.5)
        assert overlap(a, a) == pytest.approx(1.0)
        assert overlap(a, b) == pytest.approx(np.conj(overlap(b, a)))
        assert abs(overlap(a, b)) <= 1.0 + 1e-10

    def test_affine_overlap(self):
        # a grid centred at q = 1.2 resolves both states
        fam = AffineFamily(1.0, 1.0)
        a, b = (sampled_affine_state(fam, p, q, center=1.2) for p, q in ((0.0, 1.0), (0.5, 1.2)))
        assert overlap(a, a).real == pytest.approx(1.0, abs=1e-8)
        assert abs(overlap(a, b)) <= 1.0 + 1e-10
