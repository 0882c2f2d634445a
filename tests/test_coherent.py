"""Coherent-state family checks, with analytic oracles where available."""

import numpy as np
import pytest

from enhq.coherent import (
    AffineFamily,
    CanonicalFamily,
    SpinFamily,
    affine_moment,
    hermite_functions,
    overlap,
)
from enhq.hilbert import basis_state, expectation, make_fock_space, squeezed_ground_state


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

    def test_tail_guard_passes_resolved_states(self):
        # 4e-11 at (3, 3) for N = 40; about 1e-32 over the benchmark's
        # N = 100 points and their stencils
        CanonicalFamily(N=40).state(3.0, 3.0)
        for hbar in (1.0, 0.5, 0.25):
            fam = CanonicalFamily(N=100, hbar=hbar)
            for p in np.linspace(-1.5, 1.5, 7):
                for q in np.linspace(-1.5, 1.5, 7):
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
        samples = fam.xrep(0.0, 0.0, x)
        gauss = np.pi**-0.25 * np.exp(-(x**2) / 2.0)
        assert np.max(np.abs(samples - gauss)) < 1e-6

    def test_xrep_modulus_independent_of_p(self):
        fam = CanonicalFamily(N=100)
        x = np.linspace(-7.0, 9.0, 1601)
        a = np.abs(fam.xrep(0.0, 1.0, x))
        b = np.abs(fam.xrep(2.0, 1.0, x))
        assert np.max(np.abs(a - b)) < 1e-10

    def test_xrep_matches_fock_construction(self):
        fam = CanonicalFamily(N=100)
        x = np.linspace(-8.0, 10.0, 3001)
        direct = fam.xrep(1.0, 1.0, x)
        via_fock = fam.state(1.0, 1.0).coeffs @ hermite_functions(fam.space.dim, x, fam.hbar)
        ov = np.trapezoid(np.conj(direct) * via_fock, x)
        # the two constructions may differ by the displacement phase only
        assert abs(abs(ov) - 1.0) < 1e-6
        assert np.max(np.abs(np.abs(direct) - np.abs(via_fock))) < 1e-6

    def test_xrep_rejects_bad_grid(self):
        fam = CanonicalFamily(N=100)
        with pytest.raises(ValueError):
            fam.xrep(0.0, 5.0, np.linspace(-1.0, 1.0, 101))


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

    def test_fiducial_normalized_with_unit_mean(self):
        fam = AffineFamily(1.0, 1.0)
        fid = fam.fiducial()
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
        fam = AffineFamily(beta, hbar)
        x = np.linspace(0.1, 10.0, 991)
        h = 1e-3
        psi = fam.fiducial_wavefunction(x)
        dpsi = (
            fam.fiducial_wavefunction(x - 2 * h)
            - 8 * fam.fiducial_wavefunction(x - h)
            + 8 * fam.fiducial_wavefunction(x + h)
            - fam.fiducial_wavefunction(x + 2 * h)
        ) / (12 * h)
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
        a = fam.state(0.0, 1.0)
        b = fam.fiducial()
        assert np.allclose(a.samples, b.samples)

    def test_norm_preserved_off_center(self):
        fam = AffineFamily(1.0, 1.0)
        assert abs(fam.centered(0.2).state(3.0, 0.2).norm() - 1.0) < 1e-8

    def test_unresolved_state_rejected(self):
        # the grid centred at q = 1 under-resolves q = 1.2, where norm() would read 2.8e11
        fam = AffineFamily(1.0, 1.0)
        with pytest.raises(ValueError, match="does not resolve"):
            fam.state(0.3, 1.2)
        assert abs(fam.centered(1.2).state(0.3, 1.2).norm() - 1.0) < 1e-8

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
                fam.state(p, q)
            with pytest.raises(ValueError, match="affine chart"):
                fam.expect_laurent({1: 1.0}, p, q)
        with pytest.raises(ValueError, match="finite"):
            fam.centered(np.nan)

    @pytest.mark.parametrize("beta,hbar", [(1.0, 1.0), (1.0, 0.25), (2.0, 0.5)])
    def test_moments_match_gamma_oracle(self, beta, hbar):
        fam = AffineFamily(beta, hbar)
        for n in range(-1, 5):
            got = fam.expect_power(n)
            ref = affine_moment(beta, hbar, n)
            assert abs(got - ref) < 1e-7

    def test_moment_oracle_values(self):
        assert affine_moment(1.0, 1.0, 0) == pytest.approx(1.0)
        assert affine_moment(1.0, 1.0, 1) == pytest.approx(1.0)
        assert affine_moment(1.0, 0.1, -1) == pytest.approx(20.0 / 19.0)

    def test_moment_oracle_validation(self):
        with pytest.raises(ValueError):
            affine_moment(1.0, 1.0, -2)
        with pytest.raises(ValueError):
            affine_moment(-1.0, 1.0, 1)


# --------------------------------------------------------------------- spin


class TestSpin:
    def test_north_pole_is_highest_weight(self):
        fam = SpinFamily(1.5, 1.0)
        st = fam.state(0.0, 0.0)
        assert np.allclose(st.coeffs, basis_state(fam.space, 0).coeffs)

    @pytest.mark.parametrize("s", [0.5, 1.0, 1.5])
    def test_s3_expectation(self, s):
        fam = SpinFamily(s, 1.0)
        for theta in (0.3, 1.2, 2.5):
            st = fam.state(theta, 0.7)
            got = expectation(st, fam.S3).real
            assert abs(got - s * np.cos(theta)) < 1e-10

    def test_bloch_vector_length(self):
        fam = SpinFamily(1.0, 0.5)
        for theta, phi in ((0.4, 1.0), (1.5, 4.0), (2.8, 0.1)):
            st = fam.state(theta, phi)
            v = np.array([expectation(st, op).real for op in (fam.S1, fam.S2, fam.S3)])
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
        with pytest.raises(ValueError):
            fam.state(-0.1, 0.0)
        with pytest.raises(ValueError):
            fam.state(1.0, 7.0)

    def test_pq_chart_consistency(self):
        fam = SpinFamily(1.0, 1.0)
        r = np.sqrt(fam.s * fam.hbar)
        theta, phi = 1.2, 0.9
        point = (r * np.cos(theta), r * phi)
        vec, _ = fam.chart(point, 0.0, "pq")
        a = fam.state(theta, phi).coeffs
        assert abs(abs(np.vdot(a, vec(*point))) - 1.0) < 1e-12


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
        fam = AffineFamily(1.0, 1.0).centered(1.2)
        a, b = fam.fiducial(), fam.state(0.5, 1.2)
        assert overlap(a, a).real == pytest.approx(1.0, abs=1e-8)
        assert abs(overlap(a, b)) <= 1.0 + 1e-10

    def test_mismatches_rejected(self):
        fam = AffineFamily(1.0, 1.0)
        other = fam.centered(2.0)
        with pytest.raises(ValueError):
            overlap(fam.fiducial(), other.state(0.0, 2.0))
        with pytest.raises(TypeError):
            overlap(fam.fiducial(), CanonicalFamily(N=10).state(0.0, 0.0))
        small = basis_state(make_fock_space(10, 1.0), 0)
        big = basis_state(make_fock_space(12, 1.0), 0)
        with pytest.raises(ValueError):
            overlap(small, big)
