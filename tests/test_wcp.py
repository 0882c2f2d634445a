"""Weak-correspondence evaluator checks with independent oracles."""

import numpy as np
import pytest

from enhq.coherent import AffineFamily, CanonicalFamily, SpinFamily
from enhq.hilbert import Operator, basis_state, expectation
from enhq.wcp import (
    classical_limit,
    cprime,
    cprime_closed_form,
    enhanced_hamiltonian,
    hbar_scaling_fit,
    parse_hamiltonian,
)

OSC = "0.5*P.P + 0.5*Q.Q"


class TestParsing:
    def test_roundtrip(self):
        spec = parse_hamiltonian(OSC, "canonical")
        assert spec.terms == ((0.5, ("P", "P")), (0.5, ("Q", "Q")))
        assert parse_hamiltonian("D.Qinv.D", "affine").terms == ((1.0, ("D", "Qinv", "D")),)

    def test_rejections(self):
        with pytest.raises(ValueError):
            parse_hamiltonian("0.5*X.X", "canonical")
        with pytest.raises(ValueError):
            parse_hamiltonian("Q + ", "canonical")
        with pytest.raises(ValueError):
            parse_hamiltonian("Qinv", "canonical")  # affine-only letter
        with pytest.raises(ValueError):
            parse_hamiltonian("bad*Q", "canonical")
        with pytest.raises(ValueError):
            parse_hamiltonian("Q", "nosuchkind")


class TestCanonical:
    def test_oscillator_surface(self):
        for hbar in (1.0, 0.5, 0.25):
            fam = CanonicalFamily(N=100, hbar=hbar)
            spec = parse_hamiltonian(OSC, "canonical")
            for p in (-1.0, 0.0, 1.0):
                for q in (-1.0, 0.5, 2.0):
                    got = enhanced_hamiltonian(spec, fam, p, q)
                    assert abs(got - 0.5 * (p * p + q * q) - hbar / 2) < 1e-8

    def test_position_word_is_exact(self):
        fam = CanonicalFamily(N=100)
        spec = parse_hamiltonian("Q", "canonical")
        for p, q in ((0.0, 0.0), (1.0, -0.7), (2.0, 1.5)):
            assert abs(enhanced_hamiltonian(spec, fam, p, q) - q) < 1e-8

    def test_non_hermitian_spec_rejected(self):
        fam = CanonicalFamily(N=50)
        with pytest.raises(ValueError):
            enhanced_hamiltonian(parse_hamiltonian("Q.P", "canonical"), fam, 0.0, 0.0)

    def test_kind_mismatch_rejected(self):
        fam = CanonicalFamily(N=50)
        with pytest.raises(ValueError):
            enhanced_hamiltonian(parse_hamiltonian("D.Qinv.D", "affine"), fam, 0.0, 1.0)

    @pytest.mark.parametrize("text", [OSC, "Q.Q.Q.Q"])
    def test_displacement_identity(self, text):
        # <p,q|H(P,Q)|p,q> equals <0|H(P + p, Q + q)|0> within truncation error
        fam = CanonicalFamily(N=100)
        spec = parse_hamiltonian(text, "canonical")
        ground = basis_state(fam.space, 0)
        eye = np.eye(fam.space.dim)
        for p in np.linspace(-1.0, 1.0, 5):
            for q in np.linspace(-1.0, 1.0, 5):
                got = enhanced_hamiltonian(spec, fam, p, q)
                total = np.zeros_like(eye, dtype=complex)
                shifted = {"P": fam.P.matrix + p * eye, "Q": fam.Q.matrix + q * eye}
                for coeff, word in spec.terms:
                    m = eye.astype(complex)
                    for tok in word:
                        m = m @ shifted[tok]
                    total += coeff * m
                ref = expectation(ground, Operator(total, fam.space)).real
                assert abs(got - ref) < 1e-7


class TestAffine:
    def test_enhanced_surface_matches_closed_form(self):
        beta, hbar = 1.0, 1.0
        fam = AffineFamily(beta, hbar)
        spec = parse_hamiltonian("D.Qinv.D", "affine")
        c = hbar**2 * cprime_closed_form(beta, hbar)
        for p in (-2.0, 0.0, 1.0):
            for q in (0.5, 1.0, 3.0):
                got = enhanced_hamiltonian(spec, fam, p, q)
                assert abs(got - (q * p * p + c / q)) < 1e-10

    def test_barrier_independent_of_p(self):
        fam = AffineFamily(1.0, 1.0)
        spec = parse_hamiltonian("D.Qinv.D", "affine")
        q = 1.3
        vals = [enhanced_hamiltonian(spec, fam, p, q) - q * p * p
                for p in (-2.0, -1.0, 0.0, 1.0, 2.0)]
        assert np.ptp(vals) < 1e-6

    def test_barrier_inverse_in_q(self):
        fam = AffineFamily(1.0, 1.0)
        spec = parse_hamiltonian("D.Qinv.D", "affine")
        qs = np.geomspace(0.3, 3.0, 7)
        barrier = [enhanced_hamiltonian(spec, fam, 0.0, q) for q in qs]
        slope = np.polyfit(np.log(qs), np.log(barrier), 1)[0]
        assert abs(slope + 1.0) < 1e-3

    def test_non_self_adjoint_word_rejected(self):
        fam = AffineFamily(1.0, 1.0)
        with pytest.raises(ValueError):
            enhanced_hamiltonian(parse_hamiltonian("D.Q", "affine"), fam, 0.0, 1.0)

    def test_chart_violation_rejected(self):
        fam = AffineFamily(1.0, 1.0)
        with pytest.raises(ValueError):
            enhanced_hamiltonian(parse_hamiltonian("Q", "affine"), fam, 0.0, -1.0)
        # D.Qinv.D builds its Laurent multiplier from (p, q) before any state
        for p, q in ((np.nan, 1.0), (0.0, np.nan), (0.0, np.inf)):
            with pytest.raises(ValueError, match="affine chart"):
                enhanced_hamiltonian(parse_hamiltonian("D.Qinv.D", "affine"), fam, p, q)


class TestCprime:
    def test_positive(self):
        assert cprime(1.0, 1.0) > 0

    def test_quadrature_vs_closed_form(self):
        for beta, hbar in ((1.0, 0.25), (1.0, 1.0), (2.0, 0.5)):
            assert abs(cprime(beta, hbar) - cprime_closed_form(beta, hbar)) < 1e-8

    def test_barrier_vanishes_classically(self):
        hbars = (1.0, 0.5, 0.25, 0.125, 0.0625)
        vals = [h**2 * cprime(1.0, h) for h in hbars]
        assert all(a > b for a, b in zip(vals, vals[1:]))
        # barrier vanishes linearly: hbar^2 C' = hbar beta^2 / (2 beta - hbar)
        for h, v in zip(hbars, vals):
            assert abs(v - h / (2.0 - h)) < 1e-10

    def test_non_normalizable_rejected(self):
        with pytest.raises(ValueError):
            cprime_closed_form(0.5, 1.0)


class TestClassicalLimit:
    def test_toy_gravity_symbol(self):
        cl = classical_limit(parse_hamiltonian("D.Qinv.D", "affine"))
        assert cl(2.0, 3.0) == pytest.approx(3.0 * 4.0)
        assert cl.terms == ((1.0, 2, 1),)

    def test_oscillator_symbol(self):
        cl = classical_limit(parse_hamiltonian(OSC, "canonical"))
        assert cl(1.0, 2.0) == pytest.approx(2.5)

    def test_spin_unsupported(self):
        with pytest.raises(ValueError):
            classical_limit(parse_hamiltonian("S3", "spin"))


class TestSpin:
    def test_s3_surface(self):
        s, hbar = 1.0, 1.0
        fam = SpinFamily(s, hbar)
        spec = parse_hamiltonian("S3", "spin")
        for theta in (0.3, 1.5, 2.8):
            got = enhanced_hamiltonian(spec, fam, theta, 0.4)
            assert abs(got - s * hbar * np.cos(theta)) < 1e-10


class TestScaling:
    def test_oscillator_exponent(self):
        fam = CanonicalFamily(N=100)
        spec = parse_hamiltonian(OSC, "canonical")
        rep = hbar_scaling_fit(spec, fam, (0.5, 0.5), [1.0, 0.5, 0.25, 0.1, 0.05])
        assert not rep.exact
        assert abs(rep.exponent - 1.0) < 0.02
        assert abs(rep.prefactor - 0.5) < 0.01

    def test_position_word_exact(self):
        fam = CanonicalFamily(N=100)
        rep = hbar_scaling_fit(parse_hamiltonian("Q", "canonical"), fam, (0.5, 0.5),
                               [1.0, 0.5, 0.25, 0.1])
        assert rep.exact

    def test_affine_exponent_reported(self):
        fam = AffineFamily(1.0, 1.0)
        spec = parse_hamiltonian("D.Qinv.D", "affine")
        rep = hbar_scaling_fit(spec, fam, (1.0, 1.0),
                               [1.0, 0.5, 0.25, 0.125, 0.0625])
        # difference is hbar^2 C'(beta, hbar) = hbar^2 beta^2/(hbar(2 beta - hbar))
        assert 1.0 <= rep.exponent <= 2.0
        oracle = np.polyfit(
            np.log([1.0, 0.5, 0.25, 0.125, 0.0625]),
            np.log([h**2 * cprime_closed_form(1.0, h) for h in (1.0, 0.5, 0.25, 0.125, 0.0625)]),
            1,
        )[0]
        assert abs(rep.exponent - oracle) < 1e-6

    def test_needs_a_decade(self):
        fam = CanonicalFamily(N=50)
        with pytest.raises(ValueError):
            hbar_scaling_fit(parse_hamiltonian(OSC, "canonical"), fam, (0.0, 0.0),
                             [1.0, 0.9, 0.8, 0.7])
