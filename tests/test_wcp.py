"""Weak-correspondence evaluator checks with independent oracles."""

import numpy as np
import pytest
from references import dense_enhanced_hamiltonian, squeezed_ground_state

from enhq import coherent
from enhq.coherent import AffineFamily, CanonicalFamily, SpinFamily
from enhq.hilbert import StateVector, basis_state, expectation, make_fock_space
from enhq.wcp import (
    HamiltonianSpec,
    _letters,
    classical_limit,
    cprime,
    cprime_closed_form,
    enhanced_hamiltonian,
    hbar_scaling_fit,
    parse_hamiltonian,
)

OSC = "0.5*P.P + 0.5*Q.Q"
HBARS = (1.0, 0.5, 0.1)


class TestParsing:
    def test_roundtrip(self):
        spec = parse_hamiltonian(OSC, "canonical")
        assert spec.terms == ((0.5, ("P", "P")), (0.5, ("Q", "Q")))
        assert parse_hamiltonian("D.Qinv.D", "affine").terms == ((1.0, ("D", "Qinv", "D")),)

    def test_exponent_sign_is_not_a_term_break(self):
        got = parse_hamiltonian("1e+3*Q.Q + 2.5E+1*P.P", "canonical")
        assert got == parse_hamiltonian("1000*Q.Q + 25*P.P", "canonical")

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
        # Q + Q.P: each degree scales on its own with hbar, so each is checked;
        # a rejection is not cached, so a second call raises again
        fam = CanonicalFamily(N=50)
        for text in ("Q.P", "Q + Q.P"):
            for _ in range(2):
                with pytest.raises(ValueError, match="not self-adjoint as written"):
                    enhanced_hamiltonian(parse_hamiltonian(text, "canonical"), fam, 0.0, 0.0)

    def test_like_terms_merge_before_the_adjoint_check(self):
        # Q.P - 0.5 Q.P + 0.5 P.Q is the self-adjoint 0.5 (Q.P + P.Q)
        fam = CanonicalFamily(N=50)
        got = enhanced_hamiltonian(parse_hamiltonian("Q.P + -0.5*Q.P + 0.5*P.Q", "canonical"),
                                   fam, 0.3, 0.7)
        assert got == pytest.approx(0.3 * 0.7, rel=1e-14)

    @pytest.mark.parametrize("hbar", HBARS)
    @pytest.mark.parametrize("text", [OSC, "Q.Q.Q.Q + 0.3*P.Q.Q.P + 2*Q"])
    def test_matches_dense_word_matrix(self, text, hbar):
        fam = CanonicalFamily(N=100, hbar=hbar)
        spec = parse_hamiltonian(text, "canonical")
        for p, q in ((0.0, 0.0), (-1.0, 0.5), (1.2, 1.0), (0.7, -1.3)):
            ref = dense_enhanced_hamiltonian(spec, fam, p, q).real
            assert enhanced_hamiltonian(spec, fam, p, q) == pytest.approx(ref, rel=1e-13, abs=0.0)

    @pytest.mark.parametrize("hbar", HBARS)
    @pytest.mark.parametrize("fiducial", ["squeezed", "six-level"])
    def test_custom_fiducial_matches_dense_word_matrix(self, fiducial, hbar):
        # the squeezed fiducial fills every Fock level, so its words act on
        # N + d levels; the six-level one on 6 + d, its top level included
        sp = make_fock_space(100, hbar)
        c = np.zeros(100, dtype=complex)
        c[:6] = np.array([1.0, 1j]) @ np.random.default_rng(3).normal(size=(2, 6))
        fid = (squeezed_ground_state(sp, 1.3) if fiducial == "squeezed"
               else StateVector(c / np.linalg.norm(c), sp))
        fam = CanonicalFamily(space=sp, fiducial=fid)
        spec = parse_hamiltonian("Q.Q.Q.Q + 0.3*P.Q.Q.P + 2*Q", "canonical")
        for p, q in ((0.0, 0.0), (-1.0, 0.5), (0.7, -1.3)):
            ref = dense_enhanced_hamiltonian(spec, fam, p, q).real
            assert enhanced_hamiltonian(spec, fam, p, q) == pytest.approx(ref, rel=1e-12, abs=0.0)

    def test_state_beyond_the_truncation_is_exact(self):
        # at hbar = 0.01 the 100-level state at this point is aliased: its
        # expectations read H = 0.374 and <Q.Q> = 0.40
        fam = CanonicalFamily(N=100, hbar=0.01)
        p, q = -0.5852891519223444, -1.9523610466359287
        osc, qq = parse_hamiltonian(OSC, "canonical"), parse_hamiltonian("Q.Q", "canonical")
        assert enhanced_hamiltonian(osc, fam, p, q) == pytest.approx(
            0.5 * (p * p + q * q) + 0.005, rel=1e-14)
        assert enhanced_hamiltonian(qq, fam, p, q) == pytest.approx(q * q + 0.005, rel=1e-14)

    def test_family_builds_operators_on_first_read(self, monkeypatch):
        calls = []
        real = coherent.position_operator
        monkeypatch.setattr(coherent, "position_operator",
                            lambda space: calls.append(space) or real(space))
        fam = CanonicalFamily(N=20).with_hbar(0.5)
        assert calls == []
        assert fam.Q is fam.Q
        assert calls == [fam.space]

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
                shifted = {"P": fam.P + p * eye, "Q": fam.Q + q * eye}
                for coeff, word in spec.terms:
                    m = eye.astype(complex)
                    for tok in word:
                        m = m @ shifted[tok]
                    total += coeff * m
                ref = expectation(ground, total).real
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

    @pytest.mark.parametrize("beta", [0.5, 1.0, 2.0, 3.7])
    def test_word_algebra_matches_closed_form(self, beta):
        # exact Gamma moments: C' differs from the closed form by rounding only
        for hbar in np.linspace(0.05, 0.9, 18):
            ref = cprime_closed_form(beta, hbar)
            assert cprime(beta, hbar) == pytest.approx(ref, rel=1e-13, abs=0.0)

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


def test_spin_specs_fail_loudly():
    # wcp has no spin family, so a spin spec fails with a ValueError at every entry
    with pytest.raises(ValueError, match="unknown family kind 'spin'"):
        parse_hamiltonian("S3", "spin")
    spec = HamiltonianSpec(kind="spin", terms=((1.0, ("S3",)),))
    with pytest.raises(ValueError, match="no enhanced Hamiltonian shipped for spin specs"):
        enhanced_hamiltonian(spec, SpinFamily(1.0), 0.5, 0.5)
    with pytest.raises(ValueError, match="no classical limit shipped for spin specs"):
        classical_limit(spec)


class TestScaling:
    def test_oscillator_exponent(self):
        fam = CanonicalFamily(N=100)
        spec = parse_hamiltonian(OSC, "canonical")
        rep = hbar_scaling_fit(spec, fam, (0.5, 0.5), [1.0, 0.5, 0.25, 0.1, 0.05])
        assert not rep.exact
        assert abs(rep.exponent - 1.0) < 0.02
        assert abs(rep.prefactor - 0.5) < 0.01

    def test_letters_built_once_per_fit(self):
        _letters.cache_clear()
        fam = CanonicalFamily(N=100)
        hbar_scaling_fit(parse_hamiltonian(OSC, "canonical"), fam, (0.5, 0.5),
                         [1.0, 0.5, 0.25, 0.1, 0.05])
        assert _letters.cache_info().misses == 1

    @pytest.mark.parametrize("kind,text,p", [
        ("affine", "D.Qinv.D", 1e10), ("affine", "D.Qinv.D", 1e8),
        ("canonical", OSC, 1e10), ("canonical", OSC, 1e8)])
    def test_rounding_hides_the_correction(self, kind, text, p):
        # the correction is at most hbar/(2 - hbar) or hbar/2, under the rounding
        # of p^2 q or p^2/2: it used to read as exact, or as exponent 0
        fam = CanonicalFamily() if kind == "canonical" else AffineFamily(1.0, 1.0)
        with pytest.raises(ValueError, match=r"hbar fit at \(p, q\) = \(.*\): .* not above the rounding"):
            hbar_scaling_fit(parse_hamiltonian(text, kind), fam, (p, 1.0),
                             [1.0, 0.5, 0.25, 0.1, 0.05])

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
