"""Seeded randomized invariants of the three coherent-state families.

Each test draws its points from a fixed numpy seed, so a failure names a
reproducible point.
"""

import numpy as np
import pytest
from references import sampled_affine_state, squeezed_ground_state

from enhq.coherent import AffineFamily, CanonicalFamily, SpinFamily
from enhq.geometry import fs_metric
from enhq.hilbert import expectation, make_fock_space


@pytest.fixture(scope="module")
def canonical_families():
    """Ground-state and squeezed fiducials, each with <Q> = <P> = 0."""
    fams = [CanonicalFamily(N=100, hbar=h) for h in (1.0, 0.5)]
    space = make_fock_space(100, 1.0)
    fams.append(CanonicalFamily(space, squeezed_ground_state(space, 1.3)))
    return fams


def _affine_points(rng, k):
    return zip(rng.uniform(0.8, 3.0, k), rng.choice([1.0, 0.5], k),
               rng.uniform(-2.0, 2.0, k), rng.uniform(0.3, 3.0, k))


def _spin_points(rng, k):
    return zip(rng.choice([0.5, 1.0, 1.5, 3.0], k), rng.choice([1.0, 0.5], k),
               rng.uniform(0.2, np.pi - 0.2, k), rng.uniform(0.0, 2.0 * np.pi, k))


class TestNormalization:
    def test_canonical(self, canonical_families):
        rng = np.random.default_rng(101)
        for fam in canonical_families:
            for p, q in rng.uniform(-2.0, 2.0, (8, 2)):
                assert abs(np.linalg.norm(fam.state(p, q).coeffs) - 1.0) < 1e-12

    def test_affine(self):
        # the sampled reference state on a grid centred at q
        for beta, hbar, p, q in _affine_points(np.random.default_rng(102), 12):
            st = sampled_affine_state(AffineFamily(beta, hbar), p, q, center=q)
            assert abs(st.norm() - 1.0) < 1e-12

    def test_spin(self):
        for s, hbar, theta, phi in _spin_points(np.random.default_rng(103), 12):
            psi = SpinFamily(s, hbar).state(theta, phi)
            assert abs(np.linalg.norm(psi.coeffs) - 1.0) < 1e-12


def test_canonical_expectations_track_labels(canonical_families):
    rng = np.random.default_rng(104)
    for fam in canonical_families:
        for p, q in rng.uniform(-2.0, 2.0, (8, 2)):
            psi = fam.state(p, q)
            assert expectation(psi, fam.Q) == pytest.approx(q, abs=1e-10)
            assert expectation(psi, fam.P) == pytest.approx(p, abs=1e-10)


def test_affine_grid_moments_match_exact_moments():
    # the grid of the sampled reference states against the exact Gamma moments;
    # x^-1 is left out: at k = 2 the state grid integrates it only to 5e-3
    for beta, hbar, p, q in _affine_points(np.random.default_rng(108), 12):
        fam = AffineFamily(beta, hbar)
        st = sampled_affine_state(fam, p, q, center=q)
        x, density = st.grid.nodes, np.abs(st.samples) ** 2
        for e in range(5):
            got = st.grid.integrate(density * x**e).real
            assert got == pytest.approx(fam.expect_laurent({e: 1.0}, p, q).real, rel=1e-12, abs=0.0)


class TestMetricSymmetricPositive:
    @staticmethod
    def _check(fam, point):
        g = fs_metric(fam, point).as_matrix()
        assert np.array_equal(g, g.T)
        assert np.all(np.linalg.eigvalsh(g) > 0), (point, g)

    def test_canonical(self, canonical_families):
        rng = np.random.default_rng(105)
        for fam in canonical_families:
            for point in rng.uniform(-2.0, 2.0, (3, 2)):
                self._check(fam, tuple(point))

    def test_affine(self):
        for beta, hbar, p, q in _affine_points(np.random.default_rng(106), 6):
            self._check(AffineFamily(beta, hbar), (p, q))

    def test_spin(self):
        for s, hbar, theta, phi in _spin_points(np.random.default_rng(107), 6):
            self._check(SpinFamily(s, hbar), (theta, phi))
