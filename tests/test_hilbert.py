"""Operator algebra checks on the truncated bases."""

import numpy as np
import pytest

from enhq.hilbert import (
    Operator,
    StateVector,
    annihilation_operator,
    basis_state,
    dilation_operator,
    expectation,
    make_fock_space,
    momentum_operator,
    position_operator,
    spin_operators,
    spin_space,
    squeezed_ground_state,
    unitary_from_hermitian,
)


def test_smallest_ladder():
    sp = make_fock_space(2, 1.0)
    a = annihilation_operator(sp)
    assert np.allclose(a.matrix, [[0, 1], [0, 0]])


@pytest.mark.parametrize("bad_n", [0, 1, -3])
def test_space_validation(bad_n):
    with pytest.raises(ValueError):
        make_fock_space(bad_n, 1.0)
    for hbar in (0.0, float("nan"), float("inf")):
        with pytest.raises(ValueError):
            make_fock_space(10, hbar)


@pytest.mark.parametrize("N", [20, 50, 100])
def test_canonical_commutator_off_boundary(N):
    # truncation corrupts only the top corner; exclude the top 10%
    sp = make_fock_space(N, 1.0)
    q = position_operator(sp).matrix
    p = momentum_operator(sp).matrix
    comm = q @ p - p @ q - 1j * np.eye(N)
    keep = N - N // 10
    assert np.max(np.abs(comm[:keep, :keep])) < 1e-8


def test_annihilator_kills_ground_state():
    sp = make_fock_space(100, 1.0)
    q = position_operator(sp).matrix
    p = momentum_operator(sp).matrix
    ground = basis_state(sp, 0).coeffs
    assert np.max(np.abs((q + 1j * p) @ ground)) == 0.0


@pytest.mark.parametrize("hbar", [1.0, 0.5])
def test_ground_state_variances(hbar):
    sp = make_fock_space(100, hbar)
    g = basis_state(sp, 0)
    q = position_operator(sp)
    p = momentum_operator(sp)
    assert abs(expectation(g, q @ q).real - hbar / 2) < 1e-12
    assert abs(expectation(g, p @ p).real - hbar / 2) < 1e-12
    assert abs(expectation(g, q)) < 1e-12


def test_dilation_operator():
    sp = make_fock_space(100, 1.0)
    q = position_operator(sp).matrix
    d = dilation_operator(sp)
    assert d.is_hermitian
    assert abs(np.trace(d.matrix)) < 1e-12
    comm = q @ d.matrix - d.matrix @ q - 1j * q
    assert np.max(np.abs(comm[:80, :80])) < 1e-8
    assert abs(expectation(basis_state(sp, 0), d)) < 1e-12


def test_wrong_kind_space_rejected():
    sp = spin_space(1.0, 1.0)
    with pytest.raises(ValueError):
        position_operator(sp)


def test_spin_operators_basics():
    s1, s2, s3 = spin_operators(0.5, 1.0)
    assert np.allclose(s3.matrix, np.diag([0.5, -0.5]))
    top = basis_state(s3.space, 0).coeffs
    raising = s1.matrix + 1j * s2.matrix
    assert np.max(np.abs(raising @ top)) == 0.0


@pytest.mark.parametrize("s", [0.5, 1.0, 1.5, 5.0, 20.0])
def test_spin_casimir_exact(s):
    s1, s2, s3 = spin_operators(s, 1.0)
    casimir = s1.matrix @ s1.matrix + s2.matrix @ s2.matrix + s3.matrix @ s3.matrix
    assert np.allclose(casimir, s * (s + 1) * np.eye(int(2 * s + 1)), atol=1e-10)


def test_spin_s3_eigenvalues():
    _, _, s3 = spin_operators(1.5, 2.0)
    assert np.allclose(np.diag(s3.matrix), 2.0 * np.array([1.5, 0.5, -0.5, -1.5]))


def test_bad_spin_rejected():
    with pytest.raises(ValueError):
        spin_operators(0.3, 1.0)


def test_unitary_from_hermitian():
    s1, s2, s3 = spin_operators(0.5, 1.0)
    eye = np.eye(2)
    assert np.allclose(unitary_from_hermitian(s3, 0.0).matrix, eye)
    u = unitary_from_hermitian(s3, 1.7)
    uinv = unitary_from_hermitian(s3, -1.7)
    assert np.max(np.abs(u.matrix @ uinv.matrix - eye)) < 1e-10
    assert np.max(np.abs(u.matrix @ u.matrix.conj().T - eye)) < 1e-10
    # spinor double cover: a 2*pi rotation flips the sign
    assert np.allclose(unitary_from_hermitian(s3, 2 * np.pi).matrix, -eye, atol=1e-10)


def test_unitary_rejects_non_hermitian():
    sp = make_fock_space(10, 1.0)
    with pytest.raises(ValueError):
        unitary_from_hermitian(annihilation_operator(sp), 1.0)


def test_unitary_preserves_basis_norms():
    sp = make_fock_space(40, 1.0)
    u = unitary_from_hermitian(position_operator(sp), 0.8).matrix
    norms = np.linalg.norm(u, axis=0)
    assert np.max(np.abs(norms - 1.0)) < 1e-10


def test_expectation_examples():
    sp = make_fock_space(100, 0.7)
    g = basis_state(sp, 0)
    q = position_operator(sp)
    p = momentum_operator(sp)
    both = Operator(p.matrix @ p.matrix + q.matrix @ q.matrix, sp)
    assert abs(expectation(g, both).real - 0.7) < 1e-10
    _, _, s3 = spin_operators(2.0, 0.5)
    top = basis_state(s3.space, 0)
    assert abs(expectation(top, s3).real - 2.0 * 0.5) < 1e-12


def test_hermitian_expectations_real():
    rng = np.random.default_rng(1)
    sp = make_fock_space(30, 1.0)
    c = rng.normal(size=30) + 1j * rng.normal(size=30)
    psi = StateVector(c / np.linalg.norm(c), sp)
    for op in (position_operator(sp), momentum_operator(sp), dilation_operator(sp)):
        assert abs(expectation(psi, op).imag) < 1e-10


def test_expectation_space_mismatch():
    g = basis_state(make_fock_space(10, 1.0), 0)
    with pytest.raises(ValueError):
        expectation(g, position_operator(make_fock_space(12, 1.0)))


def test_state_norm_enforced():
    sp = make_fock_space(4, 1.0)
    for c in ([1.0, 1.0, 0.0, 0.0], [np.nan, 0.0, 0.0, 0.0]):
        with pytest.raises(ValueError):
            StateVector(np.array(c), sp)


def test_squeezed_ground_state():
    sp = make_fock_space(80, 1.0)
    lam = 1.5
    psi = squeezed_ground_state(sp, lam)
    q = position_operator(sp)
    p = momentum_operator(sp)
    var_q = expectation(psi, q @ q).real - expectation(psi, q).real ** 2
    var_p = expectation(psi, p @ p).real - expectation(psi, p).real ** 2
    assert abs(var_q - lam**2 / 2) < 1e-8
    assert abs(var_p - 1 / (2 * lam**2)) < 1e-8
